// Package wrapper defines the interface between MedMaker mediators and
// the wrappers (translators) that export heterogeneous sources as OEM, as
// in Figure 1.1 of the paper, plus the generic machinery for answering
// MSL queries over a set of top-level OEM objects.
//
// A Source accepts single-source MSL queries — a rule whose tail patterns
// all refer to this source — and returns the materialized head objects.
// Sources advertise Capabilities; a source with limited query power (for
// example, one that cannot evaluate value conditions, Section 3.5 of the
// paper) rejects unsupported queries with an *UnsupportedError, and the
// mediator's optimizer responds by relaxing the query and applying the
// stripped conditions itself (capabilities-based rewriting, [PGH]).
package wrapper

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"medmaker/internal/build"
	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// Capabilities describes the query features a source supports beyond bare
// label-pattern retrieval. The zero value is the least capable source.
type Capabilities struct {
	// ValueConditions: constant values inside patterns (selections such
	// as <dept 'CS'>), including constant oid fields.
	ValueConditions bool
	// RestConstraints: conditions attached to rest variables
	// ("| Rest:{<year 3>}").
	RestConstraints bool
	// Wildcards: %label patterns matched at any depth. Without index
	// structures these may be expensive, so some sources do not support
	// them (paper, Section 2).
	Wildcards bool
	// MultiPattern: more than one pattern conjunct in a query tail (a
	// source-local join).
	MultiPattern bool
}

// FullCapabilities supports every query feature.
func FullCapabilities() Capabilities {
	return Capabilities{ValueConditions: true, RestConstraints: true, Wildcards: true, MultiPattern: true}
}

// Source is a queryable wrapper or mediator.
type Source interface {
	// Name is the identifier used after "@" in MSL rules.
	Name() string
	// Capabilities advertises the supported query features.
	Capabilities() Capabilities
	// Query answers a single-source MSL query, materializing its head.
	// Unsupported queries fail with an *UnsupportedError.
	Query(q *msl.Rule) ([]*oem.Object, error)
}

// Counter is an optional Source extension: sources that can cheaply
// report how many top-level objects carry a given label implement it, and
// the cost-based optimizer uses the counts as cold-start cardinality
// estimates — the "sampling" alternative the paper offers for sources
// without statistics (Section 3.5).
type Counter interface {
	// CountLabel returns the number of top-level objects labelled label,
	// and ok=false when the source cannot answer cheaply.
	CountLabel(label string) (n int, ok bool)
}

// LocalScanner is an optional Source extension for an in-process source
// whose objects are already OEM: for a query LocalConjunct accepts, it
// makes Query's checks (the context, then CheckCapabilities) and returns,
// in extent order, the candidates Query would match the pattern over.
// The engine's extraction is then the only matcher. Decorators (caches,
// remote clients, Limited, composites) hide it and keep answering MSL.
type LocalScanner interface {
	Candidates(ctx context.Context, q *msl.Rule) ([]*oem.Object, error)
}

// LocalConjunct returns the pattern conjunct of q when q is a query
// _O :- _O:<pattern>@src, one positive conjunct whose object variable is
// the whole head, and nil otherwise.
func LocalConjunct(q *msl.Rule) *msl.PatternConjunct {
	if len(q.Tail) != 1 || len(q.Head) != 1 {
		return nil
	}
	pc, ok := q.Tail[0].(*msl.PatternConjunct)
	if v, isVar := q.Head[0].(*msl.Var); !ok || !isVar || pc.Negated || pc.ObjVar == nil || v.Name != pc.ObjVar.Name {
		return nil
	}
	return pc
}

// CheckLocal makes a LocalScanner's checks and returns the conjunct to
// supply candidates for.
func CheckLocal(ctx context.Context, q *msl.Rule, caps Capabilities, name string) (*msl.PatternConjunct, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := CheckCapabilities(q, caps, name); err != nil {
		return nil, err
	}
	if pc := LocalConjunct(q); pc != nil {
		return pc, nil
	}
	return nil, fmt.Errorf("wrapper: %s: no candidates for %s: want a query O :- O:<pattern>", name, q)
}

// UnsupportedError reports a query feature the source cannot evaluate.
type UnsupportedError struct {
	Source  string
	Feature string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("wrapper: source %q does not support %s", e.Source, e.Feature)
}

// CheckCapabilities verifies that a query uses only features in c,
// returning an *UnsupportedError (with srcName) on the first violation.
func CheckCapabilities(q *msl.Rule, c Capabilities, srcName string) error {
	patterns := 0
	for _, conj := range q.Tail {
		pc, ok := conj.(*msl.PatternConjunct)
		if !ok {
			return &UnsupportedError{Source: srcName, Feature: "external predicates"}
		}
		patterns++
		if err := checkPattern(pc.Pattern, c, srcName); err != nil {
			return err
		}
	}
	if patterns > 1 && !c.MultiPattern {
		return &UnsupportedError{Source: srcName, Feature: "multi-pattern queries"}
	}
	return nil
}

func checkPattern(p *msl.ObjectPattern, c Capabilities, srcName string) error {
	if p.Wildcard && !c.Wildcards {
		return &UnsupportedError{Source: srcName, Feature: "wildcard patterns"}
	}
	if !c.ValueConditions {
		if _, isConst := p.Value.(*msl.Const); isConst {
			return &UnsupportedError{Source: srcName, Feature: "value conditions"}
		}
		if _, isConst := p.OID.(*msl.Const); isConst {
			return &UnsupportedError{Source: srcName, Feature: "oid conditions"}
		}
	}
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return nil
	}
	if len(sp.RestConstraints) > 0 && !c.RestConstraints {
		return &UnsupportedError{Source: srcName, Feature: "rest-variable constraints"}
	}
	for _, e := range sp.Elems {
		if ep, isPat := e.(*msl.ObjectPattern); isPat {
			if err := checkPattern(ep, c, srcName); err != nil {
				return err
			}
		}
	}
	for _, rc := range sp.RestConstraints {
		if err := checkPattern(rc, c, srcName); err != nil {
			return err
		}
	}
	return nil
}

// Eval answers an MSL query over the given top-level objects: every tail
// pattern is matched (joining bindings on shared variables), bindings are
// projected onto the head variables with duplicates eliminated, and one
// set of head objects is built per surviving binding. This is the shared
// evaluation core for wrappers whose native data has been exported as OEM.
// Predicate conjuncts are not evaluated at sources and fail.
func Eval(q *msl.Rule, tops []*oem.Object, gen *oem.IDGen) ([]*oem.Object, error) {
	return EvalWith(q, func(*msl.PatternConjunct) ([]*oem.Object, error) { return tops, nil }, gen)
}

// EvalWith is Eval with a per-conjunct candidate supplier, for wrappers
// that can narrow the top-level objects relevant to a pattern (e.g. a
// relational wrapper selecting rows by index before conversion to OEM).
// The supplied candidates are still fully matched, so over-supplying is
// safe; under-supplying loses answers.
func EvalWith(q *msl.Rule, topsFor func(*msl.PatternConjunct) ([]*oem.Object, error), gen *oem.IDGen) ([]*oem.Object, error) {
	envs := []match.Env{nil}
	// Positive conjuncts first, then negated ones (safe, stratified
	// negation: negated conjuncts filter, binding nothing).
	ordered := make([]*msl.PatternConjunct, 0, len(q.Tail))
	for _, conj := range q.Tail {
		pc, ok := conj.(*msl.PatternConjunct)
		if !ok {
			return nil, fmt.Errorf("wrapper: cannot evaluate non-pattern conjunct %s at a source", conj)
		}
		if !pc.Negated {
			ordered = append(ordered, pc)
		}
	}
	for _, conj := range q.Tail {
		if pc, ok := conj.(*msl.PatternConjunct); ok && pc.Negated {
			ordered = append(ordered, pc)
		}
	}
	for _, pc := range ordered {
		tops, err := topsFor(pc)
		if err != nil {
			return nil, err
		}
		var next []match.Env
		for _, env := range envs {
			got, err := match.Tops(pc.Pattern, pc.ObjVar, tops, env)
			if err != nil {
				return nil, err
			}
			if pc.Negated {
				if len(got) == 0 {
					next = append(next, env)
				}
				continue
			}
			next = append(next, got...)
		}
		if len(next) == 0 {
			return nil, nil
		}
		envs = next
	}
	envs = match.DedupEnvs(envs, q.HeadVars())
	var out []*oem.Object
	for _, env := range envs {
		objs, err := build.Head(q.Head, env, gen)
		if err != nil {
			return nil, err
		}
		out = append(out, objs...)
	}
	return out, nil
}

// Registry resolves source names to Sources; one registry backs each
// mediator. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]Source)}
}

// Add registers sources under their own names; re-registering a name
// replaces the previous source.
func (r *Registry) Add(sources ...Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range sources {
		r.sources[s.Name()] = s
	}
}

// Lookup returns the source with the given name.
func (r *Registry) Lookup(name string) (Source, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sources[name]
	return s, ok
}

// Names returns the registered source names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sources))
	for n := range r.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Limited wraps a source with reduced capabilities: queries that use a
// feature outside caps are rejected even if the inner source could answer
// them. It models the autonomous, capability-poor sources of Section 3.5
// and is used by the capability benchmarks.
type Limited struct {
	Inner Source
	Caps  Capabilities
}

// Name implements Source.
func (l *Limited) Name() string { return l.Inner.Name() }

// Capabilities implements Source.
func (l *Limited) Capabilities() Capabilities { return l.Caps }

// Query implements Source, enforcing the reduced capabilities.
func (l *Limited) Query(q *msl.Rule) ([]*oem.Object, error) {
	if err := CheckCapabilities(q, l.Caps, l.Name()); err != nil {
		return nil, err
	}
	return l.Inner.Query(q)
}

// QueryContext implements ContextSource, enforcing the reduced
// capabilities and forwarding the context to the inner source.
func (l *Limited) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if err := CheckCapabilities(q, l.Caps, l.Name()); err != nil {
		return nil, err
	}
	return QueryContext(ctx, l.Inner, q)
}

// QueryBatch implements BatchQuerier (see QueryBatchContext).
func (l *Limited) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return l.QueryBatchContext(context.Background(), qs)
}

// QueryBatchContext implements ContextBatchQuerier, so a batching inner
// source keeps batching behind Limited: every query's capabilities are
// checked, the first query that fails them rejects the batch as a
// *QueryError with its index, and a batch that passes is forwarded to
// the inner source as one.
func (l *Limited) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	for i, q := range qs {
		if err := CheckCapabilities(q, l.Caps, l.Name()); err != nil {
			return nil, &QueryError{Source: l.Name(), Index: i, Err: err}
		}
	}
	return QueryBatchContext(ctx, l.Inner, qs)
}

// CountLabel implements Counter by forwarding to the inner source when it
// supports counting.
func (l *Limited) CountLabel(label string) (int, bool) {
	if c, ok := l.Inner.(Counter); ok {
		return c.CountLabel(label)
	}
	return 0, false
}
