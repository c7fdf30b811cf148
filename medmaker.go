// Package medmaker is a Go implementation of MedMaker, the TSIMMIS
// mediation system of Papakonstantinou, Garcia-Molina, and Ullman (ICDE
// 1996): declaratively-specified mediators that provide integrated views
// over heterogeneous information sources.
//
// Sources export data in the Object Exchange Model (OEM) through wrappers;
// a mediator is specified in the Mediator Specification Language (MSL) as
// a set of rules defining virtual integrated objects; and queries — also
// MSL — are answered by the Mediator Specification Interpreter (MSI):
// view expansion and algebraic optimization, cost-based planning into a
// physical datamerge graph, and execution by the datamerge engine.
//
// A minimal mediator over one source:
//
//	src, _ := medmaker.NewOEMSourceFromText("people", `
//	    <person, set, {<name, 'Ann'>, <dept, 'CS'>}>`)
//	med, _ := medmaker.New(medmaker.Config{
//	    Name:    "med",
//	    Spec:    `<staff {<name N>}> :- <person {<name N> <dept 'CS'>}>@people.`,
//	    Sources: []medmaker.Source{src},
//	})
//	objs, _ := med.QueryString(`X :- X:<staff {<name N>}>@med.`)
//
// Mediators implement the Source interface themselves, so views can be
// layered: a mediator integrates wrappers and other mediators alike, as in
// the TSIMMIS architecture of the paper's Figure 1.1.
package medmaker

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"medmaker/internal/engine"
	"medmaker/internal/extfn"
	"medmaker/internal/lorel"
	"medmaker/internal/matview"
	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/plan"
	"medmaker/internal/trace"
	"medmaker/internal/veao"
	"medmaker/internal/wrapper"
)

// Re-exported core types. The aliases make the internal implementations
// part of the public API without duplication.
type (
	// Object is an OEM object <oid, label, type, value>.
	Object = oem.Object
	// OID is an OEM object identifier.
	OID = oem.OID
	// Value is an OEM value: an atomic value or a set of subobjects.
	Value = oem.Value
	// Rule is a parsed MSL rule (specification rule or query).
	Rule = msl.Rule
	// SpecProgram is a parsed MSL text: rules plus external declarations.
	SpecProgram = msl.Program
	// Source is anything a mediator can query: a wrapper or another
	// mediator.
	Source = wrapper.Source
	// Capabilities advertises the query features a source supports.
	Capabilities = wrapper.Capabilities
	// Func is an external function implementation (see the MSL "by"
	// declarations).
	Func = extfn.Func
	// PlanOptions control the cost-based optimizer.
	PlanOptions = plan.Options
	// OrderMode selects the optimizer's join-order strategy.
	OrderMode = plan.OrderMode
	// ExpandOptions control view expansion.
	ExpandOptions = veao.Options
	// Stats is the optimizer's statistics store, learned from past
	// queries.
	Stats = engine.Stats
	// CacheOptions configure the per-source answer cache (Config.Cache).
	CacheOptions = wrapper.CacheOptions
	// CacheStats is a snapshot of one source cache's counters.
	CacheStats = wrapper.CacheStats
	// PlanCacheOptions configure the compiled-plan cache (Config.PlanCache).
	PlanCacheOptions = plan.CacheOptions
	// PlanCacheStats is a snapshot of the plan cache's counters.
	PlanCacheStats = plan.CacheStats
	// BatchQuerier is the optional Source extension for answering several
	// queries in one exchange; batch-capable sources make the engine's
	// parameterized-query batching collapse round-trips.
	BatchQuerier = wrapper.BatchQuerier
	// ContextSource is the optional Source extension for queries bounded
	// by a context.Context: cancellation and deadlines propagate into the
	// source instead of merely abandoning its answer. All bundled sources
	// (including mediators themselves) implement it.
	ContextSource = wrapper.ContextSource
	// ContextBatchQuerier combines ContextSource and BatchQuerier: a whole
	// batch in one exchange, bounded by a context.
	ContextBatchQuerier = wrapper.ContextBatchQuerier
	// ExecPolicy bounds and degrades per-source work during execution: a
	// per-exchange timeout and the reaction to source failures. The zero
	// value is the paper's all-or-nothing behavior.
	ExecPolicy = engine.Policy
	// ErrorMode selects an ExecPolicy's reaction to a failing source.
	ErrorMode = engine.ErrorMode
	// SourceError is one recorded source failure in a degraded answer.
	SourceError = engine.SourceError
	// QueryResult is a query answer together with its degradation record:
	// the objects, whether any source's contribution is missing, and the
	// per-source failures behind it.
	QueryResult = engine.Result
	// QueryTrace is the structured execution record of one query: phase
	// timings (parse, expand, plan, execute), per-operator row counts and
	// wall time, and per-source exchange latency. Produced by QueryTraced
	// and ExplainAnalyze.
	QueryTrace = trace.QueryTrace
	// TraceSummary is a QueryTrace snapshot: plain data, JSON-friendly.
	TraceSummary = trace.Summary
	// MetricsRegistry is a process-wide registry of named counters and
	// latency histograms. The engine reports every source exchange into
	// DefaultMetrics(), and remote servers expose their registry for
	// scraping (see the remote package's Client.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's values.
	MetricsSnapshot = metrics.Snapshot
	// MatViewOptions configure the materialized-view manager
	// (Config.Materialize): which view heads to materialize and the
	// freshness policy.
	MatViewOptions = matview.Options
	// MatView selects one view head for materialization, with an
	// optional narrowing pattern and a TTL.
	MatView = matview.View
	// MatViewStats is a snapshot of the materialized-view manager's
	// counters: hits, misses, staleness fallbacks, refreshes.
	MatViewStats = matview.Stats
)

// DefaultMetrics returns the process-wide metrics registry.
func DefaultMetrics() *MetricsRegistry { return metrics.Default() }

// ExecPolicy.OnSourceError values.
const (
	// OnSourceErrorFail aborts the query on the first source failure (the
	// default).
	OnSourceErrorFail = engine.OnErrorFail
	// OnSourceErrorSkip drops a failing source for the rest of the query
	// and flags the answer Incomplete.
	OnSourceErrorSkip = engine.OnErrorSkip
	// OnSourceErrorPartial drops only the failing exchange, retrying the
	// source on later exchanges, and flags the answer Incomplete.
	OnSourceErrorPartial = engine.OnErrorPartial
)

// DefaultQueryBatch is the parameterized-query batch size used when
// Config.QueryBatch is zero.
const DefaultQueryBatch = 16

// Join-order strategies for PlanOptions.Order.
const (
	// OrderHeuristic places the patterns with the most conditions
	// outermost (the paper's heuristic).
	OrderHeuristic = plan.OrderHeuristic
	// OrderStats orders by estimated result sizes learned from past
	// queries.
	OrderStats = plan.OrderStats
	// OrderAsWritten keeps the rule's textual order.
	OrderAsWritten = plan.OrderAsWritten
	// OrderReversed inverts the heuristic (worst-case baseline).
	OrderReversed = plan.OrderReversed
	// OrderAdaptive orders by the bind-join cost model over execution
	// feedback: condition-aware cardinalities, learned join
	// selectivities, and observed source latencies. Falls back to the
	// heuristic until the store has observations.
	OrderAdaptive = plan.OrderAdaptive
)

// DefaultPlanOptions returns the optimizer defaults: heuristic order,
// condition pushdown, parameterized queries, duplicate elimination.
func DefaultPlanOptions() PlanOptions { return plan.DefaultOptions() }

// ParseOEM parses objects in the textual OEM format.
func ParseOEM(text string) ([]*Object, error) { return oem.Parse(text) }

// FormatOEM renders objects in the flat textual OEM format of the paper's
// figures.
func FormatOEM(objs ...*Object) string { return oem.Format(objs...) }

// ParseQuery parses an MSL query (a single rule).
func ParseQuery(text string) (*Rule, error) { return msl.ParseQuery(text) }

// TranslateLorel translates a LOREL-style end-user query (footnote 4 of
// the paper: "select … from … where …") into the equivalent MSL rule.
func TranslateLorel(text string) (*Rule, error) { return lorel.Translate(text) }

// ParseSpec parses an MSL mediator specification.
func ParseSpec(text string) (*SpecProgram, error) { return msl.ParseProgram(text) }

// Config describes a mediator to New.
type Config struct {
	// Name is the mediator's source name (what queries write after "@").
	Name string
	// Spec is the MSL specification text; SpecProgram takes precedence
	// when non-nil.
	Spec string
	// SpecProgram is a pre-parsed specification.
	SpecProgram *SpecProgram
	// Sources are the wrappers and mediators the specification's rules
	// refer to.
	Sources []Source
	// Functions registers external functions by name, in addition to the
	// standard library (name_to_lnfn, lnfn_to_name, normalize_author, …).
	Functions map[string]Func
	// Plan overrides the optimizer options; zero value means defaults
	// (heuristic order, pushdown, parameterized queries, dup-elim).
	Plan *PlanOptions
	// Expand overrides view-expansion options.
	Expand ExpandOptions
	// Trace, when set, receives Figure 3.6's flow for every query: each
	// operator of the physical graph and the binding table leaving it,
	// rendered from the query's QueryTrace and written in one piece when
	// the query ends, even on error. It does not force sequential
	// execution. Materialized-view builds and deltas belong to no query
	// and print nothing.
	Trace io.Writer
	// Parallelism is the engine's worker count: independent subtrees
	// evaluate concurrently, parameterized-query tuples fan across that
	// many workers, and local operators (extraction, joins, dedup,
	// external predicates) split their inputs into morsels executed on a
	// pool of that size. Sources must tolerate concurrent queries (all
	// bundled wrappers do) and external functions must be pure. Results
	// are identical to sequential execution, including order. 0 (the
	// default) means runtime.GOMAXPROCS(0); use 1 (or any value below 1)
	// for strictly sequential execution.
	Parallelism int
	// QueryBatch bounds how many deduplicated parameterized queries the
	// engine sends to a source per exchange: a query node's input tuples
	// are deduplicated, and the distinct instantiated queries ship in
	// groups of up to QueryBatch (one per exchange for sources without
	// BatchQuerier support). 0 means DefaultQueryBatch; 1 restores the
	// paper's one-query-per-tuple behavior.
	QueryBatch int
	// Pipeline is kept so that existing configurations still compile.
	//
	// Deprecated: ignored; the engine has one executor.
	Pipeline bool
	// Cache, when non-nil, puts an LRU answer cache in front of every
	// source, keyed by normalized query text, with the given size and TTL.
	// Hit rates feed the optimizer's cost model through the statistics
	// store. Use Mediator.InvalidateCaches when a source changes.
	Cache *CacheOptions
	// PlanCache, when non-nil, caches compiled query plans (the expanded
	// program plus the physical datamerge graph) in a bounded LRU keyed by
	// the query's canonical text: variables alpha-renamed and conjunct
	// order canonicalized, so the repeated query templates a serving tier
	// sees compile once and then skip parse→expand→plan entirely.
	// Compilation is singleflighted — N cold clients asking the same query
	// cost one compile — and cached plans are dropped when AddSource
	// replaces a source or Invalidate names a dependency. Off (nil) by
	// default: replanning every call lets the optimizer react to freshly
	// learned statistics, which some workloads (and benchmarks) rely on.
	PlanCache *PlanCacheOptions
	// Materialize, when non-nil, enables the materialized-view manager:
	// the listed view heads are materialized into local extents (built by
	// running the live pipeline once, on first demand or via Refresh), and
	// queries whose mediator conjuncts are contained in a fresh extent are
	// served from it with zero source exchanges. Everything else — no
	// covering view, TTL expiry, invalidation, a failed build — falls back
	// to live expansion transparently. See Mediator.Refresh and
	// Mediator.Invalidate for freshness control.
	Materialize *MatViewOptions
	// Policy is the default execution policy for every query: a per-source
	// exchange timeout and the failure reaction (fail the query, skip the
	// source, or skip the exchange). QueryPolicy overrides it per call.
	// The zero value reproduces the paper's all-or-nothing behavior.
	Policy ExecPolicy
}

// Mediator is a declaratively-specified integrated view over a set of
// sources. It is safe for concurrent queries, and is itself a Source.
type Mediator struct {
	name     string
	spec     *msl.Program
	sources  *wrapper.Registry
	extfns   *extfn.Table
	expander *veao.Expander
	planOpts plan.Options
	stats    *engine.Stats
	gen      *oem.IDGen
	trace    io.Writer
	parallel int
	batch    int
	policy   ExecPolicy
	cacheCfg *wrapper.CacheOptions
	cacheMu  sync.Mutex
	caches   []*wrapper.Cache
	plans    *plan.Cache
	replanWG sync.WaitGroup // in-flight background plan revalidations
	matviews *matview.Manager
	// fused marks specifications whose heads carry skolem object-ids:
	// queries then evaluate against the materialized, fused view (see
	// Query), because a condition may only hold on the fusion of
	// fragments produced by different rules.
	fused bool

	// notifyMu guards listeners, the callbacks registered through
	// OnInvalidate by consumers holding state derived from this mediator
	// (a tier-1 mediator this one is registered in as a source).
	notifyMu  sync.Mutex
	listeners []func()

	traceMu sync.Mutex // serializes writes of whole flow blocks to trace
}

var (
	_ Source                       = (*Mediator)(nil)
	_ ContextSource                = (*Mediator)(nil)
	_ BatchQuerier                 = (*Mediator)(nil)
	_ ContextBatchQuerier          = (*Mediator)(nil)
	_ wrapper.InvalidationNotifier = (*Mediator)(nil)
)

// New builds a mediator from its specification, resolving external
// declarations against the standard library plus cfg.Functions.
func New(cfg Config) (*Mediator, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("medmaker: mediator needs a name")
	}
	spec := cfg.SpecProgram
	if spec == nil {
		parsed, err := msl.ParseProgram(cfg.Spec)
		if err != nil {
			return nil, err
		}
		spec = parsed
	}
	if len(spec.Rules) == 0 {
		return nil, fmt.Errorf("medmaker: specification of %q has no rules", cfg.Name)
	}
	reg := extfn.NewRegistry()
	for name, fn := range cfg.Functions {
		reg.Register(name, fn)
	}
	table, err := extfn.NewTable(reg, spec.Decls)
	if err != nil {
		return nil, err
	}
	par := cfg.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	opts := plan.DefaultOptions()
	if cfg.Plan != nil {
		opts = *cfg.Plan
	}
	if opts.Parallelism == 0 {
		// Let the optimizer's local-cost model see the executor it plans
		// for (explicit PlanOptions may still pin a different degree).
		opts.Parallelism = par
	}
	batch := cfg.QueryBatch
	if batch == 0 {
		batch = DefaultQueryBatch
	}
	m := &Mediator{
		name:     cfg.Name,
		spec:     spec,
		sources:  wrapper.NewRegistry(),
		extfns:   table,
		expander: veao.NewExpander(spec, cfg.Name, cfg.Expand),
		planOpts: opts,
		stats:    engine.NewStats(),
		gen:      oem.NewIDGen(cfg.Name),
		trace:    cfg.Trace,
		parallel: par,
		batch:    batch,
		policy:   cfg.Policy,
		fused:    specHasSkolems(spec),
	}
	if cfg.Cache != nil {
		cacheCfg := *cfg.Cache
		m.cacheCfg = &cacheCfg
	}
	if cfg.PlanCache != nil {
		// Before the AddSource loop: AddSource invalidates plans by name.
		m.plans = plan.NewCache(*cfg.PlanCache)
	}
	for _, src := range cfg.Sources {
		m.AddSource(src)
	}
	if err := validateSpec(cfg.Name, spec, table, m.sources); err != nil {
		return nil, err
	}
	if cfg.Materialize != nil {
		mgr, err := matview.NewManager(cfg.Name, spec, *cfg.Materialize, m.buildView)
		if err != nil {
			return nil, err
		}
		mgr.SetDeltaFunc(m.buildViewDelta)
		m.matviews = mgr
	}
	return m, nil
}

// buildView materializes one view extent for the matview manager by
// answering its fetch query through the live pipeline (untraced: the
// build's exchanges belong to no particular query).
func (m *Mediator) buildView(ctx context.Context, fetch *Rule) ([]*Object, bool, error) {
	res, err := m.queryLive(ctx, fetch, m.policy, nil)
	if err != nil {
		return nil, false, err
	}
	return res.Objects, res.Incomplete, nil
}

// buildViewDelta evaluates the incremental effect of an insert into
// source on one materialized view — the delta rule of semi-naive
// evaluation. The view's fetch query is expanded as usual; rules not
// reading source are dropped (the insert cannot change their answers);
// the surviving rules are planned and executed with source replaced by a
// facade holding only the inserted objects, every other source live. The
// sources have already been mutated, so "new data ⋈ old data" and "new
// data ⋈ new data" derivations both surface, and the result is exactly
// the set of view objects the insert adds (up to structural duplicates,
// which the matview manager filters against the extent).
//
// ok=false reports a specification shape the delta rule is not sound
// for, making the manager fall back to a full rebuild: fused (skolem)
// specs, rules that survive expansion with mediator self-references,
// negated conjuncts (non-monotone: an insert can retract answers), and
// rules reading source more than once (one facade substitution would
// miss new⋈old combinations on the other occurrence).
func (m *Mediator) buildViewDelta(ctx context.Context, fetch *Rule, source string, inserted []*Object) ([]*Object, bool, bool, error) {
	if m.fused {
		return nil, false, false, nil
	}
	logical, err := m.ExpandContext(ctx, fetch)
	if err != nil {
		return nil, false, false, err
	}
	var delta []*msl.Rule
	for _, r := range logical.Rules {
		reads := 0
		for _, c := range r.Tail {
			pc, ok := c.(*msl.PatternConjunct)
			if !ok {
				continue
			}
			if pc.Source == "" || pc.Source == m.name {
				return nil, false, false, nil // unexpanded self-reference
			}
			if pc.Negated {
				return nil, false, false, nil // non-monotone
			}
			if pc.Source == source {
				reads++
			}
		}
		if reads > 1 {
			return nil, false, false, nil // source self-join
		}
		if reads == 1 {
			delta = append(delta, r)
		}
	}
	if len(delta) == 0 {
		// No rule reads the mutated source: the insert cannot add view
		// objects, and an empty delta is the correct answer.
		return nil, false, true, nil
	}
	facade, err := oemstore.FromObjects(source, inserted...)
	if err != nil {
		return nil, false, false, err
	}
	reg := wrapper.NewRegistry()
	for _, name := range m.sources.Names() {
		if name == source {
			continue
		}
		if s, ok := m.sources.Lookup(name); ok {
			reg.Add(s)
		}
	}
	reg.Add(facade)
	planner := plan.New(reg, m.extfns, m.stats, m.planOpts)
	p, err := planner.BuildContext(ctx, &veao.Program{Rules: delta, Decls: m.spec.Decls})
	if err != nil {
		return nil, false, false, err
	}
	res, err := m.execute(ctx, reg, p.Root, m.policy, nil)
	if err != nil {
		return nil, false, false, err
	}
	return res.Objects, res.Incomplete, true, nil
}

// applyDelta reacts to one source mutation reported through a change
// feed: the mutated source's answer-cache entries are dropped (counted
// under cache.invalidated), the materialized views depending on it are
// delta-maintained (or marked stale when only a rebuild is sound), and
// this mediator's own invalidation listeners fire so consumers of a
// higher tier conservatively drop their derived state. Cached plans are
// untouched: plans resolve sources by name at execution time and are
// data-independent.
func (m *Mediator) applyDelta(d wrapper.Delta) {
	dropped := 0
	m.cacheMu.Lock()
	for _, c := range m.caches {
		dropped += c.Invalidate(d.Source)
	}
	m.cacheMu.Unlock()
	metrics.Default().Counter("cache.invalidated").Add(int64(dropped))
	if m.matviews != nil {
		m.matviews.ApplyDelta(context.Background(), d.Source, d.Inserted, d.Deleted)
	}
	m.notifyListeners()
}

// validateSpec rejects specifications with statically-detectable faults:
// unsafe rules (head variables never bound in the tail), undeclared
// predicates, and references to sources that are neither registered nor
// the mediator itself.
func validateSpec(name string, spec *msl.Program, table *extfn.Table, sources *wrapper.Registry) error {
	for ri, r := range spec.Rules {
		tailVars := map[string]bool{}
		for _, c := range r.Tail {
			// Negated conjuncts bind nothing, so they cannot make a head
			// variable safe.
			if pc, ok := c.(*msl.PatternConjunct); ok && pc.Negated {
				continue
			}
			tmp := &msl.Rule{Tail: []msl.Conjunct{c}}
			for _, v := range tmp.Vars() {
				tailVars[v] = true
			}
		}
		for _, hv := range r.HeadVars() {
			if !tailVars[hv] {
				return fmt.Errorf("medmaker: %s: rule %d is unsafe: head variable %s never appears in the tail",
					name, ri+1, hv)
			}
		}
		for _, c := range r.Tail {
			switch t := c.(type) {
			case *msl.PredicateConjunct:
				if !table.Knows(t.Name) {
					return fmt.Errorf("medmaker: %s: rule %d uses undeclared predicate %q",
						name, ri+1, t.Name)
				}
			case *msl.PatternConjunct:
				if t.Source == "" || t.Source == name {
					continue // a reference to this mediator's own view
				}
				if _, ok := sources.Lookup(t.Source); !ok {
					return fmt.Errorf("medmaker: %s: rule %d references unknown source %q (registered: %v)",
						name, ri+1, t.Source, sources.Names())
				}
			}
		}
	}
	return nil
}

// Name implements Source.
func (m *Mediator) Name() string { return m.name }

// Capabilities implements Source. Mediators evaluate conditions and rest
// constraints by pushing them through view expansion; wildcard searches
// over virtual objects are not supported (query the sources directly).
func (m *Mediator) Capabilities() Capabilities {
	return Capabilities{ValueConditions: true, RestConstraints: true, Wildcards: false, MultiPattern: true}
}

// Query answers an MSL query rule; it implements Source, which is what
// lets mediators serve as sources of other mediators. The returned
// objects are materialized results with mediator-issued object-ids.
//
// For specifications using semantic object-ids, queries are answered
// against the materialized fused view: a condition may only hold on the
// fusion of fragments derived by different rules (e.g. office from one
// source and salary from another under one person(N)), so per-rule
// expansion would silently miss answers. Non-fusion specifications use
// ordinary view expansion.
func (m *Mediator) Query(q *Rule) ([]*Object, error) {
	return m.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by ctx; it implements ContextSource.
// Cancellation or an expired deadline aborts the whole answer path —
// view expansion, planning, and execution, including in-flight source
// exchanges — and surfaces as ctx.Err(). Every goroutine the engine
// started has exited by the time QueryContext returns.
func (m *Mediator) QueryContext(ctx context.Context, q *Rule) ([]*Object, error) {
	res, err := m.QueryPolicy(ctx, q, m.policy)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// QueryPolicy is QueryContext under an explicit execution policy,
// returning the full QueryResult: the objects plus the degradation
// record. With a skipping policy a failed source no longer aborts the
// query; the healthy sources' contributions come back with
// QueryResult.Incomplete set and the failures listed, so callers can
// distinguish a full answer from a lower bound.
func (m *Mediator) QueryPolicy(ctx context.Context, q *Rule, policy ExecPolicy) (*QueryResult, error) {
	return m.queryTraced(ctx, q, policy, nil)
}

// QueryTraced answers q like QueryContext while recording a structured
// execution trace: phase timings, per-operator actual-vs-estimated
// cardinalities, source exchanges, and cache traffic. The trace is
// complete (ended) when QueryTraced returns, including on error — render
// it with QueryTrace.Render or snapshot it with QueryTrace.Snapshot.
// Tracing does not force sequential execution; parallel workers merge
// their records race-free.
func (m *Mediator) QueryTraced(ctx context.Context, q *Rule) (*QueryResult, *QueryTrace, error) {
	qt := trace.New(q.String())
	res, err := m.queryTraced(ctx, q, m.policy, qt)
	qt.End()
	return res, qt, err
}

// queryTraced is the single answer path behind QueryPolicy and
// QueryTraced; qt may be nil (every trace hook is a no-op then), unless
// Config.Trace is set, which records every query and writes its flow
// when the query ends. With materialization enabled it first offers the
// query to the matview manager; anything it declines — no covering view,
// staleness, a build failure — runs live.
func (m *Mediator) queryTraced(ctx context.Context, q *Rule, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	if m.trace != nil {
		if qt == nil {
			qt = trace.New(q.String())
		}
		defer m.writeFlow(qt)
	}
	ctx = trace.NewContext(ctx, qt)
	if m.matviews != nil {
		res, served, err := m.queryMatView(ctx, q, policy, qt)
		if err != nil {
			return nil, err
		}
		if served {
			return res, nil
		}
	}
	return m.queryLive(ctx, q, policy, qt)
}

// queryLive answers q through the ordinary pipeline: expansion against
// the specification, planning, execution over the real sources.
func (m *Mediator) queryLive(ctx context.Context, q *Rule, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	ctx = trace.NewContext(ctx, qt)
	if m.fused || m.needsMaterializedView(q) {
		return m.queryFusedView(ctx, policy, q, qt)
	}
	physical, err := m.planForQuery(ctx, q, qt)
	if err != nil {
		return nil, err
	}
	qt.Phase(trace.PhaseExecute)
	return m.execute(ctx, m.sources, physical.Root, policy, qt)
}

// planForQuery produces the physical plan for q, through the plan cache
// when Config.PlanCache is set. Cached plans are immutable operator
// descriptions (all run state lives in the engine's per-run state) and
// resolve their sources by name at execution time, so one plan serves any
// number of concurrent queries and survives AddSource data refreshes that
// keep the name and capabilities. A hit is annotated "cached-plan" on the
// trace, with the expand phase open but empty and no plan phase at all —
// the compile cost a warm trace shows is ≈ 0.
//
// A hit also runs the drift check: when the statistics learned since the
// plan was compiled diverge from the estimates baked into it, the entry
// is replanned in the background (singleflighted per key) while the
// current plan keeps serving — so a serving tier's cached plans follow
// the statistics instead of freezing the first order ever picked.
func (m *Mediator) planForQuery(ctx context.Context, q *Rule, qt *trace.QueryTrace) (*plan.Plan, error) {
	if m.plans == nil {
		physical, _, err := m.planPhased(ctx, q, qt)
		return physical, err
	}
	qt.Phase(trace.PhaseExpand)
	key := plan.CacheKey(q)
	compiled, hit, err := m.plans.GetOrCompile(ctx, key, func(ctx context.Context) (*plan.Compiled, error) {
		// Inlined compilePlan: the expand phase is already open above, and
		// reopening it here would split the trace's phase partition.
		return m.compilePlan(ctx, q, qt)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		qt.Annotate("cached-plan", 1)
		m.maybeReplan(key, q, compiled, qt)
	}
	return compiled.Plan, nil
}

// compilePlan runs expansion and planning for q and packages the result
// for the plan cache, recording the statistics generation the plan was
// built under. qt may be nil; when set, the caller has opened the expand
// phase already. The generation is read before compilation, so statistics
// arriving mid-compile register as drift on the next hit rather than
// being missed.
func (m *Mediator) compilePlan(ctx context.Context, q *Rule, qt *trace.QueryTrace) (*plan.Compiled, error) {
	gen := m.stats.Generation()
	logical, err := m.ExpandContext(ctx, q)
	if err != nil {
		return nil, err
	}
	qt.Phase(trace.PhasePlan)
	planner := plan.New(m.sources, m.extfns, m.stats, m.planOpts)
	physical, err := planner.BuildContext(ctx, logical)
	if err != nil {
		return nil, err
	}
	deps, all := m.planDeps(q, logical)
	return &plan.Compiled{Plan: physical, Program: logical, Deps: deps, DependsOnAll: all, StatsGen: gen}, nil
}

// maybeReplan revalidates a hit plan against the current statistics: if
// the store drifted past plan.DriftRatio and no refresh of this key is
// already running, the query is recompiled in the background and the
// cache entry replaced on success. The hit keeps serving the old plan —
// a drifted plan is correct, just possibly slow — so the foreground
// query never waits. The trace notes the trigger as "plan.drift".
func (m *Mediator) maybeReplan(key string, q *Rule, compiled *plan.Compiled, qt *trace.QueryTrace) {
	if !plan.Drifted(compiled, m.stats, 0) {
		return
	}
	if !m.plans.BeginRefresh(key) {
		return
	}
	qt.Annotate("plan.drift", 1)
	q = q.Clone() // the caller's rule must not escape into the goroutine
	m.replanWG.Add(1)
	go func() {
		defer m.replanWG.Done()
		fresh, err := m.compilePlan(context.Background(), q, nil)
		if err != nil {
			fresh = nil // clear the claim; a later drift check retries
		}
		m.plans.CompleteRefresh(key, fresh)
	}()
}

// WaitReplans blocks until every background plan revalidation started by
// the drift check has finished — deterministic shutdown and tests. A
// no-op without Config.PlanCache.
func (m *Mediator) WaitReplans() { m.replanWG.Wait() }

// planDeps collects the names whose invalidation must drop q's cached
// plan: every source the expanded program reads, plus the view labels the
// original query asked this mediator for (so a matview-related Invalidate
// of a label also retires plans compiled for queries over it). A variable
// view label — or any mediator-directed conjunct surviving expansion —
// defeats static analysis and marks the plan dependent on everything.
func (m *Mediator) planDeps(q *Rule, logical *veao.Program) (deps []string, all bool) {
	seen := map[string]bool{}
	for _, r := range logical.Rules {
		for _, c := range r.Tail {
			pc, ok := c.(*msl.PatternConjunct)
			if !ok {
				continue
			}
			if pc.Source == "" || pc.Source == m.name {
				return nil, true
			}
			seen[pc.Source] = true
		}
	}
	for _, c := range q.Tail {
		pc, ok := c.(*msl.PatternConjunct)
		if !ok || (pc.Source != "" && pc.Source != m.name) {
			continue
		}
		label := pc.Pattern.LabelName()
		if label == "" {
			return nil, true
		}
		seen[label] = true
	}
	deps = make([]string, 0, len(seen))
	for n := range seen {
		deps = append(deps, n)
	}
	return deps, false
}

// queryMatView offers q to the materialized-view manager and, on a hit,
// answers it from the extents with zero source exchanges. served is
// false whenever the live path should run instead: no covering fresh
// extent, or any failure that isn't the caller's context ending —
// materialization is an optimization and must never make a query fail
// that live expansion could answer.
func (m *Mediator) queryMatView(ctx context.Context, q *Rule, policy ExecPolicy, qt *trace.QueryTrace) (res *QueryResult, served bool, err error) {
	qt.Phase(trace.PhaseExpand)
	sv, outcome, serr := m.matviews.Serve(ctx, q)
	if serr != nil {
		if ctx.Err() != nil {
			return nil, false, serr
		}
		qt.Annotate("matview.error", 1)
		return nil, false, nil
	}
	switch outcome {
	case matview.Miss:
		qt.Annotate("matview.miss", 1)
		return nil, false, nil
	case matview.Stale:
		qt.Annotate("matview.stale", 1)
		return nil, false, nil
	}
	qt.Annotate("matview.hit", 1)
	if sv.Built {
		qt.Annotate("matview.build", 1)
	}

	// Plan the rewritten query over a registry extended with the extent
	// facades, so the optimizer prices the extents like any other source.
	qt.Phase(trace.PhasePlan)
	reg := wrapper.NewRegistry()
	for _, name := range m.sources.Names() {
		if s, ok := m.sources.Lookup(name); ok {
			reg.Add(s)
		}
	}
	extents := make(map[string]engine.MatExtent, len(sv.Extents))
	for name, ext := range sv.Extents {
		reg.Add(ext.Source)
		extents[name] = engine.MatExtent{View: ext.View, Objs: ext.Objs}
	}
	planner := plan.New(reg, m.extfns, m.stats, m.planOpts)
	p, perr := planner.BuildContext(ctx, &veao.Program{Rules: []*msl.Rule{sv.Query}, Decls: m.spec.Decls})
	if perr != nil {
		if ctx.Err() != nil {
			return nil, false, perr
		}
		qt.Annotate("matview.error", 1)
		return nil, false, nil
	}

	// Swap the extent query nodes for in-memory scans: same semantics,
	// zero exchanges.
	root := engine.SubstituteMatScan(p.Root, extents)
	qt.Phase(trace.PhaseExecute)
	res, rerr := m.execute(ctx, reg, root, policy, qt)
	if rerr != nil {
		return nil, false, rerr
	}
	// An extent built from a degraded (skipping-policy) run is a lower
	// bound; answers served from it are too.
	res.Incomplete = res.Incomplete || sv.Incomplete
	return res, true, nil
}

// needsMaterializedView reports query forms that per-rule expansion
// cannot answer and the materialized-view strategy can:
//
//   - a negated condition on this mediator's own view (an object is
//     absent from the view only if *no* rule derives it);
//   - a predicate over a rest variable of a view condition (the rest of
//     a virtual object only exists at runtime, after construction).
func (m *Mediator) needsMaterializedView(q *Rule) bool {
	viewRests := map[string]bool{}
	for _, c := range q.Tail {
		pc, ok := c.(*msl.PatternConjunct)
		if !ok || (pc.Source != "" && pc.Source != m.name) {
			continue
		}
		if pc.Negated {
			return true
		}
		collectRestVars(pc.Pattern, viewRests)
	}
	if len(viewRests) == 0 {
		return false
	}
	for _, c := range q.Tail {
		if pr, ok := c.(*msl.PredicateConjunct); ok {
			for _, a := range pr.Args {
				if v, isVar := a.(*msl.Var); isVar && viewRests[v.Name] {
					return true
				}
			}
		}
	}
	return false
}

func collectRestVars(p *msl.ObjectPattern, out map[string]bool) {
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return
	}
	if sp.Rest != nil {
		out[sp.Rest.Name] = true
	}
	for _, e := range sp.Elems {
		if ep, isPat := e.(*msl.ObjectPattern); isPat {
			collectRestVars(ep, out)
		}
	}
	for _, rc := range sp.RestConstraints {
		collectRestVars(rc, out)
	}
}

// fusedViewSource is the ephemeral source name the fused-view strategy
// registers the materialized view under.
const fusedViewSource = "_fusedview"

// queryFusedView materializes the whole fused view, then evaluates the
// query against it as if it were a source, so conditions see the fused
// objects. Pass-through source conjuncts and predicates still work: the
// rewritten query is planned and executed by the ordinary machinery over
// a registry extended with the view.
func (m *Mediator) queryFusedView(ctx context.Context, policy ExecPolicy, q *Rule, qt *trace.QueryTrace) (*QueryResult, error) {
	qt.Annotate("fused_view", 1)
	// 1. Materialize: fetch every view object through normal expansion
	// (a bare label-variable pattern matches every rule head), fused and
	// deduplicated by the plan's FuseNode.
	fetch := &msl.Rule{
		Head: []msl.HeadTerm{&msl.Var{Name: "V"}},
		Tail: []msl.Conjunct{&msl.PatternConjunct{
			ObjVar:  &msl.Var{Name: "V"},
			Pattern: &msl.ObjectPattern{Label: &msl.Var{Name: "FetchLabel"}},
			Source:  m.name,
		}},
	}
	physical, _, err := m.planPhased(ctx, fetch, qt)
	if err != nil {
		return nil, err
	}
	qt.Phase(trace.PhaseExecute)
	viewRes, err := m.execute(ctx, m.sources, physical.Root, policy, qt)
	if err != nil {
		return nil, err
	}
	view := viewRes.Objects

	// 2. Rewrite the query: mediator conjuncts now target the view.
	rewritten := q.Clone()
	for _, c := range rewritten.Tail {
		if pc, ok := c.(*msl.PatternConjunct); ok && (pc.Source == "" || pc.Source == m.name) {
			pc.Source = fusedViewSource
		}
	}

	// 3. Plan and execute over a registry extended with the view.
	viewSrc, err := oemstore.FromObjects(fusedViewSource, view...)
	if err != nil {
		return nil, err
	}
	reg := wrapper.NewRegistry()
	for _, name := range m.sources.Names() {
		if s, ok := m.sources.Lookup(name); ok {
			reg.Add(s)
		}
	}
	reg.Add(viewSrc)
	qt.Phase(trace.PhasePlan)
	planner := plan.New(reg, m.extfns, m.stats, m.planOpts)
	finalPlan, err := planner.BuildContext(ctx, &veao.Program{Rules: []*msl.Rule{rewritten}, Decls: m.spec.Decls})
	if err != nil {
		return nil, err
	}
	qt.Phase(trace.PhaseExecute)
	res, err := m.execute(ctx, reg, finalPlan.Root, policy, qt)
	if err != nil {
		return nil, err
	}
	// Degradation from the materialization phase carries into the final
	// answer: if a source dropped out while building the view, conditions
	// evaluated against that view are a lower bound too.
	res.Incomplete = res.Incomplete || viewRes.Incomplete
	res.SourceErrors = append(append([]*SourceError(nil), viewRes.SourceErrors...), res.SourceErrors...)
	return res, nil
}

// specHasSkolems reports whether any rule head derives its object-id from
// a skolem term.
func specHasSkolems(spec *msl.Program) bool {
	for _, r := range spec.Rules {
		for _, h := range r.Head {
			if op, ok := h.(*msl.ObjectPattern); ok {
				if _, isSkolem := op.OID.(*msl.Skolem); isSkolem {
					return true
				}
			}
		}
	}
	return false
}

// QueryString parses and answers an MSL query given as text.
func (m *Mediator) QueryString(q string) ([]*Object, error) {
	return m.QueryStringContext(context.Background(), q)
}

// QueryStringContext is QueryString bounded by ctx (see QueryContext).
func (m *Mediator) QueryStringContext(ctx context.Context, q string) ([]*Object, error) {
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return m.QueryContext(ctx, rule)
}

// QueryBatch implements BatchQuerier by answering the queries one by one
// in-process — a mediator's exchanges with its own sources already batch,
// so the interface exists for symmetry when mediators are layered.
func (m *Mediator) QueryBatch(qs []*Rule) ([][]*Object, error) {
	return wrapper.EachQuery(m, qs)
}

// QueryBatchContext implements ContextBatchQuerier (see QueryBatch).
func (m *Mediator) QueryBatchContext(ctx context.Context, qs []*Rule) ([][]*Object, error) {
	return wrapper.EachQueryContext(ctx, m, qs)
}

// QueryLorel answers a LOREL-style end-user query ("select … from …
// where …") by translating it to MSL. From-items without an explicit
// source ("from person X") range over this mediator's own view.
// Aggregate select lists (count, sum, min, max, avg) fold the base
// query's distinct bindings into a single <result {…}> object.
func (m *Mediator) QueryLorel(q string) ([]*Object, error) {
	return m.QueryLorelContext(context.Background(), q)
}

// QueryLorelContext is QueryLorel bounded by ctx (see QueryContext).
func (m *Mediator) QueryLorelContext(ctx context.Context, q string) ([]*Object, error) {
	translated, err := lorel.TranslateQuery(q)
	if err != nil {
		return nil, err
	}
	if translated.Rule != nil {
		return m.QueryContext(ctx, translated.Rule)
	}
	result, err := translated.Fold(func(r *Rule) ([]*Object, error) {
		return m.QueryContext(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	oem.AssignOIDs(result, m.gen)
	return []*Object{result}, nil
}

// Expand runs only the View Expander & Algebraic Optimizer, returning the
// logical datamerge program for a query.
func (m *Mediator) Expand(q *Rule) (*veao.Program, error) {
	return m.expander.Expand(q)
}

// ExpandContext is Expand bounded by ctx: expansion of adversarial
// specifications can blow up combinatorially, so the rewriting itself
// honors cancellation.
func (m *Mediator) ExpandContext(ctx context.Context, q *Rule) (*veao.Program, error) {
	return m.expander.ExpandContext(ctx, q)
}

// Plan runs view expansion and cost-based optimization, returning the
// physical datamerge graph and the logical program it came from.
func (m *Mediator) Plan(q *Rule) (*plan.Plan, *veao.Program, error) {
	return m.PlanContext(context.Background(), q)
}

// PlanContext is Plan bounded by ctx, which covers both expansion and
// per-rule plan construction.
func (m *Mediator) PlanContext(ctx context.Context, q *Rule) (*plan.Plan, *veao.Program, error) {
	return m.planPhased(ctx, q, nil)
}

// planPhased is PlanContext with the expansion and planning steps
// reported as trace phases; qt may be nil.
func (m *Mediator) planPhased(ctx context.Context, q *Rule, qt *trace.QueryTrace) (*plan.Plan, *veao.Program, error) {
	qt.Phase(trace.PhaseExpand)
	logical, err := m.ExpandContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	qt.Phase(trace.PhasePlan)
	planner := plan.New(m.sources, m.extfns, m.stats, m.planOpts)
	physical, err := planner.BuildContext(ctx, logical)
	if err != nil {
		return nil, nil, err
	}
	return physical, logical, nil
}

// Execute runs a previously-built physical plan through the datamerge
// engine and returns the constructed result objects.
func (m *Mediator) Execute(p *plan.Plan) ([]*Object, error) {
	return m.ExecuteContext(context.Background(), p)
}

// ExecuteContext is Execute bounded by ctx (see QueryContext for the
// cancellation guarantees).
func (m *Mediator) ExecuteContext(ctx context.Context, p *plan.Plan) ([]*Object, error) {
	var qt *trace.QueryTrace
	if m.trace != nil {
		qt = trace.New("")
		defer m.writeFlow(qt)
	}
	res, err := m.execute(ctx, m.sources, p.Root, m.policy, qt)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// writeFlow writes qt's Figure 3.6 flow to Config.Trace in one piece.
// Rendering happens outside traceMu and only the write holds it: a
// Config.Trace writer need not be safe for concurrent use, concurrent
// queries' blocks never interleave, and no query waits on another's
// execution.
func (m *Mediator) writeFlow(qt *trace.QueryTrace) {
	var flow strings.Builder
	qt.RenderFlow(&flow)
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	io.WriteString(m.trace, flow.String())
}

// execute runs a physical graph over reg under ctx and policy, returning
// the answer with its degradation record; it is the one place the facade
// builds an engine executor. A non-nil qt receives the run's structured
// execution record.
func (m *Mediator) execute(ctx context.Context, reg *wrapper.Registry, root engine.Node, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	ex := &engine.Executor{
		Sources:     reg,
		Extfn:       m.extfns,
		IDGen:       m.gen,
		Stats:       m.stats,
		Recorder:    qt,
		Parallelism: m.parallel,
		QueryBatch:  m.batch,
		Policy:      policy,
	}
	return ex.RunResult(ctx, root)
}

// Explain returns a human-readable account of how the mediator would
// answer the MSL query text: the logical datamerge program and the
// physical datamerge graph.
func (m *Mediator) Explain(q string) (string, error) {
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return "", err
	}
	physical, logical, err := m.Plan(rule)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if m.fused {
		sb.WriteString("-- note: this specification uses semantic object-ids; Query materializes\n")
		sb.WriteString("-- the fused view first and evaluates the query against it. The plan below\n")
		sb.WriteString("-- is the per-rule expansion used to materialize fragments.\n")
	}
	sb.WriteString("-- logical datamerge program --\n")
	sb.WriteString(logical.String())
	sb.WriteString("-- physical datamerge graph --\n")
	physical.Print(&sb)
	return sb.String(), nil
}

// ExplainAnalyze answers the MSL query text and returns the executed
// plan annotated with what actually happened: per-operator actual row
// counts against the optimizer's estimates, source exchanges and their
// latency distributions, cache traffic, and phase timings that sum to
// the total wall time. The query really runs (sources are queried);
// use Explain for a static plan.
func (m *Mediator) ExplainAnalyze(q string) (string, error) {
	return m.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext is ExplainAnalyze bounded by ctx.
func (m *Mediator) ExplainAnalyzeContext(ctx context.Context, q string) (string, error) {
	qt := trace.New(q)
	qt.Phase(trace.PhaseParse)
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return "", err
	}
	res, err := m.queryTraced(ctx, rule, m.policy, qt)
	qt.End()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	qt.Render(&sb)
	fmt.Fprintf(&sb, "-- %d result objects --\n", len(res.Objects))
	return sb.String(), nil
}

// AddSource registers or replaces a source at runtime. Mediators serve
// autonomous, changing environments: when a source is upgraded or moves
// (e.g. from in-process to remote), swap it in under the same name and
// the unchanged specification keeps working. Queries already executing
// finish against the source they resolved. With Config.Cache set the
// source is registered behind a fresh answer cache.
func (m *Mediator) AddSource(src Source) {
	// Subscribe to the raw source (before any cache wrapping) so a
	// source that reports invalidation — a mediator serving a lower tier,
	// a partitioned source relaying its members — drops this mediator's
	// derived state: its answer cache for that source, plan-cache entries
	// and materialized views depending on it. This is what keeps a
	// two-tier deployment's tier-1 honest when Invalidate is called on
	// the tier-2 mediator.
	if notifier, ok := src.(wrapper.InvalidationNotifier); ok {
		name := src.Name()
		notifier.OnInvalidate(func() { m.Invalidate(name) })
	}
	// A change feed is the finer-grained channel: the source describes
	// each mutation, so instead of dropping everything derived from it,
	// the mediator drops only its answer cache and delta-maintains the
	// materialized views that depend on it. Every bundled mutable source
	// (OEM store, relational, record store, partitions thereof) notifies
	// here; no bundled source implements both channels for the same
	// mutation, so the two subscriptions never double-fire.
	if notifier, ok := src.(wrapper.Notifier); ok {
		notifier.OnChange(m.applyDelta)
	}
	if m.cacheCfg != nil {
		opts := *m.cacheCfg
		user := opts.Recorder
		opts.Recorder = func(source string, hit bool) {
			m.stats.RecordCache(source, hit)
			if user != nil {
				user(source, hit)
			}
		}
		cache := wrapper.NewCache(src, opts)
		m.cacheMu.Lock()
		m.caches = append(m.caches, cache)
		m.cacheMu.Unlock()
		src = cache
	}
	m.sources.Add(src)
	if m.plans != nil {
		// A replacement may advertise different capabilities; a cached
		// plan that pushed conditions into the old source would be wrong.
		m.plans.Invalidate(src.Name())
	}
}

// InvalidateCaches drops every cached source answer — call it when a
// source's data is known to have changed and Config.Cache is in use.
func (m *Mediator) InvalidateCaches() {
	dropped := 0
	m.cacheMu.Lock()
	for _, c := range m.caches {
		dropped += c.Invalidate("")
	}
	m.cacheMu.Unlock()
	metrics.Default().Counter("cache.invalidated").Add(int64(dropped))
	m.notifyListeners()
}

// Invalidate marks every cached derivation of name — answer caches and
// materialized-view extents alike — as stale, in one call. name selects:
//
//   - a source name: that source's answer cache is dropped and every
//     materialized view depending on it is marked stale;
//   - a view label (with Config.Materialize): that view's extent is
//     marked stale;
//   - "": everything.
//
// Stale extents keep serving the live-fallback path until a background
// refresh replaces them; the next contained query triggers one.
// Invalidate returns the number of view extents it marked stale.
func (m *Mediator) Invalidate(name string) int {
	dropped := 0
	m.cacheMu.Lock()
	for _, c := range m.caches {
		dropped += c.Invalidate(name)
	}
	m.cacheMu.Unlock()
	metrics.Default().Counter("cache.invalidated").Add(int64(dropped))
	if m.plans != nil {
		m.plans.Invalidate(name)
	}
	stale := 0
	if m.matviews != nil {
		stale = m.matviews.Invalidate(name)
	}
	m.notifyListeners()
	return stale
}

// OnInvalidate implements wrapper.InvalidationNotifier: fn runs after
// every Invalidate (and InvalidateCaches) on this mediator, with no
// locks held. A tier-1 mediator registers itself here when this mediator
// is added as one of its sources, making invalidation transitive up the
// mediation tiers; do not build notification cycles.
func (m *Mediator) OnInvalidate(fn func()) {
	m.notifyMu.Lock()
	m.listeners = append(m.listeners, fn)
	m.notifyMu.Unlock()
}

// notifyListeners fires the registered invalidation callbacks outside
// every mediator lock.
func (m *Mediator) notifyListeners() {
	m.notifyMu.Lock()
	fns := append([]func(){}, m.listeners...)
	m.notifyMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Refresh rebuilds the named materialized view's extent synchronously
// (label "" rebuilds all of them, in declaration order), through the
// live pipeline. A no-op without Config.Materialize. Use it to warm
// extents ahead of traffic instead of paying the build on first query.
func (m *Mediator) Refresh(ctx context.Context, label string) error {
	if m.matviews == nil {
		return nil
	}
	return m.matviews.Refresh(ctx, label)
}

// MatViewStats snapshots the materialized-view manager's counters; the
// zero value when Config.Materialize is unset.
func (m *Mediator) MatViewStats() MatViewStats {
	if m.matviews == nil {
		return MatViewStats{}
	}
	return m.matviews.Stats()
}

// MatViews returns the labels of the materialized views, in declaration
// order; empty without Config.Materialize.
func (m *Mediator) MatViews() []string {
	if m.matviews == nil {
		return nil
	}
	return m.matviews.Labels()
}

// WaitMatViews blocks until every in-flight background extent refresh
// has finished — deterministic shutdown and tests.
func (m *Mediator) WaitMatViews() {
	if m.matviews != nil {
		m.matviews.Wait()
	}
}

// CacheStats returns per-source answer-cache counters, keyed by source
// name; the map is empty when Config.Cache is unset.
func (m *Mediator) CacheStats() map[string]CacheStats {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	out := make(map[string]CacheStats, len(m.caches))
	for _, c := range m.caches {
		out[c.Name()] = c.Stats()
	}
	return out
}

// PlanCacheStats snapshots the plan cache's counters; the zero value when
// Config.PlanCache is unset.
func (m *Mediator) PlanCacheStats() PlanCacheStats {
	if m.plans == nil {
		return PlanCacheStats{}
	}
	return m.plans.Stats()
}

// Policy returns the default execution policy queries run under
// (Config.Policy); QueryPolicy overrides it per call.
func (m *Mediator) Policy() ExecPolicy { return m.policy }

// QueryStats returns the mediator's learned statistics store.
func (m *Mediator) QueryStats() *Stats { return m.stats }

// Spec returns the mediator's parsed specification.
func (m *Mediator) Spec() *SpecProgram { return m.spec }

// Sources returns the names of the registered sources, sorted.
func (m *Mediator) Sources() []string { return m.sources.Names() }
