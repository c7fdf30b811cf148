// Package veao implements MedMaker's View Expander and Algebraic
// Optimizer (VE&AO), the first stage of the Mediator Specification
// Interpreter pipeline (Figure 2.5 of the paper).
//
// The VE&AO matches a client query against the mediator specification
// rules and rewrites it so that references to virtual mediator objects are
// replaced by references to source objects. The result is a logical
// datamerge program: a set of MSL rules mentioning only sources.
//
// Matching a query condition with a rule head produces unifiers — each a
// set of mappings (variable ↦ term) and definitions (object variable ⇒
// instantiated head structure), as in Section 3.2:
//
//	θ1 = [ N ↦ 'Joe Chung',
//	       JC ⇒ <cs_person {<name 'Joe Chung'> <rel R> Rest1 Rest2}> ]
//
// Containment is enforced structurally: every subobject pattern of the
// query condition either unifies with a distinct explicit subobject
// pattern of the head or is pushed into one of the head's rest variables
// (becoming a rest constraint on the rule tail — the "push selections
// down" optimization, which in the nested-object setting enumerates one
// rule per push choice, the paper's τ1/τ2 example). One logical rule is
// emitted per unifier per specification rule, and a query pattern may be
// expanded through several mediators in sequence (views over views) up to
// a depth limit.
package veao

import (
	"context"
	"fmt"
	"sync/atomic"

	"medmaker/internal/msl"
	"medmaker/internal/trace"
)

// Options control expansion.
type Options struct {
	// MaxDepth bounds how many times mediator references may be expanded
	// (views defined over other mediators, or recursive views). Zero
	// means the default of 32. Exceeding it is an error, which is how
	// non-terminating recursive-view expansions surface.
	MaxDepth int
	// Exhaustive keeps the rest-push choices for a query element even
	// when it unified with an explicit head element of the same constant
	// label. The default (false) matches the paper's presentation: Q1
	// yields just R2 rather than additional rules covering persons with
	// several name subobjects, while <year 3> — matching no explicit
	// element — still yields both τ1 and τ2.
	Exhaustive bool
}

// Program is a logical datamerge program: the expanded rules, referencing
// sources only.
type Program struct {
	Rules []*msl.Rule
	// Decls are the external declarations visible to the rules (copied
	// from the specification).
	Decls []*msl.ExternalDecl
}

// String renders the program as MSL text.
func (p *Program) String() string {
	mp := &msl.Program{Rules: p.Rules, Decls: p.Decls}
	return mp.String()
}

// Expander expands queries against one mediator specification. It is
// safe for concurrent use.
type Expander struct {
	spec     *msl.Program
	mediator string
	opts     Options
	fresh    atomic.Int64
}

// NewExpander prepares expansion of queries addressed to the named
// mediator defined by spec. Tail conjuncts whose source is the mediator's
// name — or empty — are treated as references to the virtual view.
func NewExpander(spec *msl.Program, mediatorName string, opts Options) *Expander {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 32
	}
	return &Expander{spec: spec, mediator: mediatorName, opts: opts}
}

// Expand rewrites the query into a logical datamerge program. The query's
// head is preserved (with definitions substituted); its tail conditions on
// the mediator are replaced by specification rule tails.
func (e *Expander) Expand(query *msl.Rule) (*Program, error) {
	return e.ExpandContext(context.Background(), query)
}

// ExpandContext is Expand bounded by ctx: expansion blows up
// combinatorially on adversarial specifications (every mediator conjunct
// multiplies by the rule count), so the recursion checks the context at
// every step and aborts with ctx's error once it ends.
func (e *Expander) ExpandContext(ctx context.Context, query *msl.Rule) (*Program, error) {
	// Rename the query apart from every specification rule, whose renamed
	// variables end in numeric suffixes. A suffix, not a prefix: a renamed
	// variable still lexes as one when a pushed-down query is printed for
	// a remote source ("qE" would come back as the label 'qE').
	q := query.RenameVars(func(s string) string { return s + "_q" })
	rules, err := e.expandRule(ctx, q, 0)
	if err != nil {
		return nil, err
	}
	trace.FromContext(ctx).Annotate("veao.rules", int64(len(rules)))
	return &Program{Rules: rules, Decls: e.spec.Decls}, nil
}

// expandRule rewrites the first mediator-referencing conjunct of r against
// every specification rule, then recurses on each result until none
// remain.
func (e *Expander) expandRule(ctx context.Context, r *msl.Rule, depth int) ([]*msl.Rule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if depth > e.opts.MaxDepth {
		return nil, fmt.Errorf("veao: expansion exceeded depth %d (recursive view?)", e.opts.MaxDepth)
	}
	idx := -1
	for i, c := range r.Tail {
		if pc, ok := c.(*msl.PatternConjunct); ok && e.isMediatorRef(pc) {
			if pc.Negated {
				return nil, fmt.Errorf("veao: negated conditions on virtual mediator objects are not supported; negate source patterns instead")
			}
			idx = i
			break
		}
	}
	if idx < 0 {
		return []*msl.Rule{r}, nil
	}
	target := r.Tail[idx].(*msl.PatternConjunct)
	var out []*msl.Rule
	for ri, specRule := range e.spec.Rules {
		// Rename the specification rule apart from the query and from
		// other expansions.
		suffix := fmt.Sprintf("_%d_%d", ri, e.fresh.Add(1))
		sr := specRule.RenameVars(func(s string) string { return s + suffix })
		if len(sr.Head) != 1 {
			return nil, fmt.Errorf("veao: specification rule %d must have exactly one head pattern, found %d",
				ri, len(sr.Head))
		}
		head, ok := sr.Head[0].(*msl.ObjectPattern)
		if !ok {
			return nil, fmt.Errorf("veao: specification rule %d has a non-pattern head", ri)
		}
		unifiers, err := e.unifyCondition(target.Pattern, head)
		if err != nil {
			return nil, err
		}
		for _, u := range unifiers {
			rewritten, err := u.rewrite(r, idx, target, sr, head)
			if err != nil {
				return nil, err
			}
			expanded, err := e.expandRule(ctx, rewritten, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, expanded...)
		}
	}
	return out, nil
}

func (e *Expander) isMediatorRef(pc *msl.PatternConjunct) bool {
	return pc.Source == "" || pc.Source == e.mediator
}
