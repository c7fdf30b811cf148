// Package plan implements MedMaker's cost-based optimizer: it turns a
// logical datamerge program (the VE&AO's output) into a physical datamerge
// graph for the engine (Sections 3.4–3.5 of the paper).
//
// The default plan for a rule is a left-deep chain: the outermost pattern
// becomes a query node, each subsequent pattern a parameterized query node
// whose per-tuple queries carry the bindings obtained so far, external
// predicates are slotted in as soon as an implementation is applicable,
// and a dedup + constructor pair finishes the chain. Join order follows
// the paper's heuristic — the outer patterns are the ones with the
// greatest number of conditions — unless statistics from previous queries
// are available, in which case estimated result sizes drive the order.
//
// Capability-poor sources (Section 3.5) are handled by relaxing the query
// actually sent — stripping the conditions the source cannot evaluate, or
// fetching whole objects for wildcard searches — while the extraction
// step at the mediator re-verifies the full original pattern, so plans
// stay correct whatever the source supports.
package plan

import (
	"context"
	"fmt"
	"io"
	"sort"

	"medmaker/internal/engine"
	"medmaker/internal/extfn"
	"medmaker/internal/msl"
	"medmaker/internal/trace"
	"medmaker/internal/veao"
	"medmaker/internal/wrapper"
)

// OrderMode selects the join-order strategy.
type OrderMode int

const (
	// OrderHeuristic places patterns with the most conditions outermost
	// (the paper's ad-hoc heuristic), falling back to statistics when the
	// store has observations for every pattern.
	OrderHeuristic OrderMode = iota
	// OrderStats orders by ascending estimated result size from the
	// statistics store; patterns without estimates keep heuristic rank.
	OrderStats
	// OrderAsWritten keeps the rule's textual order.
	OrderAsWritten
	// OrderReversed inverts the heuristic order — the worst-case baseline
	// used by the join-order benchmarks.
	OrderReversed
	// OrderAdaptive searches join orders with a bind-join-aware cost
	// model: bound variables propagate through the candidate order, and a
	// conjunct whose join variable is already bound is priced as
	// parameterized-fetch cost × outer cardinality × learned selectivity
	// (the statistics store's shape-keyed feedback). Exhaustive for short
	// rules, greedy beyond; falls back to the heuristic until the store
	// has observations.
	OrderAdaptive
)

// Options control plan shape; use DefaultOptions as the base.
type Options struct {
	// Order selects the join-order strategy.
	Order OrderMode
	// PushConditions sends pattern conditions to capable sources. When
	// false every source query is relaxed to bare structure and all
	// filtering happens at the mediator — the "no pushdown" ablation.
	PushConditions bool
	// Parameterize uses parameterized query nodes for inner patterns.
	// When false each pattern is fetched independently and combined with
	// hash/cross joins — the paper-era baseline the parameterized plan is
	// measured against.
	Parameterize bool
	// DupElim adds the final structural duplicate elimination over result
	// objects. The paper's implementation lacked this (footnote 9); ours
	// defaults to on, and turning it off reproduces their behaviour.
	DupElim bool
	// Parallelism and MorselRows describe the executor the plan will run
	// on: how many workers its morsel scheduler fans local processing
	// across and how many rows one morsel holds. The statistics-driven
	// join order ranks patterns by their local cost after that speedup
	// (see localCost), so a big table that parallelizes well can cost the
	// same as a small one. 0 means 1 worker / engine.DefaultMorselRows.
	Parallelism int
	MorselRows  int
}

// DefaultOptions enables pushdown, parameterized joins, and duplicate
// elimination with heuristic ordering.
func DefaultOptions() Options {
	return Options{Order: OrderHeuristic, PushConditions: true, Parameterize: true, DupElim: true}
}

// Planner builds physical graphs against a fixed source registry and
// external-function table.
type Planner struct {
	sources *wrapper.Registry
	extents map[string]Extent
	extfns  *extfn.Table
	stats   *engine.Stats
	opts    Options
	fresh   int
}

// Extent describes an in-memory extent to the planner. The plan names
// it; the objects are bound per run (engine.Executor.Extents).
type Extent struct {
	// View names the extent in plans: "matscan(View)".
	View string
	// Size is the extent's object count when the plan is built: the
	// cardinality estimate of a conjunct on it. A plan stays correct
	// whatever the extent holds when it runs.
	Size int
}

// New returns a planner. stats may be nil (no learned ordering).
func New(sources *wrapper.Registry, extfns *extfn.Table, stats *engine.Stats, opts Options) *Planner {
	return &Planner{sources: sources, extfns: extfns, stats: stats, opts: opts}
}

// Over makes the planner treat the named sources as in-memory extents:
// a conjunct on one becomes a MatScanNode, evaluated with every query
// capability and no exchange. An extent shadows a registered source of
// the same name.
func (p *Planner) Over(extents map[string]Extent) *Planner {
	p.extents = extents
	return p
}

// Plan is a physical datamerge graph for a whole logical program: one
// chain per rule, a union, and optional result-level dedup.
type Plan struct {
	// Root is the graph to execute.
	Root engine.Node
	// RuleRoots are the per-rule subgraphs, in rule order.
	RuleRoots []engine.Node
}

// Print renders the graph (Figure 3.6 in textual form).
func (p *Plan) Print(w io.Writer) { engine.PrintGraph(w, p.Root) }

// Build turns a logical datamerge program into a physical plan.
func (p *Planner) Build(prog *veao.Program) (*Plan, error) {
	return p.BuildContext(context.Background(), prog)
}

// BuildContext is Build bounded by ctx, checked between rules: an
// expanded program can carry thousands of rules, and each one's planning
// may probe sources for cardinalities.
func (p *Planner) BuildContext(ctx context.Context, prog *veao.Program) (*Plan, error) {
	if len(prog.Rules) == 0 {
		return &Plan{Root: &engine.UnionNode{}}, nil
	}
	plan := &Plan{}
	for _, r := range prog.Rules {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		root, err := p.buildRule(r)
		if err != nil {
			return nil, err
		}
		plan.RuleRoots = append(plan.RuleRoots, root)
	}
	if len(plan.RuleRoots) == 1 {
		plan.Root = plan.RuleRoots[0]
	} else {
		plan.Root = &engine.UnionNode{Inputs: plan.RuleRoots}
	}
	if HasSemanticOIDs(prog.Rules) {
		plan.Root = &engine.FuseNode{Child: plan.Root}
	}
	if p.opts.DupElim {
		plan.Root = &engine.DedupNode{Child: plan.Root, Vars: []string{engine.ResultVar}}
	}
	trace.FromContext(ctx).Annotate("plan.rules", int64(len(prog.Rules)))
	return plan, nil
}

// HasSemanticOIDs reports whether any rule head derives object identities
// from skolem terms — MedMaker's semantic object-ids — in which case
// result objects sharing an id are fused into one. Constant or
// variable-carried oids do not trigger fusion: they fix identity without
// asserting that same-id derivations denote one entity.
func HasSemanticOIDs(rules []*msl.Rule) bool {
	for _, r := range rules {
		for _, h := range r.Head {
			op, ok := h.(*msl.ObjectPattern)
			if !ok {
				continue
			}
			if _, isSkolem := op.OID.(*msl.Skolem); isSkolem {
				return true
			}
		}
	}
	return false
}

// buildRule builds the physical chain for one logical rule.
func (p *Planner) buildRule(r *msl.Rule) (engine.Node, error) {
	var patterns, negated []*msl.PatternConjunct
	var preds []*msl.PredicateConjunct
	for _, c := range r.Tail {
		switch t := c.(type) {
		case *msl.PatternConjunct:
			if t.Source == "" {
				return nil, fmt.Errorf("plan: conjunct %s has no source; expand the query first", t)
			}
			if t.Negated {
				negated = append(negated, t)
			} else {
				patterns = append(patterns, t)
			}
		case *msl.PredicateConjunct:
			if !p.extfns.Knows(t.Name) {
				return nil, fmt.Errorf("plan: unknown predicate %q", t.Name)
			}
			preds = append(preds, t)
		default:
			return nil, fmt.Errorf("plan: unsupported conjunct %T", c)
		}
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("plan: rule has no positive pattern conjuncts: %s", r)
	}
	patterns = p.order(patterns)
	headVars := r.HeadVars()
	// The positive chain must keep every variable the negated conjuncts
	// join on, in addition to the head variables.
	keep := varSet(headVars)
	for _, nc := range negated {
		addConjunctVars(keep, nc)
	}
	keepVars := setList(keep)

	var cur engine.Node
	var err error
	if p.opts.Parameterize {
		cur, err = p.buildChain(patterns, preds, keepVars)
	} else {
		cur, err = p.buildJoinTree(patterns, preds, keepVars)
	}
	if err != nil {
		return nil, err
	}
	// Negated conjuncts filter last (safe, stratified negation): every
	// variable they share with the positive part is bound by then.
	for _, nc := range negated {
		bound := map[string]bool{}
		for _, v := range cur.OutVars() {
			bound[v] = true
		}
		node, err := p.queryNode(nc, cur, bound, varSet(cur.OutVars()))
		if err != nil {
			return nil, err
		}
		cur = node
	}
	dedup := &engine.DedupNode{Child: cur, Vars: headVars}
	return &engine.ConstructNode{Child: dedup, Head: r.Head}, nil
}

// buildChain builds the default left-deep chain: query node, then one
// parameterized query node per remaining pattern, with external predicates
// slotted in as soon as applicable and projections keeping only the
// variables still needed downstream.
func (p *Planner) buildChain(patterns []*msl.PatternConjunct, preds []*msl.PredicateConjunct, headVars []string) (engine.Node, error) {
	// downstream[i] = variables needed at or after position i: head vars,
	// unplaced predicate vars, and later patterns' vars. Predicate vars
	// are conservatively included everywhere, since placement is greedy.
	downstream := make([]map[string]bool, len(patterns)+1)
	downstream[len(patterns)] = varSet(headVars)
	for _, pr := range preds {
		addConjunctVars(downstream[len(patterns)], pr)
	}
	for i := len(patterns) - 1; i >= 0; i-- {
		downstream[i] = copySet(downstream[i+1])
		addConjunctVars(downstream[i], patterns[i])
	}

	var cur engine.Node
	bound := map[string]bool{}
	placed := make([]bool, len(preds))
	placePreds := func(needed map[string]bool) {
		for i, pr := range preds {
			if placed[i] {
				continue
			}
			if p.extfns.CanEval(pr, bound) {
				placed[i] = true
				for v := range conjunctVarSet(pr) {
					bound[v] = true
				}
				cur = &engine.ExtPredNode{Child: cur, Pred: pr, Needed: intersect(bound, needed)}
			}
		}
	}
	for i, pc := range patterns {
		if cur != nil {
			placePreds(downstream[i])
		}
		node, err := p.queryNode(pc, cur, bound, downstream[i+1])
		if err != nil {
			return nil, err
		}
		cur = node
		for v := range conjunctVarSet(pc) {
			bound[v] = true
		}
	}
	placePreds(downstream[len(patterns)])
	for i, pr := range preds {
		if !placed[i] {
			return nil, fmt.Errorf("plan: no applicable implementation order for predicate %s; bindings available: %v",
				pr, setList(bound))
		}
	}
	return cur, nil
}

// buildJoinTree is the non-parameterized baseline: independent query
// nodes combined left-deep with hash joins (cross products when no
// variables are shared), predicates slotted in greedily.
func (p *Planner) buildJoinTree(patterns []*msl.PatternConjunct, preds []*msl.PredicateConjunct, headVars []string) (engine.Node, error) {
	bound := map[string]bool{}
	placed := make([]bool, len(preds))
	var cur engine.Node
	all := varSet(headVars)
	for _, pc := range patterns {
		addConjunctVars(all, pc)
	}
	for _, pr := range preds {
		addConjunctVars(all, pr)
	}
	needed := setList(all)
	for _, pc := range patterns {
		leaf, err := p.queryNode(pc, nil, map[string]bool{}, all)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = leaf
		} else {
			shared := setList(intersectSets(bound, conjunctVarSet(pc)))
			cur = &engine.JoinNode{Left: cur, Right: leaf, Shared: shared, Needed: needed}
		}
		for v := range conjunctVarSet(pc) {
			bound[v] = true
		}
		for i, pr := range preds {
			if !placed[i] && p.extfns.CanEval(pr, bound) {
				placed[i] = true
				cur = &engine.ExtPredNode{Child: cur, Pred: pr, Needed: needed}
				for v := range conjunctVarSet(pr) {
					bound[v] = true
				}
			}
		}
	}
	for i, pr := range preds {
		if !placed[i] {
			return nil, fmt.Errorf("plan: no applicable implementation order for predicate %s", pr)
		}
	}
	return cur, nil
}

// order sorts the pattern conjuncts per the configured strategy.
func (p *Planner) order(patterns []*msl.PatternConjunct) []*msl.PatternConjunct {
	out := append([]*msl.PatternConjunct(nil), patterns...)
	switch p.opts.Order {
	case OrderAsWritten:
		return out
	case OrderAdaptive:
		return p.orderAdaptive(out)
	case OrderReversed:
		sort.SliceStable(out, func(i, j int) bool {
			return conditionCount(out[i].Pattern) < conditionCount(out[j].Pattern)
		})
		return out
	case OrderStats:
		if p.stats != nil {
			type ranked struct {
				pc   *msl.PatternConjunct
				est  float64
				cost float64
				ok   bool
			}
			rs := make([]ranked, len(out))
			for i, pc := range out {
				est, ok := p.estimate(pc)
				if ok {
					// Cost, not just cardinality: a source whose answers
					// are mostly served from the wrapper-level cache is
					// cheap to consult however many rows it returns, so
					// its observed hit rate discounts the estimate and
					// pulls it outward in the join order.
					est *= p.costWeight(pc.Source)
				}
				rs[i] = ranked{pc, est, p.localCost(est), ok}
			}
			sort.SliceStable(rs, func(i, j int) bool {
				if rs[i].ok != rs[j].ok {
					return rs[i].ok // known estimates first
				}
				if rs[i].ok {
					if rs[i].cost != rs[j].cost {
						return rs[i].cost < rs[j].cost
					}
					// localCost plateaus where extra morsels still fit
					// free workers; raw estimates break those ties, so the
					// order on a serial executor is unchanged.
					return rs[i].est < rs[j].est
				}
				return conditionCount(rs[i].pc.Pattern) > conditionCount(rs[j].pc.Pattern)
			})
			for i := range rs {
				out[i] = rs[i].pc
			}
			return out
		}
		fallthrough
	default: // OrderHeuristic
		return orderByConditions(out)
	}
}

// estimate returns a cardinality estimate for a pattern conjunct's
// unbound fetch: the learned statistics of its unbound shape first (they
// see the conjunct's own conditions, so two differently-selective
// queries on one label do not share an estimate, and a probe's answers
// never price a fetch), then the extent's size or a label-count probe of
// the source (the paper's "sampling" fallback) when the source supports
// cheap counting.
func (p *Planner) estimate(pc *msl.PatternConjunct) (float64, bool) {
	if p.stats != nil {
		if sent, _, err := p.sendPattern(pc, nil, false); err == nil {
			if est, ok := p.stats.Estimate(pc.Source, engine.ShapeOf(sent, nil)); ok {
				return est, true
			}
		}
	}
	label := pc.Pattern.LabelName()
	if label == "" {
		return 0, false
	}
	if ext, ok := p.extents[pc.Source]; ok {
		return float64(ext.Size), true
	}
	if src, ok := p.sources.Lookup(pc.Source); ok {
		if counter, can := src.(wrapper.Counter); can {
			if n, ok := counter.CountLabel(label); ok {
				return float64(n), true
			}
		}
	}
	return 0, false
}

// localCost is the optimizer's model of the engine's morsel scheduler:
// the weighted estimate divided by the speedup the executor can reach on
// local (post-fetch) processing of that many rows — est/MorselRows
// morsels capped at Parallelism workers, never below 1. The cost grows
// with est until one morsel fills, plateaus while extra morsels still
// land on free workers, and grows at est/Parallelism beyond saturation.
// It is non-decreasing in est, so it can only introduce ties into the
// cardinality order, never inversions.
func (p *Planner) localCost(est float64) float64 {
	mr := p.opts.MorselRows
	if mr <= 0 {
		mr = engine.DefaultMorselRows
	}
	par := p.opts.Parallelism
	if par < 1 {
		par = 1
	}
	speedup := est / float64(mr)
	if speedup < 1 {
		speedup = 1
	}
	if speedup > float64(par) {
		speedup = float64(par)
	}
	return est / speedup
}

// costWeight returns the cost multiplier for consulting a source: 1 with
// no cache observations, shrinking toward 0.1 as the answer-cache hit
// rate recorded in the statistics store approaches 1. Exchanges answered
// from the cache never leave the mediator, so a well-cached source is
// nearly free regardless of its result sizes.
func (p *Planner) costWeight(source string) float64 {
	if p.stats == nil {
		return 1
	}
	rate, ok := p.stats.CacheHitRate(source)
	if !ok {
		return 1
	}
	return 1 - 0.9*rate
}

// conditionCount counts the constants in a pattern — the paper's "number
// of conditions" signal for join ordering.
func conditionCount(p *msl.ObjectPattern) int {
	n := 0
	if _, ok := p.OID.(*msl.Const); ok {
		n++
	}
	if _, ok := p.Label.(*msl.Const); ok {
		n++
	}
	switch v := p.Value.(type) {
	case *msl.Const:
		n++
	case *msl.SetPattern:
		for _, e := range v.Elems {
			if ep, ok := e.(*msl.ObjectPattern); ok {
				n += conditionCount(ep)
			}
		}
		for _, rc := range v.RestConstraints {
			n += conditionCount(rc)
		}
	}
	return n
}

func varSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func conjunctVarSet(c msl.Conjunct) map[string]bool {
	tmp := &msl.Rule{Head: nil, Tail: []msl.Conjunct{c}}
	return varSet(tmp.Vars())
}

func addConjunctVars(dst map[string]bool, c msl.Conjunct) {
	for v := range conjunctVarSet(c) {
		dst[v] = true
	}
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersectSets(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func intersect(a, b map[string]bool) []string {
	return setList(intersectSets(a, b))
}

func setList(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
