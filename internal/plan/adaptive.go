package plan

import (
	"sort"

	"medmaker/internal/engine"
	"medmaker/internal/msl"
)

// This file implements OrderAdaptive: join ordering driven by the
// execution feedback the engine folds into the statistics store. The
// paper's heuristic ranks conjuncts independently (most conditions
// outermost); the statistics order ranks them independently by estimated
// size. Both miss the defining property of the left-deep bind-join chain
// the planner actually builds: once the outer conjunct binds a join
// variable, the inner conjunct is not fetched whole — it is queried once
// per outer row with the binding pushed as a constant. Its real cost is
// outer cardinality × per-parameterized-query cost, and its real output
// is outer cardinality × learned selectivity. OrderAdaptive simulates
// each candidate order, propagating the bound-variable set exactly as
// buildChain will, and prices every position with the shape-keyed
// estimates the previous executions recorded.

const (
	// exchangeOverhead is the fixed per-exchange cost, in row units: the
	// round-trip a query costs even when it answers nothing. It is what
	// makes "3000 point queries against the big side" more expensive than
	// "8 point queries against the small side" even if both answer one
	// row each.
	exchangeOverhead = 2.0
	// defaultFetchRows prices a conjunct the store and the source can say
	// nothing about — deliberately pessimistic, so unknown extents are
	// not pulled outward.
	defaultFetchRows = 1000.0
	// adaptiveExhaustiveMax is the rule length up to which every
	// permutation is costed (5! = 120 candidates); longer rules order
	// greedily.
	adaptiveExhaustiveMax = 5
	// joinCPUWeight prices the mediator-side join work of an
	// unparameterized inner conjunct (extraction under every outer row).
	joinCPUWeight = 0.001
	// cardTieWeight breaks cost ties toward orders with smaller final
	// cardinality.
	cardTieWeight = 1e-6
)

// orderAdaptive returns the cheapest order under the bind-join cost
// model, falling back to the paper's heuristic until the statistics
// store has at least one observation about the rule's conjuncts (the
// cold-start plan; feedback from its execution makes the next plan
// adaptive).
func (p *Planner) orderAdaptive(patterns []*msl.PatternConjunct) []*msl.PatternConjunct {
	if p.stats == nil || len(patterns) < 2 || !p.hasObservations(patterns) {
		return orderByConditions(patterns)
	}
	// Start from the heuristic order so cost ties resolve to it.
	patterns = orderByConditions(patterns)
	base := p.baseEstimates(patterns)
	if len(patterns) <= adaptiveExhaustiveMax {
		return p.bestPermutation(patterns, base)
	}
	return p.greedyOrder(patterns, base)
}

// orderByConditions is the paper's heuristic: most conditions outermost.
func orderByConditions(patterns []*msl.PatternConjunct) []*msl.PatternConjunct {
	sort.SliceStable(patterns, func(i, j int) bool {
		return conditionCount(patterns[i].Pattern) > conditionCount(patterns[j].Pattern)
	})
	return patterns
}

// hasObservations reports whether the store has learned the unbound
// fetch size of any of the conjuncts.
func (p *Planner) hasObservations(patterns []*msl.PatternConjunct) bool {
	for _, pc := range patterns {
		if sent, _, err := p.sendPattern(pc, nil, false); err == nil {
			if _, ok := p.stats.Estimate(pc.Source, engine.ShapeOf(sent, nil)); ok {
				return true
			}
		}
	}
	return false
}

// baseEstimates memoizes each conjunct's unbound fetch cardinality (the
// full estimate chain, including the CountLabel probe) so permutation
// search probes each source at most once.
func (p *Planner) baseEstimates(patterns []*msl.PatternConjunct) map[*msl.PatternConjunct]float64 {
	out := make(map[*msl.PatternConjunct]float64, len(patterns))
	for _, pc := range patterns {
		if est, ok := p.estimate(pc); ok {
			out[pc] = est
		} else {
			out[pc] = defaultFetchRows
		}
	}
	return out
}

// stepCost prices placing pc at position pos of a candidate order, given
// the variables bound so far and the running outer cardinality. It
// returns the cost the position adds and the cardinality flowing out of
// it.
func (p *Planner) stepCost(pc *msl.PatternConjunct, pos int, bound map[string]bool, card float64, base map[*msl.PatternConjunct]float64) (cost, outCard float64) {
	w := p.costWeight(pc.Source) * p.latencyWeight(pc.Source)
	sent, paramVars, err := p.sendPattern(pc, bound, pos > 0)
	if err != nil {
		return 0, card // unknown source: buildRule reports it; price neutrally
	}
	if len(paramVars) > 0 {
		// Bind join: one parameterized query per outer row. perQuery is
		// the learned answer size of the parameterized shape; the "|out"
		// entry is the learned rows-out-per-row-in selectivity the
		// feedback loop recorded for this exact shape.
		shape := engine.ShapeOf(sent, engine.ShapeVars(paramVars))
		perQuery, okPQ := p.stats.Estimate(pc.Source, shape)
		sel, okSel := p.stats.Estimate(pc.Source, shape+"|out")
		switch {
		case !okPQ && okSel:
			perQuery = sel
		case !okPQ:
			perQuery = 1
		}
		if !okSel {
			sel = perQuery
		}
		return card * w * (exchangeOverhead + perQuery), card * sel
	}
	fetch := base[pc]
	cost = w * (exchangeOverhead + p.localCost(fetch))
	if pos == 0 {
		return cost, fetch
	}
	// Unbound inner conjunct: fetched whole (batching dedups the
	// per-row queries to one) and joined at the mediator; the join work
	// scales with the candidate pair count.
	return cost + joinCPUWeight*card*fetch, card * fetch
}

// orderCost prices a complete candidate order.
func (p *Planner) orderCost(order []*msl.PatternConjunct, base map[*msl.PatternConjunct]float64) float64 {
	bound := map[string]bool{}
	card := 1.0
	total := 0.0
	for i, pc := range order {
		cost, out := p.stepCost(pc, i, bound, card, base)
		total += cost
		card = out
		addConjunctVars(bound, pc)
	}
	return total + cardTieWeight*card
}

// bestPermutation costs every permutation (Heap's algorithm) and returns
// the cheapest; the input order (heuristic) wins ties.
func (p *Planner) bestPermutation(patterns []*msl.PatternConjunct, base map[*msl.PatternConjunct]float64) []*msl.PatternConjunct {
	cur := append([]*msl.PatternConjunct(nil), patterns...)
	best := append([]*msl.PatternConjunct(nil), patterns...)
	bestCost := p.orderCost(cur, base)
	n := len(cur)
	c := make([]int, n)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				cur[0], cur[i] = cur[i], cur[0]
			} else {
				cur[c[i]], cur[i] = cur[i], cur[c[i]]
			}
			if cost := p.orderCost(cur, base); cost < bestCost {
				bestCost = cost
				copy(best, cur)
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return best
}

// greedyOrder builds the order one position at a time, always appending
// the conjunct with the lowest marginal cost (ties to smaller output
// cardinality, then to the heuristic order the input arrives in).
func (p *Planner) greedyOrder(patterns []*msl.PatternConjunct, base map[*msl.PatternConjunct]float64) []*msl.PatternConjunct {
	remaining := append([]*msl.PatternConjunct(nil), patterns...)
	out := make([]*msl.PatternConjunct, 0, len(patterns))
	bound := map[string]bool{}
	card := 1.0
	for len(remaining) > 0 {
		bestIdx, bestCost, bestCard := 0, 0.0, 0.0
		for i, pc := range remaining {
			cost, outCard := p.stepCost(pc, len(out), bound, card, base)
			if i == 0 || cost < bestCost || (cost == bestCost && outCard < bestCard) {
				bestIdx, bestCost, bestCard = i, cost, outCard
			}
		}
		pc := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		out = append(out, pc)
		addConjunctVars(bound, pc)
		card = bestCard
	}
	return out
}

// latencyWeight scales a source's cost by its observed exchange latency:
// 1 for an unobserved or sub-millisecond source, growing linearly with
// the EWMA latency. A replicated source's failover-inclusive latency and
// a remote wrapper's round-trip both land here, so the order prefers touching
// slow sources fewer times.
func (p *Planner) latencyWeight(source string) float64 {
	if p.stats == nil {
		return 1
	}
	lat, ok := p.stats.SourceLatency(source)
	if !ok {
		return 1
	}
	ms := lat.Seconds() * 1e3
	if ms <= 1 {
		return 1
	}
	return ms
}
