package plan

import (
	"medmaker/internal/engine"
)

// DriftRatio is the estimate-vs-store divergence beyond which a cached
// plan is considered drifted: the store's current estimate for a node's
// shape differs from the estimate the plan was built with by more than
// this factor either way. It matches trace.MisestimateRatio — a plan
// whose nodes would be flagged MISESTIMATE by EXPLAIN ANALYZE is exactly
// the plan worth replanning.
const DriftRatio = 4.0

// Drifted reports whether the statistics the plan was compiled under
// have moved enough that recompiling could pick a different plan. It is
// cheap by construction: an unchanged store generation answers false
// without touching the graph, and otherwise the check is a walk of the
// plan's query nodes against the store — no source round-trips.
//
// A node drifted when the store now holds a shape-keyed estimate that
// diverges from the node's compiled-in estimate by more than ratio
// (either way), or when the node was compiled with no estimate at all
// and the store has since learned a materially non-trivial one. ratio
// <= 0 means DriftRatio.
func Drifted(c *Compiled, stats *engine.Stats, ratio float64) bool {
	if c == nil || c.Plan == nil || stats == nil {
		return false
	}
	if stats.Generation() == c.StatsGen {
		return false
	}
	if ratio <= 0 {
		ratio = DriftRatio
	}
	drifted := false
	engine.Walk(c.Plan.Root, func(n engine.Node) {
		if drifted {
			return
		}
		qn, ok := n.(*engine.QueryNode)
		if !ok || qn.Shape == "" {
			return
		}
		est, known := stats.Estimate(qn.Source, qn.Shape)
		if !known {
			return // nothing learned about this node's shape yet
		}
		if !qn.HasEst {
			// Compiled blind; a learned estimate of ratio rows or more
			// is enough to move a join order.
			drifted = est >= ratio
			return
		}
		drifted = diverged(qn.EstRows, est, ratio)
	})
	return drifted
}

// diverged reports whether two cardinality estimates differ by more than
// ratio in either direction; estimates both below one row are equal.
func diverged(a, b, ratio float64) bool {
	if a < 1 && b < 1 {
		return false
	}
	hi, lo := a, b
	if b > a {
		hi, lo = b, a
	}
	if lo <= 0 {
		return hi >= ratio
	}
	return hi/lo > ratio
}
