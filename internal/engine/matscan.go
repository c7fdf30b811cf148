package engine

import (
	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// MatExtent is an in-memory extent — a materialized view, the fused view,
// the objects one insert added — registered under a source name for
// planning. It answers what the planner asks of a source (capabilities,
// label counts), and the planner turns every conjunct on it into a
// MatScanNode that scans the objects in place; Query is never called.
// The objects are shared with their producer and must be treated as
// immutable (the engine copies source material before mutating it). They
// are never looked up by oid, so objects may share one.
type MatExtent struct {
	// Source is the name queries address the extent by.
	Source string
	// View names the extent in plans: "matscan(View)".
	View string
	Objs []*oem.Object
}

var _ wrapper.Counter = MatExtent{}

// Name implements wrapper.Source.
func (e MatExtent) Name() string { return e.Source }

// Capabilities implements wrapper.Source: the extent is OEM in memory.
func (e MatExtent) Capabilities() wrapper.Capabilities { return wrapper.FullCapabilities() }

// Query implements wrapper.Source, evaluating q the way MatScanNode does.
func (e MatExtent) Query(q *msl.Rule) ([]*oem.Object, error) {
	return wrapper.Eval(q, e.Objs, oem.NewIDGen(e.Source+"q"))
}

// CountLabel implements wrapper.Counter.
func (e MatExtent) CountLabel(label string) (int, bool) {
	n := 0
	for _, o := range e.Objs {
		if o.Label == label {
			n++
		}
	}
	return n, true
}

// MatScanNode evaluates a query node's template against an in-memory
// extent (a MatExtent), instead of exchanging with a source. It
// keeps QueryNode's full semantics — leaf or parameterized, negation as
// anti-join, extraction under the input row, projection — but performs
// zero source exchanges: nothing is recorded in the statistics store's
// exchange counters, the trace's SourceStats, or the process metrics,
// which is exactly the property materialization buys, and what keeps
// delta rules and fused-view queries out of the real sources' statistics.
type MatScanNode struct {
	QueryNode
	// Extent is what the node scans in place of querying Source.
	Extent MatExtent
}

// Label implements Node.
func (n *MatScanNode) Label() string {
	kind := "matscan"
	if n.Child != nil {
		kind = "param-matscan"
	}
	if n.Negated {
		kind = "anti-" + kind
	}
	return kind + "(" + n.Extent.View + ")"
}

func (n *MatScanNode) run(rs *runState, kids []*Table) (*Table, error) {
	inputRows := []match.Env{nil}
	if len(kids) == 1 {
		inputRows = kids[0].Envs()
	}
	// Distinct instantiations share one local evaluation, mirroring the
	// batched query path's deduplication; evaluation stays serial
	// (extents are typically small, the dedup carries the savings).
	qs, of, err := n.instantiate(inputRows)
	if err != nil {
		return nil, err
	}
	answers := make([][]*oem.Object, len(qs))
	done := make([]bool, len(qs))
	out := outTable(n.Needed)
	for i, row := range inputRows {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		p := of[i]
		if !done[p] {
			if answers[p], err = wrapper.Eval(qs[p], n.Extent.Objs, rs.ex.IDGen); err != nil {
				return nil, err
			}
			done[p] = true
		}
		envs, err := n.extract(row, answers[p])
		if err != nil {
			return nil, err
		}
		for _, e := range envs {
			out.AppendEnv(e)
		}
	}
	return out, nil
}
