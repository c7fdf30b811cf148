package engine

import (
	"fmt"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Extents binds the in-memory extents a run reads — a materialized view,
// the fused view, the objects one insert added — to the names its
// MatScanNodes scan. The objects are shared with their producer and are
// never mutated (the engine copies source material first) or looked up
// by oid, so objects may share one.
type Extents map[string][]*oem.Object

// MatScanNode evaluates a query node's template against an in-memory
// extent instead of exchanging with a source. The plan only names the
// extent (QueryNode.Source); each run resolves the name in
// Executor.Extents, so one plan serves whatever the extent holds, and a
// run binding nothing under the name fails. The node keeps QueryNode's
// full semantics — leaf or parameterized, negation as anti-join,
// extraction under the input row, projection — with zero source
// exchanges: nothing reaches the statistics store, the trace's
// SourceStats or the process metrics, which keeps delta rules and
// fused-view queries out of the real sources' statistics.
type MatScanNode struct {
	QueryNode
	// View names the extent in plans: "matscan(View)".
	View string
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
	return kind + "(" + n.View + ")"
}

func (n *MatScanNode) run(rs *runState, kids []*Table) (*Table, error) {
	objs, ok := rs.ex.Extents[n.Source]
	if !ok {
		return nil, fmt.Errorf("engine: extent %q is not bound", n.Source)
	}
	in := unitTable()
	if len(kids) == 1 {
		in = kids[0]
	}
	// Distinct instantiations share one local evaluation, mirroring the
	// batched query path's deduplication.
	qs, of, err := n.instantiate(in)
	if err != nil {
		return nil, err
	}
	answers := make([][]*oem.Object, len(qs))
	for i, q := range qs {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		if answers[i], err = wrapper.Eval(q, objs, rs.ex.IDGen); err != nil {
			return nil, err
		}
	}
	return n.extractRows(rs, in, of, answers)
}
