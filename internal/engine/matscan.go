package engine

import (
	"fmt"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Extents binds the in-memory extents a run reads — a materialized view,
// the fused view, the objects one insert added — to the names its
// MatScanNodes scan. The objects are shared with their producer and are
// never mutated (the engine copies source material first) or looked up
// by oid, so objects may share one.
type Extents map[string][]*oem.Object

// MatScanNode is a query node over an in-memory extent instead of a
// source. The plan only names the extent (QueryNode.Source); each run
// resolves the name in Executor.Extents, so one plan serves whatever the
// extent holds, and a run binding nothing under the name fails. The node
// runs QueryNode's body — leaf or parameterized, negation as anti-join,
// extraction under the input row, projection — with the extent as every
// probe's candidates, as a local scanner's are, and with zero source
// exchanges, so nothing reaches the statistics store, the trace's
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

// run deduplicates probes at every QueryBatch: a scan records no
// exchanges, so the per-tuple mode has nothing to show here.
func (n *MatScanNode) run(rs *runState, kids []*Table) (*Table, error) {
	extent, ok := rs.ex.Extents[n.Source]
	if !ok {
		return nil, fmt.Errorf("engine: extent %q is not bound", n.Source)
	}
	if wrapper.LocalConjunct(n.Send) == nil {
		return nil, fmt.Errorf("engine: extent scan of %s: want a query O :- O:<pattern>", n.Send)
	}
	// The extent's size, the node's estimate, says nothing about one
	// probe's answer: extraction presizes nothing.
	out, _, err := n.eval(rs, kids, false, 0, func(qs []*msl.Rule) ([][]*oem.Object, error) {
		cands := make([][]*oem.Object, len(qs))
		for i := range cands {
			cands[i] = extent
		}
		return cands, nil
	})
	return out, err
}
