package engine

import (
	"fmt"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
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
// extraction under the input row, projection — and only its fetch
// differs: each distinct probe is matched over the extent, with zero
// source exchanges, so nothing reaches the statistics store, the trace's
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
	return n.eval(rs, kids, false, func(qs []*msl.Rule) ([][]*oem.Object, error) {
		return scanExtent(rs, extent, qs)
	})
}

// scanExtent answers each query O :- O:<pattern>@view over the extent as
// a source's wrapper.EvalWith would: the objects bound to O by matching
// the pattern, structural duplicates removed.
func scanExtent(rs *runState, extent []*oem.Object, qs []*msl.Rule) ([][]*oem.Object, error) {
	answers := make([][]*oem.Object, len(qs))
	for i, q := range qs {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		var pc *msl.PatternConjunct
		if len(q.Tail) == 1 {
			pc, _ = q.Tail[0].(*msl.PatternConjunct)
		}
		if pc == nil || pc.ObjVar == nil || pc.Negated {
			return nil, fmt.Errorf("engine: extent scan of %s: want a query O :- O:<pattern>", q)
		}
		var objs []*oem.Object
		if err := match.TopsEach(pc.Pattern, pc.ObjVar, extent, nil, func(m match.Match) {
			b, _ := m.Lookup(pc.ObjVar.Name)
			objs = append(objs, b.Obj)
		}); err != nil {
			return nil, err
		}
		answers[i] = oem.DedupStructural(objs, nil)
	}
	return answers, nil
}
