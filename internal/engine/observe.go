package engine

import (
	"strings"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/trace"
)

// This file wires the engine to the structured observability layer. A run
// whose Executor carries a Recorder registers the whole physical graph
// with the trace before execution starts — one trace.NodeStats per
// operator, one trace.SourceStats per distinct source — and every worker
// of the run reports rows, wall time, source exchanges, and each
// operator's output table as text into those records through atomic
// updates. The registration maps are read-only during the run, so
// concurrent workers share them without locks.
//
// Independent of any per-query trace, every source exchange is also
// recorded in the process-wide metrics registry (metrics.Default), which
// is what the remote server exposes for scraping.

// graphObs holds one run's registered trace records.
type graphObs struct {
	qt      *trace.QueryTrace
	nodes   map[Node]*trace.NodeStats
	sources map[string]*trace.SourceStats
}

// newGraphObs registers the graph rooted at root with qt in preorder
// (parents before kids, so parents get lower ids and render first).
func newGraphObs(qt *trace.QueryTrace, root Node) *graphObs {
	g := &graphObs{
		qt:      qt,
		nodes:   make(map[Node]*trace.NodeStats),
		sources: make(map[string]*trace.SourceStats),
	}
	g.register(root)
	return g
}

func (g *graphObs) register(n Node) *trace.NodeStats {
	if ns, ok := g.nodes[n]; ok {
		return ns // shared subgraph: one record
	}
	source := ""
	if qn, ok := n.(*QueryNode); ok {
		source = qn.Source
		if _, seen := g.sources[source]; !seen {
			g.sources[source] = g.qt.Source(source)
		}
	}
	ns := g.qt.NewNode(n.Label(), source, n.Detail())
	if qn, ok := n.(*QueryNode); ok {
		if qn.HasEst {
			ns.SetEstimate(qn.EstRows)
		}
		ns.SetShape(qn.Shape)
	}
	// A matscan deliberately registers no source: it performs no
	// exchanges, and its absence from SourceStats is the observable
	// zero-round-trip property of a materialized-view hit.
	if ms, ok := n.(*MatScanNode); ok && ms.HasEst {
		ns.SetEstimate(ms.EstRows)
	}
	g.nodes[n] = ns
	kids := n.Kids()
	kidStats := make([]*trace.NodeStats, 0, len(kids))
	for _, k := range kids {
		kidStats = append(kidStats, g.register(k))
	}
	ns.SetKids(kidStats)
	return ns
}

// nodeObs returns the trace record for n, or nil when the run is
// untraced. The nil result is a valid no-op recorder.
func (rs *runState) nodeObs(n Node) *trace.NodeStats {
	if rs.obs == nil {
		return nil
	}
	return rs.obs.nodes[n]
}

// srcObs returns the trace record for the named source, or nil.
func (rs *runState) srcObs(source string) *trace.SourceStats {
	if rs.obs == nil {
		return nil
	}
	return rs.obs.sources[source]
}

// observeNode reports one full evaluation of a materialized operator to
// its trace record: rows in and out, wall time, and the output table's
// first 8 rows as text (for trace.QueryTrace.RenderFlow).
func (rs *runState) observeNode(n Node, kids []*Table, out *Table, wall time.Duration) {
	if ns := rs.nodeObs(n); ns != nil {
		in := 0
		for _, k := range kids {
			if k != nil {
				in += k.Len()
			}
		}
		var sample strings.Builder
		out.Format(&sample, 8)
		ns.AddCall(in, out.Len(), wall, sample.String())
	}
}

// recordExchange reports one source round-trip performed on behalf of a
// query node: to the statistics store the optimizer learns from, to the
// run's trace (when recording), and to the process-wide metrics registry.
func (rs *runState) recordExchange(n *QueryNode, queries int, d time.Duration) {
	if st := rs.ex.Stats; st != nil {
		st.RecordExchange(n.Source, queries)
		st.RecordLatency(n.Source, d)
	}
	rs.nodeObs(n).AddExchanges(1, queries)
	rs.srcObs(n.Source).AddExchange(queries, d)
	reg := metrics.Default()
	reg.Counter("engine.exchanges").Inc()
	reg.Counter("engine.queries").Add(int64(queries))
	reg.Counter("engine.exchanges." + n.Source).Inc()
	reg.Histogram("engine.exchange_latency").Observe(d)
}
