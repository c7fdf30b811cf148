package engine

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/trace"
)

// This file keeps one run's record of what it observed and publishes it
// once, when the run ends, to the statistics store (Section 3.5), the
// process metrics and, when the run is traced, the query's trace. The
// record is laid out before execution starts — one slot per operator in
// preorder, one per source queried — and the executor walks the graph
// through it. Workers write to it only with atomic adds: no lock, map or
// string per exchange or probe. The answer cache reports its lookups to
// the slot of the operator that made them through the exchange context
// (trace.CacheEvent). An extent scan has no source slot and its slot
// never sees traffic: the zero-round-trip property of a materialized view.

// runRecord is one run's observations.
type runRecord struct {
	ops     []opRecord
	sources []srcRecord
	qt      *trace.QueryTrace // nil when the run is untraced
}

// opRecord is one operator's slot. ops[i+1:end] is the operator's
// subtree, so a slot's kids are i+1, then each kid's end in turn.
type opRecord struct {
	node Node
	end  int
	// q is the node when it is a query node, and src its source's slot
	// (-1 for an extent scan). ctx is the context q's exchanges start
	// from: it carries the slot, so the cache's lookups land here.
	q   *QueryNode
	src int
	ctx context.Context
	ts  *trace.NodeStats

	rowsIn, rowsOut        atomic.Int64
	exchanges, queries     atomic.Int64
	answers                atomic.Int64 // answer sizes of the probes, summed
	cacheHits, cacheMisses atomic.Int64
}

// srcRecord is one source's slot: the latency of every exchange with it.
// Its other traffic is the sum of its operators' slots.
type srcRecord struct {
	name    string
	ts      *trace.SourceStats
	latency metrics.Histogram
}

// initRecord lays out the record for the graph rooted at root, one slot
// per operator, and, when qt is non-nil, registers the graph with the
// trace: nodes in preorder (parents before kids, so parents get lower ids
// and render first), sources in order of first use.
func (rs *runState) initRecord(root Node, qt *trace.QueryTrace) {
	r := &rs.rec
	r.qt = qt
	var buf [16]layoutSlot // a plan's graph rarely outgrows it: no allocation
	layout := appendLayout(buf[:0], root)
	r.ops = make([]opRecord, len(layout))
	for i, l := range layout {
		op := &r.ops[i]
		op.node, op.end, op.src = l.node, l.end, -1
		if q, ok := l.node.(*QueryNode); ok {
			op.q = q
			if q.View == "" {
				op.src = r.source(q.Source)
				op.ctx = trace.WithCacheObserver(rs.ctx, op)
			}
		}
	}
	if qt == nil {
		return
	}
	for i := range r.sources {
		r.sources[i].ts = qt.Source(r.sources[i].name)
	}
	for i := range r.ops {
		op := &r.ops[i]
		var source, shape string
		if op.src >= 0 {
			source, shape = op.q.Source, op.q.Shape
		}
		op.ts = qt.NewNode(op.node.Label(), source, op.node.Detail())
		op.ts.SetShape(shape)
		if op.q != nil && op.q.HasEst {
			op.ts.SetEstimate(op.q.EstRows)
		}
	}
	for i := range r.ops {
		var kids []*trace.NodeStats
		for k := i + 1; k < r.ops[i].end; k = r.ops[k].end {
			kids = append(kids, r.ops[k].ts)
		}
		r.ops[i].ts.SetKids(kids)
	}
}

// layoutSlot is one operator of the graph in preorder and the end of its
// subtree's slots.
type layoutSlot struct {
	node Node
	end  int
}

// appendLayout appends the slots of n's subtree in preorder.
func appendLayout(dst []layoutSlot, n Node) []layoutSlot {
	if n == nil {
		return dst
	}
	i := len(dst)
	dst = append(dst, layoutSlot{node: n})
	eachKid(n, func(k Node) { dst = appendLayout(dst, k) })
	dst[i].end = len(dst)
	return dst
}

// Walk visits every operator of the graph rooted at n, in preorder.
func Walk(n Node, visit func(Node)) {
	if n == nil {
		return
	}
	visit(n)
	eachKid(n, func(k Node) { Walk(k, visit) })
}

// unary is an operator with at most one input, its Child.
type unary interface{ input() Node }

// eachKid calls fn on each input of n, reading a unary operator's from
// its field: Kids would build a slice for it on every call.
func eachKid(n Node, fn func(Node)) {
	if u, ok := n.(unary); ok {
		if k := u.input(); k != nil {
			fn(k)
		}
		return
	}
	for _, k := range n.Kids() {
		fn(k)
	}
}

// source returns the slot of the named source, adding it on first use.
func (r *runRecord) source(name string) int {
	for i := range r.sources {
		if r.sources[i].name == name {
			return i
		}
	}
	if r.sources == nil {
		r.sources = make([]srcRecord, 0, 2)
	}
	r.sources = append(r.sources, srcRecord{name: name})
	return len(r.sources) - 1
}

// CacheAccess implements trace.CacheObserver: one answer-cache lookup
// made by one of the operator's exchanges.
func (op *opRecord) CacheAccess(hit bool) {
	if hit {
		op.cacheHits.Add(1)
	} else {
		op.cacheMisses.Add(1)
	}
}

// observe records one completed evaluation of op: rows in and out and,
// when traced, the wall time and the output table's first 8 rows as text
// (for trace.QueryTrace.RenderFlow).
func (rs *runState) observe(op *opRecord, kids []*Table, out *Table, wall time.Duration) {
	in := 0
	for _, k := range kids {
		if k != nil {
			in += k.Len()
		}
	}
	op.rowsIn.Add(int64(in))
	op.rowsOut.Add(int64(out.Len()))
	if op.ts != nil {
		var sample strings.Builder
		out.Format(&sample, 8)
		op.ts.AddCall(in, out.Len(), wall, sample.String())
	}
}

// recordExchange records one kept source round-trip made by op: the
// queries it carried, the answers they returned, and its latency.
func (rs *runState) recordExchange(op *opRecord, queries, answers int, d time.Duration) {
	op.exchanges.Add(1)
	op.queries.Add(int64(queries))
	op.answers.Add(int64(answers))
	rs.rec.sources[op.src].latency.Observe(d)
}

// sourceTraffic sums the traffic of the operators querying source s.
func (r *runRecord) sourceTraffic(s int) (exchanges, queries, hits, misses int64) {
	for i := range r.ops {
		if op := &r.ops[i]; op.src == s {
			exchanges += op.exchanges.Load()
			queries += op.queries.Load()
			hits += op.cacheHits.Load()
			misses += op.cacheMisses.Load()
		}
	}
	return exchanges, queries, hits, misses
}

// publish hands the record to the metrics registry, the trace and the
// statistics store. Run and RunResult call it on every exit, so a failed
// or cancelled run still reports the traffic it made.
func (rs *runState) publish() {
	r := &rs.rec
	reg := metrics.Default()
	for s := range r.sources {
		src := &r.sources[s]
		exchanges, queries, hits, misses := r.sourceTraffic(s)
		src.ts.AddTraffic(exchanges, queries, hits, misses, &src.latency)
		if exchanges > 0 {
			reg.Counter("engine.exchanges").Add(exchanges)
			reg.Counter("engine.queries").Add(queries)
			reg.Counter("engine.exchanges." + src.name).Add(exchanges)
			reg.Histogram("engine.exchange_latency").Merge(&src.latency)
		}
	}
	for i := range r.ops {
		if op := &r.ops[i]; op.ts != nil && op.src >= 0 {
			op.ts.AddTraffic(op.exchanges.Load(), op.queries.Load(), op.cacheHits.Load(), op.cacheMisses.Load())
		}
	}
	if rs.ex.Stats != nil {
		rs.ex.Stats.learn(r)
	}
}
