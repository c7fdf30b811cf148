// Package trace is MedMaker's structured per-query observability layer:
// one QueryTrace per answered query records phase timings (parse → view
// expansion → plan → execute), a per-node account of the physical
// datamerge graph (rows in/out, source exchanges, cache traffic, wall
// time), and per-source exchange latency histograms.
//
// The engine keeps its own record of each run and fills a traced run's
// node and source traffic from it once, when the run ends; rows, wall
// time and morsel counts arrive as operators complete, through atomic
// counters, so parallel workers update one record race-free. Phases are
// contiguous segments sharing boundary timestamps, so phase durations
// sum exactly to the trace's total. Every recording method is
// nil-receiver-safe: instrumented code paths call them unconditionally
// and an untraced query pays only a nil check.
//
// Attribution across layers flows through contexts: the engine attaches
// the record of the operator an exchange runs for to the exchange's
// context (WithCacheObserver), and the wrapper-level answer cache —
// which cannot see the engine — reports hits and misses to it via
// CacheEvent.
package trace

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"medmaker/internal/metrics"
)

// Canonical phase names used by the mediator's query path.
const (
	PhaseParse   = "parse"
	PhaseExpand  = "expand"
	PhasePlan    = "plan"
	PhaseExecute = "execute"
)

// QueryTrace records one query's answer path. Create with New, close with
// End, read with Snapshot, Render or RenderFlow. A nil *QueryTrace is a
// valid no-op recorder.
type QueryTrace struct {
	query string
	start time.Time

	mu          sync.Mutex
	phases      []phaseRecord
	phaseStart  time.Time // start of the open phase; zero when none open
	phaseName   string
	annotations map[string]int64
	nodes       []*NodeStats
	sources     map[string]*SourceStats
	srcOrder    []string
	total       time.Duration
	ended       bool
}

type phaseRecord struct {
	name string
	d    time.Duration
}

// New starts a trace for the given query text.
func New(query string) *QueryTrace {
	return &QueryTrace{query: query, start: time.Now()}
}

// Phase closes the open phase (if any) and opens a named one. The first
// phase's segment begins at the trace's start, and each later phase
// begins exactly where the previous ended, so the recorded durations
// partition the trace's total wall time.
func (t *QueryTrace) Phase(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return
	}
	t.closePhaseLocked(now)
	t.phaseStart = now
	t.phaseName = name
	if len(t.phases) == 0 {
		// Attribute the pre-phase gap (construction to first Phase call)
		// to the first phase so the partition covers the whole trace.
		t.phaseStart = t.start
	}
}

// closePhaseLocked ends the open phase at now.
func (t *QueryTrace) closePhaseLocked(now time.Time) {
	if t.phaseStart.IsZero() {
		return
	}
	t.phases = append(t.phases, phaseRecord{name: t.phaseName, d: now.Sub(t.phaseStart)})
	t.phaseStart = time.Time{}
	t.phaseName = ""
}

// End closes the open phase and fixes the trace's total duration. It is
// idempotent; recording methods called after End are dropped.
func (t *QueryTrace) End() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return
	}
	t.closePhaseLocked(now)
	t.total = now.Sub(t.start)
	t.ended = true
}

// Total returns the trace's wall time: fixed by End, running until then.
func (t *QueryTrace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return t.total
	}
	return time.Since(t.start)
}

// Annotate accumulates a named integer fact about the run (e.g. how many
// logical rules expansion produced). Repeated calls add.
func (t *QueryTrace) Annotate(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return
	}
	if t.annotations == nil {
		t.annotations = make(map[string]int64)
	}
	t.annotations[key] += v
}

// NewNode registers one physical-graph operator and returns its record.
// Registration happens before execution (single-threaded, in preorder:
// parents before their subtrees), so records carry stable ids matching
// registration order.
func (t *QueryTrace) NewNode(kind, source, detail string) *NodeStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := &NodeStats{id: len(t.nodes), kind: kind, source: source, detail: detail}
	t.nodes = append(t.nodes, ns)
	return ns
}

// Source registers (or returns) the per-source record for name.
func (t *QueryTrace) Source(name string) *SourceStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sources == nil {
		t.sources = make(map[string]*SourceStats)
	}
	s := t.sources[name]
	if s == nil {
		s = &SourceStats{name: name, latency: &metrics.Histogram{}}
		t.sources[name] = s
		t.srcOrder = append(t.srcOrder, name)
	}
	return s
}

// NodeStats is the execution record of one physical-graph operator. All
// counters are atomic: the parallel executor's workers update one record
// from several goroutines.
type NodeStats struct {
	id     int
	kind   string
	source string
	detail string

	// estRows/hasEst, shape, and kids are written during (single-threaded)
	// graph registration, before execution starts, and only read afterwards.
	estRows float64
	hasEst  bool
	shape   string
	kids    []int

	calls       atomic.Int64
	rowsIn      atomic.Int64
	rowsOut     atomic.Int64
	exchanges   atomic.Int64
	queries     atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	wallNanos   atomic.Int64
	morsels     atomic.Int64
	maxWorkers  atomic.Int64
	sample      atomic.Pointer[string]
}

// SetEstimate attaches the optimizer's cardinality estimate.
func (n *NodeStats) SetEstimate(rows float64) {
	if n == nil {
		return
	}
	n.estRows, n.hasEst = rows, true
}

// SetShape attaches the statistics shape key the operator records its
// feedback under (registration time only).
func (n *NodeStats) SetShape(shape string) {
	if n == nil {
		return
	}
	n.shape = shape
}

// SetKids records the operator's input records (registration time only).
func (n *NodeStats) SetKids(kids []*NodeStats) {
	if n == nil {
		return
	}
	n.kids = n.kids[:0]
	for _, k := range kids {
		if k != nil {
			n.kids = append(n.kids, k.id)
		}
	}
}

// AddCall records one completed evaluation of the operator over in input
// rows producing out rows in d of wall time, with the output table
// rendered as text for RenderFlow (display, not data: it stays out of
// Snapshot). The executor calls it once per operator per run.
func (n *NodeStats) AddCall(in, out int, d time.Duration, sample string) {
	if n == nil {
		return
	}
	n.calls.Add(1)
	n.rowsIn.Add(int64(in))
	n.rowsOut.Add(int64(out))
	n.wallNanos.Add(int64(d))
	n.sample.Store(&sample)
}

// AddTraffic records source traffic issued by this operator: exchanges
// network round-trips carrying queries instantiated queries, and the
// answer-cache lookups they made.
func (n *NodeStats) AddTraffic(exchanges, queries, cacheHits, cacheMisses int64) {
	if n == nil {
		return
	}
	n.exchanges.Add(exchanges)
	n.queries.Add(queries)
	n.cacheHits.Add(cacheHits)
	n.cacheMisses.Add(cacheMisses)
}

// AddMorsels records one morsel-parallel pass over the operator's input:
// how many morsels the input split into and how many pool workers
// processed them. Morsels accumulate across passes (an operator may fan
// out more than once, e.g. a join's build and probe); Workers reports
// the widest pool observed.
func (n *NodeStats) AddMorsels(morsels, workers int) {
	if n == nil {
		return
	}
	n.morsels.Add(int64(morsels))
	for {
		cur := n.maxWorkers.Load()
		if int64(workers) <= cur || n.maxWorkers.CompareAndSwap(cur, int64(workers)) {
			return
		}
	}
}

// SourceStats aggregates one source's traffic across the whole query.
type SourceStats struct {
	name        string
	exchanges   atomic.Int64
	queries     atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	latency     *metrics.Histogram
}

// AddTraffic records source traffic: exchanges round-trips carrying
// queries instantiated queries, their answer-cache lookups, and the
// exchanges' latencies.
func (s *SourceStats) AddTraffic(exchanges, queries, cacheHits, cacheMisses int64, latency *metrics.Histogram) {
	if s == nil {
		return
	}
	s.exchanges.Add(exchanges)
	s.queries.Add(queries)
	s.cacheHits.Add(cacheHits)
	s.cacheMisses.Add(cacheMisses)
	s.latency.Merge(latency)
}

// --- context attribution -------------------------------------------------

type qtKey struct{}

// NewContext returns ctx carrying qt, for layers (expansion, planning)
// that annotate the active trace without threading it explicitly. A nil
// qt returns ctx unchanged.
func NewContext(ctx context.Context, qt *QueryTrace) context.Context {
	if qt == nil {
		return ctx
	}
	return context.WithValue(ctx, qtKey{}, qt)
}

// FromContext returns the trace carried by ctx, or nil. The nil result is
// directly usable: every QueryTrace method accepts a nil receiver.
func FromContext(ctx context.Context) *QueryTrace {
	qt, _ := ctx.Value(qtKey{}).(*QueryTrace)
	return qt
}

type obsKey struct{}

// CacheObserver receives the answer-cache lookups made on behalf of one
// source exchange.
type CacheObserver interface {
	CacheAccess(hit bool)
}

// WithCacheObserver returns ctx carrying obs, the observer the current
// exchange's cache lookups are attributed to.
func WithCacheObserver(ctx context.Context, obs CacheObserver) context.Context {
	return context.WithValue(ctx, obsKey{}, obs)
}

// CacheEvent reports one answer-cache lookup outcome to the observer the
// context attributes exchanges to; without one it is a no-op. The
// wrapper-level cache calls this on every lookup.
func CacheEvent(ctx context.Context, hit bool) {
	if obs, ok := ctx.Value(obsKey{}).(CacheObserver); ok {
		obs.CacheAccess(hit)
	}
}

// --- snapshots -----------------------------------------------------------

// Summary is a point-in-time copy of a QueryTrace as plain data:
// json-encodable for cmd tools and assertable in tests.
type Summary struct {
	Query       string           `json:"query"`
	TotalNanos  int64            `json:"total_ns"`
	Phases      []PhaseSummary   `json:"phases,omitempty"`
	Annotations map[string]int64 `json:"annotations,omitempty"`
	Nodes       []NodeSummary    `json:"nodes,omitempty"`
	Sources     []SourceSummary  `json:"sources,omitempty"`
}

// PhaseSummary is one phase's wall-time segment.
type PhaseSummary struct {
	Name  string `json:"name"`
	Nanos int64  `json:"ns"`
}

// NodeSummary is one operator's record. Kids are ids into Summary.Nodes.
type NodeSummary struct {
	ID          int     `json:"id"`
	Kind        string  `json:"kind"`
	Source      string  `json:"source,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	Kids        []int   `json:"kids,omitempty"`
	Calls       int64   `json:"calls"`
	RowsIn      int64   `json:"rows_in"`
	RowsOut     int64   `json:"rows_out"`
	Exchanges   int64   `json:"exchanges,omitempty"`
	Queries     int64   `json:"queries,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`
	CacheMisses int64   `json:"cache_misses,omitempty"`
	WallNanos   int64   `json:"wall_ns"`
	Morsels     int64   `json:"morsels,omitempty"`
	Workers     int64   `json:"workers,omitempty"`
	EstRows     float64 `json:"est_rows,omitempty"`
	HasEst      bool    `json:"has_est,omitempty"`
	Shape       string  `json:"shape,omitempty"`
	// Misestimate flags a node whose actual per-query cardinality diverges
	// from the optimizer's estimate by more than MisestimateRatio in either
	// direction — the EXPLAIN ANALYZE cue that the plan was built on bad
	// numbers before a benchmark has to discover it.
	Misestimate bool `json:"misestimate,omitempty"`
}

// MisestimateRatio is the actual/estimated divergence (either way) past
// which a node is flagged.
const MisestimateRatio = 4.0

// misestimated compares an estimate against the observed per-query
// cardinality. Sub-row disagreements (both below one row) never flag.
func misestimated(est, actual float64) bool {
	if est < 1 && actual < 1 {
		return false
	}
	hi, lo := est, actual
	if actual > est {
		hi, lo = actual, est
	}
	if lo <= 0 {
		return hi >= MisestimateRatio
	}
	return hi/lo > MisestimateRatio
}

// SourceSummary is one source's aggregated traffic.
type SourceSummary struct {
	Name        string                    `json:"name"`
	Exchanges   int64                     `json:"exchanges"`
	Queries     int64                     `json:"queries"`
	CacheHits   int64                     `json:"cache_hits"`
	CacheMisses int64                     `json:"cache_misses"`
	Latency     metrics.HistogramSnapshot `json:"latency"`
}

// Snapshot copies the trace. Callers normally snapshot after End; a
// snapshot of a live trace sees whatever has been recorded so far.
func (t *QueryTrace) Snapshot() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{Query: t.query, TotalNanos: int64(t.total)}
	if !t.ended {
		s.TotalNanos = int64(time.Since(t.start))
	}
	for _, p := range t.phases {
		s.Phases = append(s.Phases, PhaseSummary{Name: p.name, Nanos: int64(p.d)})
	}
	if len(t.annotations) > 0 {
		s.Annotations = make(map[string]int64, len(t.annotations))
		for k, v := range t.annotations {
			s.Annotations[k] = v
		}
	}
	for _, n := range t.nodes {
		ns := NodeSummary{
			ID:          n.id,
			Kind:        n.kind,
			Source:      n.source,
			Detail:      n.detail,
			Kids:        append([]int(nil), n.kids...),
			Calls:       n.calls.Load(),
			RowsIn:      n.rowsIn.Load(),
			RowsOut:     n.rowsOut.Load(),
			Exchanges:   n.exchanges.Load(),
			Queries:     n.queries.Load(),
			CacheHits:   n.cacheHits.Load(),
			CacheMisses: n.cacheMisses.Load(),
			WallNanos:   n.wallNanos.Load(),
			Morsels:     n.morsels.Load(),
			Workers:     n.maxWorkers.Load(),
			EstRows:     n.estRows,
			HasEst:      n.hasEst,
			Shape:       n.shape,
		}
		if ns.HasEst && ns.Calls > 0 {
			perQuery := float64(ns.RowsOut)
			if ns.Queries > 0 {
				perQuery /= float64(ns.Queries)
			}
			ns.Misestimate = misestimated(ns.EstRows, perQuery)
		}
		s.Nodes = append(s.Nodes, ns)
	}
	for _, name := range t.srcOrder {
		src := t.sources[name]
		s.Sources = append(s.Sources, SourceSummary{
			Name:        name,
			Exchanges:   src.exchanges.Load(),
			Queries:     src.queries.Load(),
			CacheHits:   src.cacheHits.Load(),
			CacheMisses: src.cacheMisses.Load(),
			Latency:     src.latency.Snapshot(),
		})
	}
	return s
}

// Render writes the trace as text: total and phase timings, the annotated
// physical graph (estimated vs. actual cardinalities), and per-source
// exchange traffic — the EXPLAIN ANALYZE form of the paper's Figure 3.6
// dataflow rendering.
func (t *QueryTrace) Render(w io.Writer) {
	s := t.Snapshot()
	s.Render(w)
}

// Render writes the summary as text (see QueryTrace.Render).
func (s Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "-- query: %s\n", s.Query)
	total := time.Duration(s.TotalNanos)
	var parts []string
	for _, p := range s.Phases {
		parts = append(parts, fmt.Sprintf("%s %s", p.Name, time.Duration(p.Nanos).Round(time.Microsecond)))
	}
	fmt.Fprintf(w, "-- total %s", total.Round(time.Microsecond))
	if len(parts) > 0 {
		fmt.Fprintf(w, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintln(w)
	if len(s.Annotations) > 0 {
		keys := make([]string, 0, len(s.Annotations))
		for k := range s.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			keys[i] = fmt.Sprintf("%s=%d", k, s.Annotations[k])
		}
		fmt.Fprintf(w, "-- %s\n", strings.Join(keys, " "))
	}
	if len(s.Nodes) > 0 {
		fmt.Fprintln(w, "-- physical datamerge graph (actual vs. estimated) --")
		isKid := make(map[int]bool)
		for _, n := range s.Nodes {
			for _, k := range n.Kids {
				isKid[k] = true
			}
		}
		byID := make(map[int]NodeSummary, len(s.Nodes))
		for _, n := range s.Nodes {
			byID[n.ID] = n
		}
		for _, n := range s.Nodes {
			if !isKid[n.ID] {
				renderNode(w, byID, n, 0)
			}
		}
	}
	for _, src := range s.Sources {
		fmt.Fprintf(w, "source %s: %d exchanges carrying %d queries", src.Name, src.Exchanges, src.Queries)
		if src.CacheHits+src.CacheMisses > 0 {
			fmt.Fprintf(w, ", cache %d/%d hits", src.CacheHits, src.CacheHits+src.CacheMisses)
		}
		if src.Latency.Count > 0 {
			fmt.Fprintf(w, ", latency %s", src.Latency)
		}
		fmt.Fprintln(w)
	}
}

// RenderFlow writes Figure 3.6's flowing binding tables: per completed
// operator, a " [label] detail -> N rows (wall)" line and its output
// table. Graphs render in registration order, each in post-order (the
// order serial bottom-up execution completes operators), so the text is
// the same at any parallelism. The planner emits trees, so every
// operator renders once.
func (t *QueryTrace) RenderFlow(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	nodes := t.nodes // ids index nodes; registration fields are immutable
	t.mu.Unlock()
	isKid := make([]bool, len(nodes))
	for _, n := range nodes {
		for _, k := range n.kids {
			isKid[k] = true
		}
	}
	var walk func(n *NodeStats)
	walk = func(n *NodeStats) {
		for _, k := range n.kids {
			walk(nodes[k])
		}
		if sample := n.sample.Load(); sample != nil {
			fmt.Fprintf(w, " [%s] %s -> %d rows (%s)\n%s", n.kind, Clip(n.detail, 100), n.rowsOut.Load(),
				time.Duration(n.wallNanos.Load()).Round(time.Microsecond), *sample)
		}
	}
	for i, n := range nodes {
		if !isKid[i] {
			walk(n)
		}
	}
}

func renderNode(w io.Writer, byID map[int]NodeSummary, n NodeSummary, depth int) {
	fmt.Fprintf(w, "%s%s: %s\n", strings.Repeat("    ", depth), n.Kind, Clip(n.Detail, 100))
	stats := fmt.Sprintf("rows=%d", n.RowsOut)
	if n.HasEst {
		stats += fmt.Sprintf(" (est %.1f)", n.EstRows)
	}
	if n.Misestimate {
		stats += " MISESTIMATE"
	}
	stats += fmt.Sprintf(" in=%d calls=%d wall=%s", n.RowsIn, n.Calls,
		time.Duration(n.WallNanos).Round(time.Microsecond))
	if n.Exchanges > 0 {
		stats += fmt.Sprintf(" exchanges=%d queries=%d", n.Exchanges, n.Queries)
	}
	if n.Morsels > 0 {
		stats += fmt.Sprintf(" morsels=%d workers=%d", n.Morsels, n.Workers)
	}
	if n.CacheHits+n.CacheMisses > 0 {
		stats += fmt.Sprintf(" cache=%d/%d", n.CacheHits, n.CacheHits+n.CacheMisses)
	}
	fmt.Fprintf(w, "%s  [%s]\n", strings.Repeat("    ", depth), stats)
	for _, k := range n.Kids {
		if kid, ok := byID[k]; ok {
			renderNode(w, byID, kid, depth+1)
		}
	}
}

// Clip prepares s for a one-line display cell of about n bytes: newlines
// become spaces, and a longer string is cut to at most n-1 bytes, backed
// up to a rune boundary so multibyte text stays valid UTF-8, then marked
// with "…".
func Clip(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) <= n {
		return s
	}
	cut := n - 1
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}
