// Package metrics is MedMaker's process-wide measurement substrate: named
// monotonic counters and bounded latency histograms, collected into an
// expvar-style snapshot. The engine records source-exchange traffic here,
// the remote server records per-request-kind traffic, and the remote
// protocol ships Snapshots over the wire so a mediator can scrape the
// traffic of a wrapper it does not share a process with.
//
// Counters and histograms are lock-free on the hot path (atomic adds);
// the registry itself takes a lock only when a name is first registered
// or a snapshot is taken. All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// bucketBounds are the histogram's fixed upper bounds in nanoseconds,
// spanning 100µs to 10s roughly geometrically; observations above the last
// bound land in the implicit +Inf bucket. A fixed layout keeps every
// histogram's memory bounded (len(bucketBounds)+1 cells) and makes
// snapshots from different processes directly comparable.
var bucketBounds = [...]int64{
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(250 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2500 * time.Millisecond),
	int64(5 * time.Second),
	int64(10 * time.Second),
}

// Histogram accumulates duration observations into fixed exponential
// buckets, tracking count, sum, min, and max.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [len(bucketBounds) + 1]atomic.Int64
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	// min is stored as ns+1 so 0 can mean "unset" (a genuine 0ns
	// observation stores 1).
	h.extend(ns+1, ns)
	i := sort.Search(len(bucketBounds), func(i int) bool { return ns <= bucketBounds[i] })
	h.buckets[i].Add(1)
}

// extend lowers min to minTag (a min as stored: +1, 0 = unset) and
// raises max to max.
func (h *Histogram) extend(minTag, max int64) {
	for cur := h.min.Load(); minTag != 0 && (cur == 0 || minTag < cur); cur = h.min.Load() {
		if h.min.CompareAndSwap(cur, minTag) {
			break
		}
	}
	for cur := h.max.Load(); max > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, max) {
			break
		}
	}
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Merge adds o's observations to h, as if each had been observed on h.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	h.extend(o.min.Load(), o.max.Load())
	for i := range o.buckets {
		if b := o.buckets[i].Load(); b != 0 {
			h.buckets[i].Add(b)
		}
	}
}

// Snapshot copies the histogram's counters. Reads are not atomic as a
// group — a snapshot taken mid-observation may be off by one in flight —
// which is the usual monitoring contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m > 0 {
		s.Min = m - 1 // undo the +1 "set" tag
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(-1) // +Inf
		if i < len(bucketBounds) {
			le = bucketBounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, N: n})
	}
	return s
}

// Bucket is one non-empty histogram cell: N observations at most LE
// nanoseconds (LE == -1 means the +Inf overflow bucket).
type Bucket struct {
	LE int64 `json:"le_ns"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of one histogram. All
// durations are nanoseconds. The zero value means "no observations".
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum_ns"`
	Min     int64    `json:"min_ns"`
	Max     int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) read
// off the bucket layout: the bound of the first bucket whose cumulative
// count reaches q of the total. With no observations it returns 0; for
// observations beyond the last bound it returns the observed max.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= target {
			if b.LE < 0 {
				return time.Duration(s.Max)
			}
			return time.Duration(b.LE)
		}
	}
	return time.Duration(s.Max)
}

// String renders the snapshot compactly for traces.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%s p50≤%s p95≤%s max=%s",
		s.Count,
		s.Mean().Round(time.Microsecond),
		s.Quantile(0.50).Round(time.Microsecond),
		s.Quantile(0.95).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one histogram's snapshot with its registry name.
type NamedHistogram struct {
	Name string `json:"name"`
	HistogramSnapshot
}

// Snapshot is a point-in-time copy of a whole registry. It is a plain
// data value — gob- and json-encodable — so the remote protocol can carry
// it and cmd tools can dump it. Metrics are held in slices sorted by
// name, not maps, so two snapshots of the same state are byte-identical
// however they are serialized — diffable dumps, stable golden files,
// deterministic wire payloads.
type Snapshot struct {
	Counters   []CounterSnapshot `json:"counters,omitempty"`
	Histograms []NamedHistogram  `json:"histograms,omitempty"`
}

// Counter returns the named counter's value, or 0 when absent — absent
// and never-incremented are indistinguishable, as with a live registry.
func (s Snapshot) Counter(name string) int64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value
	}
	return 0
}

// Histogram returns the named histogram's snapshot, or the zero
// snapshot (no observations) when absent.
func (s Snapshot) Histogram(name string) HistogramSnapshot {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i].HistogramSnapshot
	}
	return HistogramSnapshot{}
}

// String renders the snapshot in name order, one metric per line.
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&sb, "%s: %d\n", c.Name, c.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&sb, "%s: %s\n", h.Name, h.HistogramSnapshot)
	}
	return sb.String()
}

// Registry is a named collection of counters and histograms.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable: callers may cache it to skip the lookup.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every metric's current value — the expvar-style
// observation point monitoring scrapes.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(r.counters))
	for n, c := range r.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{n, c})
	}
	histograms := make([]struct {
		name string
		h    *Histogram
	}, 0, len(r.histograms))
	for n, h := range r.histograms {
		histograms = append(histograms, struct {
			name string
			h    *Histogram
		}{n, h})
	}
	r.mu.Unlock()
	var s Snapshot
	if len(counters) > 0 {
		s.Counters = make([]CounterSnapshot, 0, len(counters))
		for _, e := range counters {
			s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Value: e.c.Value()})
		}
		sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	}
	if len(histograms) > 0 {
		s.Histograms = make([]NamedHistogram, 0, len(histograms))
		for _, e := range histograms {
			s.Histograms = append(s.Histograms, NamedHistogram{Name: e.name, HistogramSnapshot: e.h.Snapshot()})
		}
		sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	}
	return s
}

// defaultRegistry is the process-wide registry Default returns.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: what the engine and the
// remote server record into unless given their own.
func Default() *Registry { return defaultRegistry }
