package engine

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"medmaker/internal/metrics"
)

// Stats is the optimizer's statistics database, built from the results of
// previous queries (Section 3.5 of the paper). It aggregates, per source
// and query shape, how many objects queries of that shape returned, and
// answers cardinality estimates for join ordering. Estimates decay as
// exponentially weighted moving averages so the store tracks a drifting
// workload instead of freezing its first observations, and the shape map
// is bounded by LRU eviction so distinct-query workloads cannot grow it
// without limit. The engine folds each run into the store once, when the
// run ends (learn).
type Stats struct {
	mu      sync.RWMutex
	entries map[statKey]*statEntry
	lru     *list.List // front = most recently touched entry key
	max     int
	evicted int
	gen     uint64
	sources map[string]*sourceEntry
}

// statKey names one entry: a shape at a source.
type statKey struct{ source, shape string }

func (k statKey) String() string { return k.source + "@" + k.shape }

type statEntry struct {
	queries int
	avg     float64 // EWMA of observed values (rows, or ratios for |out keys)
	elem    *list.Element
}

// cardAlpha is the EWMA weight for new cardinality observations. A
// constant series keeps its value exactly (so estimates over stable data
// are exact), while a shifted workload converges within a handful of
// queries.
const cardAlpha = 0.4

// latAlpha weights new observations in each source's latency EWMA.
const latAlpha = 0.3

// DefaultStatsEntries bounds the shape-keyed entry map; recording a new
// shape past the bound evicts the least recently touched entry and bumps
// the stats.evicted metric.
const DefaultStatsEntries = 4096

// sourceEntry is what the store learns per source: answer-cache lookups
// and the latency EWMA the adaptive orderer reads.
type sourceEntry struct {
	cacheHits   int
	cacheMisses int
	latEWMA     float64 // seconds per exchange
	latSeen     bool
}

// NewStats returns an empty statistics store.
func NewStats() *Stats {
	return &Stats{
		entries: make(map[statKey]*statEntry),
		lru:     list.New(),
		max:     DefaultStatsEntries,
		sources: make(map[string]*sourceEntry),
	}
}

// SetMaxEntries overrides the shape-entry bound (0 restores the default).
// Shrinking below the current population evicts immediately.
func (s *Stats) SetMaxEntries(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = DefaultStatsEntries
	}
	s.max = n
	s.evictLocked()
}

func (s *Stats) source(name string) *sourceEntry {
	e := s.sources[name]
	if e == nil {
		e = &sourceEntry{}
		s.sources[name] = e
	}
	return e
}

// Generation returns a counter that advances on every shape observation.
// Cached plans remember the generation they were planned under; a later
// generation is the cue to check them for estimate drift.
func (s *Stats) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// RecordLatency folds one observed exchange latency into the source's
// latency EWMA, so the adaptive orderer weighs sources by what the
// engine actually observed rather than what the wrapper promises.
func (s *Stats) RecordLatency(source string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLatencyLocked(source, d)
}

func (s *Stats) recordLatencyLocked(source string, d time.Duration) {
	e := s.source(source)
	sec := d.Seconds()
	if !e.latSeen {
		e.latEWMA = sec
		e.latSeen = true
	} else {
		e.latEWMA += latAlpha * (sec - e.latEWMA)
	}
}

// SourceLatency returns the EWMA exchange latency observed for the source
// and whether any exchange was timed.
func (s *Stats) SourceLatency(source string) (time.Duration, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok && e.latSeen {
		return time.Duration(e.latEWMA * float64(time.Second)), true
	}
	return 0, false
}

// CacheCounts returns the answer-cache hit and miss totals for the source.
func (s *Stats) CacheCounts(source string) (hits, misses int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok {
		return e.cacheHits, e.cacheMisses
	}
	return 0, 0
}

// CacheHitRate returns the observed answer-cache hit rate for the source
// and whether any lookup was recorded.
func (s *Stats) CacheHitRate(source string) (float64, bool) {
	hits, misses := s.CacheCounts(source)
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// learn folds one run's record into the store under one lock: each query
// shape's mean answer size, under the node's condition-aware shape key
// (a node without one teaches nothing); each parameterized, non-negated
// node's output rows per input row — the join selectivity the adaptive
// order reads — under its shape key with an "|out" suffix; each source's
// mean exchange latency and its answer-cache lookups. Every key moves
// once per run, by the run's mean, whatever order workers finished in.
func (s *Stats) learn(r *runRecord) {
	type fold struct {
		key      statKey
		num, den int64
	}
	var buf [16]fold
	folds := buf[:0]
	add := func(key statKey, num, den int64) {
		for i := range folds {
			if folds[i].key == key {
				folds[i].num += num
				folds[i].den += den
				return
			}
		}
		folds = append(folds, fold{key, num, den})
	}
	for i := range r.ops {
		op := &r.ops[i]
		if op.q == nil {
			continue
		}
		if n := op.queries.Load(); n > 0 && op.q.Shape != "" {
			add(statKey{op.q.Source, op.q.Shape}, op.answers.Load(), n)
		}
		if in := op.rowsIn.Load(); in > 0 && op.q.Shape != "" && op.q.Child != nil && !op.q.Negated {
			add(statKey{op.q.Source, op.q.Shape + "|out"}, op.rowsOut.Load(), in)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range folds {
		s.recordLocked(f.key, float64(f.num)/float64(f.den))
	}
	for i := range r.sources {
		src := &r.sources[i]
		exchanges, _, hits, misses := r.sourceTraffic(i)
		if exchanges > 0 {
			s.recordLatencyLocked(src.name, src.latency.Mean())
		}
		if hits+misses > 0 {
			e := s.source(src.name)
			e.cacheHits += int(hits)
			e.cacheMisses += int(misses)
		}
	}
}

// Record adds one observation: a query of the given shape against the
// source returned n objects.
func (s *Stats) Record(source, shape string, n int) {
	s.RecordValue(source, shape, float64(n))
}

// RecordValue folds one observed value into the EWMA for the shape at the
// source. Cardinality feedback stores rows here; the adaptive planner also
// stores per-input-row output ratios under derived "|out" shapes.
func (s *Stats) RecordValue(source, shape string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLocked(statKey{source, shape}, v)
}

func (s *Stats) recordLocked(key statKey, v float64) {
	e := s.entries[key]
	if e == nil {
		e = &statEntry{avg: v}
		e.elem = s.lru.PushFront(key)
		s.entries[key] = e
	} else {
		e.avg += cardAlpha * (v - e.avg)
		s.lru.MoveToFront(e.elem)
	}
	e.queries++
	s.gen++
	s.evictLocked()
}

func (s *Stats) evictLocked() {
	for len(s.entries) > s.max {
		back := s.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(statKey)
		s.lru.Remove(back)
		delete(s.entries, key)
		s.evicted++
		metrics.Default().Counter("stats.evicted").Inc()
	}
}

// Evicted returns how many shape entries LRU eviction has dropped.
func (s *Stats) Evicted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evicted
}

// Entries returns the current shape-entry population.
func (s *Stats) Entries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Estimate returns the decayed average result size observed for the shape
// at the source, and whether any observation exists. Reads do not touch
// LRU order: only recording refreshes an entry, so a shape the workload
// stopped producing ages out even while the planner keeps consulting it.
func (s *Stats) Estimate(source, shape string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[statKey{source, shape}]
	if !ok || e.queries == 0 {
		return 0, false
	}
	return e.avg, true
}

// Observations returns how many values were folded into the shape's
// estimate: one per run that queried it.
func (s *Stats) Observations(source, shape string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[statKey{source, shape}]
	if !ok {
		return 0
	}
	return e.queries
}

// String summarizes the store, sorted by key, for traces and debugging.
func (s *Stats) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]statKey, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var sb strings.Builder
	for _, k := range keys {
		e := s.entries[k]
		fmt.Fprintf(&sb, "%s: %d observations, avg %.1f rows\n", k, e.queries, e.avg)
	}
	srcKeys := make([]string, 0, len(s.sources))
	for k := range s.sources {
		srcKeys = append(srcKeys, k)
	}
	sort.Strings(srcKeys)
	for _, k := range srcKeys {
		e := s.sources[k]
		fmt.Fprintf(&sb, "%s: cache %d/%d hits", k, e.cacheHits, e.cacheHits+e.cacheMisses)
		if e.latSeen {
			fmt.Fprintf(&sb, ", lat %s", time.Duration(e.latEWMA*float64(time.Second)).Round(time.Microsecond))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
