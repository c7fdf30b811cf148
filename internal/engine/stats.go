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
// without limit.
type Stats struct {
	mu      sync.RWMutex
	entries map[string]*statEntry
	lru     *list.List // front = most recently touched entry key
	max     int
	evicted int
	gen     uint64
	sources map[string]*sourceEntry
}

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

// sourceEntry tracks per-source traffic: how many exchanges (network
// round-trips) query nodes performed, how many queries those exchanges
// carried (batching packs several per exchange), how the wrapper-level
// answer cache fared, which failures were recorded, and the latency EWMA
// the adaptive orderer reads.
type sourceEntry struct {
	exchanges   int
	queries     int
	cacheHits   int
	cacheMisses int
	errors      int
	lastErrs    []error
	latEWMA     float64 // seconds per exchange
	latSeen     bool
}

// maxSourceErrs bounds the per-source retained error list; the count keeps
// accumulating past it.
const maxSourceErrs = 8

// NewStats returns an empty statistics store.
func NewStats() *Stats {
	return &Stats{
		entries: make(map[string]*statEntry),
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

// RecordExchange adds one source exchange (a network round-trip, or its
// in-process equivalent) that carried the given number of queries. The
// datamerge engine calls this from every query node, so the counters
// measure exactly the traffic the parameterized-query batching is meant
// to reduce.
func (s *Stats) RecordExchange(source string, queries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.source(source)
	e.exchanges++
	e.queries += queries
}

// RecordLatency folds one successful exchange's wall time into the
// source's latency EWMA. The engine reports every timed exchange here, so
// the adaptive orderer weighs sources by what the engine actually
// observed rather than what the wrapper promises.
func (s *Stats) RecordLatency(source string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// SourceExchanges returns how many exchanges were performed against the
// source.
func (s *Stats) SourceExchanges(source string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok {
		return e.exchanges
	}
	return 0
}

// SourceQueries returns how many queries were sent to the source (each
// exchange carries one or more).
func (s *Stats) SourceQueries(source string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok {
		return e.queries
	}
	return 0
}

// TotalExchanges sums exchanges over all sources.
func (s *Stats) TotalExchanges() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, e := range s.sources {
		total += e.exchanges
	}
	return total
}

// TotalQueries sums queries over all sources.
func (s *Stats) TotalQueries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, e := range s.sources {
		total += e.queries
	}
	return total
}

// RecordCache adds one answer-cache lookup outcome for the source; the
// wrapper-level cache reports through this so the cost model can see hit
// rates.
func (s *Stats) RecordCache(source string, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.source(source)
	if hit {
		e.cacheHits++
	} else {
		e.cacheMisses++
	}
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

// RecordError adds one failed exchange against the source — a refusal,
// a broken connection, or a per-source timeout. The run state reports
// every policy-absorbed failure here, so the counters tell the cost model
// (and the operator reading a trace) which sources are flaky.
func (s *Stats) RecordError(source string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.source(source)
	e.errors++
	if len(e.lastErrs) < maxSourceErrs {
		e.lastErrs = append(e.lastErrs, err)
	}
}

// SourceErrorCount returns how many failed exchanges were recorded for
// the source.
func (s *Stats) SourceErrorCount(source string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok {
		return e.errors
	}
	return 0
}

// SourceErrors returns the retained failures for the source (at most the
// first maxSourceErrs; SourceErrorCount has the full tally).
func (s *Stats) SourceErrors(source string) []error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.sources[source]; ok {
		return append([]error(nil), e.lastErrs...)
	}
	return nil
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

// Record adds one observation: a query of the given shape against the
// source returned n objects.
func (s *Stats) Record(source, shape string, n int) {
	s.RecordValue(source, shape, float64(n))
}

// RecordValue folds one observed value into the EWMA for the shape at the
// source. Cardinality feedback stores rows here; the adaptive planner also
// stores per-input-row output ratios under derived "|out" shapes.
func (s *Stats) RecordValue(source, shape string, v float64) {
	key := source + "@" + shape
	s.mu.Lock()
	defer s.mu.Unlock()
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
		key := back.Value.(string)
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
	e, ok := s.entries[source+"@"+shape]
	if !ok || e.queries == 0 {
		return 0, false
	}
	return e.avg, true
}

// Observations returns the number of recorded queries for the shape.
func (s *Stats) Observations(source, shape string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[source+"@"+shape]
	if !ok {
		return 0
	}
	return e.queries
}

// String summarizes the store, sorted by key, for traces and debugging.
func (s *Stats) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		e := s.entries[k]
		fmt.Fprintf(&sb, "%s: %d queries, avg %.1f rows\n", k, e.queries, e.avg)
	}
	srcKeys := make([]string, 0, len(s.sources))
	for k := range s.sources {
		srcKeys = append(srcKeys, k)
	}
	sort.Strings(srcKeys)
	for _, k := range srcKeys {
		e := s.sources[k]
		fmt.Fprintf(&sb, "%s: %d exchanges carrying %d queries", k, e.exchanges, e.queries)
		if e.cacheHits+e.cacheMisses > 0 {
			fmt.Fprintf(&sb, ", cache %d/%d hits", e.cacheHits, e.cacheHits+e.cacheMisses)
		}
		if e.errors > 0 {
			fmt.Fprintf(&sb, ", %d errors", e.errors)
		}
		if e.latSeen {
			fmt.Fprintf(&sb, ", lat %s", time.Duration(e.latEWMA*float64(time.Second)).Round(time.Microsecond))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
