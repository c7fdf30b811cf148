package plan

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/wrapper"
)

// DefaultCacheEntries is the plan-cache capacity used when
// CacheOptions.MaxEntries is zero.
const DefaultCacheEntries = 512

// CacheOptions configure a compiled-plan cache (see Cache).
type CacheOptions struct {
	// MaxEntries bounds the number of cached plans; the least recently
	// used entry is evicted beyond it. 0 means DefaultCacheEntries.
	MaxEntries int
	// Metrics receives plancache.hit / plancache.miss / plancache.evict /
	// plancache.invalidate counters. Nil means the process-wide default
	// registry.
	Metrics *metrics.Registry
}

// CacheStats is a snapshot of a plan cache's counters. Invalidated counts
// entries dropped by Invalidate (a dependency changed), Evictions entries
// displaced by the capacity bound, Refreshed entries replaced by a
// completed drift revalidation (see BeginRefresh).
type CacheStats struct {
	Hits, Misses, Evictions, Invalidated, Refreshed, Entries int
}

// Compiled is one cached compilation: the physical plan and the names it
// depends on for invalidation purposes.
type Compiled struct {
	// Plan is the physical datamerge graph. Plans are immutable operator
	// descriptions — all execution state lives in the engine's per-run
	// state — so one cached plan serves any number of concurrent queries.
	Plan *Plan
	// Deps are the names whose invalidation must drop this plan: the
	// source names the expanded program reads plus the mediator view
	// labels the original query referenced.
	Deps []string
	// DependsOnAll marks a plan whose dependencies could not be
	// determined statically (a variable view label, say): any
	// invalidation drops it.
	DependsOnAll bool
	// StatsGen is the statistics-store generation the plan was compiled
	// under (Stats.Generation at compile time). Drift revalidation
	// compares it against the current generation: an unchanged store
	// cannot have drifted, so the check is free on the hot path.
	StatsGen uint64
}

// dependsOn reports whether invalidating name must drop this entry.
func (c *Compiled) dependsOn(name string) bool {
	if name == "" || c.DependsOnAll {
		return true
	}
	i := sort.SearchStrings(c.Deps, name)
	return i < len(c.Deps) && c.Deps[i] == name
}

// Cache is a bounded LRU of compiled query plans keyed by CacheKey, with
// singleflighted compilation: when N cold clients ask for the same plan
// concurrently, one compiles and the rest wait for its result, so a
// thundering herd of identical queries costs one parse→expand→plan pass.
//
// Invalidation is dependency-driven (see Compiled.Deps): a mediator wires
// its Invalidate walk and AddSource replacements into Invalidate here, so
// plans built against a source that changed — data or capabilities — are
// recompiled on next use.
type Cache struct {
	max int

	hitCtr, missCtr, evictCtr, invalCtr, refreshCtr *metrics.Counter

	mu          sync.Mutex
	lru         *list.List // front = most recently used
	entries     map[string]*list.Element
	inflight    map[string]*compileFlight
	refreshing  map[string]bool
	hits        int
	misses      int
	evictions   int
	invalidated int
	refreshed   int
}

// compileFlight is one in-progress compilation; concurrent misses on the
// same key wait for the leader's result instead of each compiling.
type compileFlight struct {
	done     chan struct{} // closed when compilation finished
	compiled *Compiled
	err      error
}

type cacheEntry struct {
	key      string
	compiled *Compiled
}

// NewCache returns an empty plan cache.
func NewCache(opts CacheOptions) *Cache {
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultCacheEntries
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	return &Cache{
		max:        max,
		hitCtr:     reg.Counter("plancache.hit"),
		missCtr:    reg.Counter("plancache.miss"),
		evictCtr:   reg.Counter("plancache.evict"),
		invalCtr:   reg.Counter("plancache.invalidate"),
		refreshCtr: reg.Counter("plancache.refresh"),
		lru:        list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*compileFlight),
		refreshing: make(map[string]bool),
	}
}

// CacheKey returns the canonical cache key of a query: the rule with its
// tail conjuncts sorted by structural shape (conjunction is commutative;
// the optimizer picks its own join order anyway) and its variables
// alpha-renamed to positional names. Queries identical up to variable
// naming and condition order — the repeated-template traffic a serving
// tier sees — share one compiled plan. Distinct queries can never
// collide: the key is a complete rendering of the canonicalized rule.
func CacheKey(q *msl.Rule) string {
	canon := q.Clone()
	shapes := make([]string, len(canon.Tail))
	for i, c := range canon.Tail {
		shapes[i] = conjunctShape(c)
	}
	sort.SliceStable(canon.Tail, func(i, j int) bool { return shapes[i] < shapes[j] })
	return wrapper.NormalizeQuery(canon)
}

// conjunctShape renders a conjunct with every variable collapsed to one
// name, giving a sort key that is stable under alpha-renaming. Ties keep
// textual order (stable sort), which can only split equivalent queries
// into different keys — a false miss, never a false hit.
func conjunctShape(c msl.Conjunct) string {
	tmp := &msl.Rule{Tail: []msl.Conjunct{c}}
	return tmp.RenameVars(func(string) string { return "V" }).String()
}

// Get returns the cached compilation for key, refreshing its recency.
func (c *Cache) Get(key string) (*Compiled, bool) {
	c.mu.Lock()
	compiled, ok := c.lookupLocked(key)
	c.mu.Unlock()
	c.count(ok)
	return compiled, ok
}

// lookupLocked consults the table under c.mu, counting hit/miss locally
// (metrics counters are bumped outside the lock by count).
func (c *Cache) lookupLocked(key string) (*Compiled, bool) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).compiled, true
	}
	c.misses++
	return nil, false
}

func (c *Cache) count(hit bool) {
	if hit {
		c.hitCtr.Inc()
	} else {
		c.missCtr.Inc()
	}
}

// GetOrCompile returns the compilation for key, invoking compile on a
// miss. Concurrent misses on one key are deduplicated: the first caller
// compiles, the others wait for its result (or their own context's end).
// A failed compilation is not cached — one waiter retries, so transient
// failures (a cancelled leader, a source probe error) do not fan out.
// hit reports whether the answer came from the cache without waiting on a
// compilation.
func (c *Cache) GetOrCompile(ctx context.Context, key string, compile func(context.Context) (*Compiled, error)) (compiled *Compiled, hit bool, err error) {
	for {
		c.mu.Lock()
		compiled, ok := c.lookupLocked(key)
		if ok {
			c.mu.Unlock()
			c.count(true)
			return compiled, true, nil
		}
		f, joined := c.inflight[key]
		if !joined {
			f = &compileFlight{done: make(chan struct{})}
			c.inflight[key] = f
		}
		c.mu.Unlock()
		c.count(false)

		if joined {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.compiled, false, nil
			}
			// The leader failed; loop so one waiter becomes the new
			// leader and retries (its lookup counts a fresh miss).
			continue
		}

		compiled, err = compile(ctx)
		if err == nil {
			c.store(key, compiled)
		}
		f.compiled, f.err = compiled, err
		// The flight leaves the table only after a successful result was
		// stored, so a caller never finds both the entry and the flight
		// missing while the plan exists.
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, false, err
		}
		return compiled, false, nil
	}
}

// store inserts (or refreshes) the compilation for key, evicting the
// least recently used entries beyond the capacity bound.
func (c *Cache) store(key string, compiled *Compiled) {
	sort.Strings(compiled.Deps)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).compiled = compiled
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, compiled: compiled})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		c.evictCtr.Inc()
	}
}

// BeginRefresh claims the right to revalidate key's cached plan in the
// background. It returns true for exactly one caller at a time
// (singleflight per key): the claimant replans and calls CompleteRefresh
// with the result; every other caller — and every caller while a refresh
// is in flight — gets false and keeps serving the current entry. The old
// plan is never dropped up front: a drifted plan is still a correct
// plan, just a possibly slow one, so queries never wait on revalidation.
func (c *Cache) BeginRefresh(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refreshing[key] {
		return false
	}
	if _, ok := c.entries[key]; !ok {
		return false // dropped since the hit; the next miss recompiles anyway
	}
	c.refreshing[key] = true
	return true
}

// CompleteRefresh ends the refresh BeginRefresh granted for key. A
// non-nil compiled replaces the cached entry (counted under Refreshed
// and plancache.refresh); nil — the replan failed or was abandoned —
// just clears the claim so a later drift check may try again.
func (c *Cache) CompleteRefresh(key string, compiled *Compiled) {
	if compiled != nil {
		c.store(key, compiled)
	}
	c.mu.Lock()
	delete(c.refreshing, key)
	if compiled != nil {
		c.refreshed++
	}
	c.mu.Unlock()
	if compiled != nil {
		c.refreshCtr.Inc()
	}
}

// Invalidate drops every cached plan depending on name — a source name or
// a mediator view label; "" drops everything. In-flight compilations are
// not interrupted: their result may briefly re-enter the cache stale,
// which the next Invalidate of the same name also covers, and a stale
// plan is at worst built against the old source like a query already
// executing. Returns the number of plans dropped.
func (c *Cache) Invalidate(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if !e.compiled.dependsOn(name) {
			continue
		}
		c.lru.Remove(el)
		delete(c.entries, e.key)
		n++
	}
	c.invalidated += n
	c.invalCtr.Add(int64(n))
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Invalidated: c.invalidated,
		Refreshed:   c.refreshed,
		Entries:     c.lru.Len(),
	}
}
