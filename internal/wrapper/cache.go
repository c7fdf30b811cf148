package wrapper

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/trace"
)

// DefaultCacheEntries is the answer-cache capacity used when
// CacheOptions.MaxEntries is zero.
const DefaultCacheEntries = 1024

// CacheOptions configure an answer cache.
type CacheOptions struct {
	// MaxEntries bounds the number of cached answers; the least recently
	// used entry is evicted beyond it. 0 means DefaultCacheEntries.
	MaxEntries int
	// TTL expires entries that age beyond it; an expired entry counts as
	// a miss and is refreshed from the source. 0 means no expiry.
	TTL time.Duration
	// Clock overrides the time source for TTL checks (tests); nil means
	// time.Now.
	Clock func() time.Time
}

// CacheStats is a snapshot of a cache's counters. Evictions counts
// entries displaced by the capacity bound; Expired counts entries
// removed because they aged past the TTL — distinct causes that call
// for distinct remedies (a bigger cache vs. a longer TTL).
type CacheStats struct {
	Hits, Misses, Evictions, Expired, Entries int
}

// Cache is an LRU answer cache in front of a Source, keyed by the
// normalized text of each query. Sources are autonomous and may change
// underneath the mediator, so the cache trades freshness for round-trips
// explicitly: entries live until evicted, expired by TTL, or dropped by
// Invalidate. Cached result objects are shared between callers and must
// be treated as immutable (the engine copies source material before
// mutating it, so this holds throughout MedMaker). Errors are not cached,
// and a partial answer (see PartialError) passes through unstored.
//
// Cache implements BatchQuerier whether or not the inner source does:
// batched lookups answer hits locally and forward only the misses, in one
// exchange when the inner source supports it.
type Cache struct {
	inner Source
	max   int
	ttl   time.Duration
	now   func() time.Time

	mu        sync.Mutex
	lru       *list.List // front = most recently used
	entries   map[string]*list.Element
	inflight  map[string]*flight
	hits      int
	misses    int
	evictions int
	expired   int
}

// flight is one in-progress fetch of a missing key. Concurrent misses on
// the same key wait for the first one's answer instead of each querying
// the source (singleflight).
type flight struct {
	done chan struct{} // closed when the fetch finished
	objs []*oem.Object
	err  error
}

type cacheEntry struct {
	key    string
	objs   []*oem.Object
	stored time.Time
}

var (
	_ Source              = (*Cache)(nil)
	_ BatchQuerier        = (*Cache)(nil)
	_ Counter             = (*Cache)(nil)
	_ ContextSource       = (*Cache)(nil)
	_ ContextBatchQuerier = (*Cache)(nil)
)

// NewCache wraps src with an answer cache.
func NewCache(src Source, opts CacheOptions) *Cache {
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultCacheEntries
	}
	now := opts.Clock
	if now == nil {
		now = time.Now
	}
	return &Cache{
		inner:   src,
		max:     max,
		ttl:     opts.TTL,
		now:     now,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Name implements Source.
func (c *Cache) Name() string { return c.inner.Name() }

// Capabilities implements Source.
func (c *Cache) Capabilities() Capabilities { return c.inner.Capabilities() }

// Inner returns the wrapped source.
func (c *Cache) Inner() Source { return c.inner }

// NormalizeQuery renders a rule with its variables renamed to positional
// names, so alpha-equivalent queries — identical up to variable naming,
// as repeated plans and parameterized instantiations produce — share one
// cache entry.
func NormalizeQuery(q *msl.Rule) string {
	n := 0
	names := map[string]string{}
	renamed := q.RenameVars(func(s string) string {
		if nn, ok := names[s]; ok {
			return nn
		}
		n++
		nn := fmt.Sprintf("V%d", n)
		names[s] = nn
		return nn
	})
	return renamed.String()
}

// Query implements Source, answering from the cache when possible.
func (c *Cache) Query(q *msl.Rule) ([]*oem.Object, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext implements ContextSource: hits are answered locally
// whatever the context's state, and misses forward the context to the
// inner source. Concurrent misses on one key are deduplicated: the first
// caller queries the source, the others wait for its answer (or their
// own context's end), so a thundering herd of identical queries costs
// one exchange. A failed fetch is not shared as a cache answer — one
// waiter retries, so transient source errors do not fan out.
func (c *Cache) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	key := NormalizeQuery(q)
	for {
		objs, hit, f, leader := c.lookupOrJoin(key)
		trace.CacheEvent(ctx, hit)
		if hit {
			return objs, nil
		}
		if !leader {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				// Share the objects but not the slice (see lookup).
				return append([]*oem.Object(nil), f.objs...), nil
			}
			// The leader failed; loop so one waiter becomes the new
			// leader and retries (its lookup counts a fresh miss).
			continue
		}
		objs, err := QueryContext(ctx, c.inner, q)
		if err == nil {
			c.store(key, objs)
		}
		f.objs, f.err = objs, err
		// The flight leaves the table only after a successful answer was
		// stored, so a caller never finds both the entry and the flight
		// missing while the answer exists.
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		return objs, err
	}
}

// lookupOrJoin consults the cache and the in-flight table atomically: a
// hit returns the answer; a miss either joins key's existing flight or
// registers a new one (leader true). Holding one lock across both checks
// is what makes the dedup sound — a caller can never slip between a
// concurrent leader's store and its flight removal and fetch again.
func (c *Cache) lookupOrJoin(key string) (objs []*oem.Object, hit bool, f *flight, leader bool) {
	c.mu.Lock()
	objs, hit = c.lookupLocked(key)
	if hit {
		c.mu.Unlock()
		return objs, true, nil, false
	}
	f, ok := c.inflight[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		if c.inflight == nil {
			c.inflight = make(map[string]*flight)
		}
		c.inflight[key] = f
		leader = true
	}
	c.mu.Unlock()
	return nil, false, f, leader
}

// QueryBatch implements BatchQuerier: hits are answered locally and only
// the misses travel to the inner source — in one exchange when it
// implements BatchQuerier itself.
func (c *Cache) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return c.QueryBatchContext(context.Background(), qs)
}

// QueryBatchContext implements ContextBatchQuerier: hits are answered
// locally and only the misses travel to the inner source under ctx. An
// inner *QueryError is re-indexed to this batch's positions. Batched
// misses are not singleflighted: the engine already deduplicates a
// batch's queries, and stalling a whole batch on another caller's
// single-key fetch would serialize exchanges the batch exists to overlap.
func (c *Cache) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	out := make([][]*oem.Object, len(qs))
	keys := make([]string, len(qs))
	var missIdx []int
	for i, q := range qs {
		keys[i] = NormalizeQuery(q)
		if objs, ok := c.lookupCtx(ctx, keys[i]); ok {
			out[i] = objs
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	missed := make([]*msl.Rule, len(missIdx))
	for j, i := range missIdx {
		missed[j] = qs[i]
	}
	fetched, err := QueryBatchContext(ctx, c.inner, missed)
	var pe *PartialError
	if err != nil && !(errors.As(err, &pe) && len(fetched) == len(missed)) {
		var qe *QueryError
		if errors.As(err, &qe) && qe.Index < len(missIdx) {
			return nil, &QueryError{Source: qe.Source, Index: missIdx[qe.Index], Err: qe.Err}
		}
		return nil, err
	}
	for j, i := range missIdx {
		out[i] = fetched[j]
		if err == nil {
			c.store(keys[i], fetched[j])
		}
	}
	return out, err
}

// CountLabel implements Counter when the inner source does; counts are
// not cached (they are already cheap by contract).
func (c *Cache) CountLabel(label string) (int, bool) {
	if counter, ok := c.inner.(Counter); ok {
		return counter.CountLabel(label)
	}
	return 0, false
}

// Invalidate drops cached answers — the explicit escape hatch for
// callers that know a source changed — and returns how many entries it
// dropped, so callers can count invalidated answers in their metrics. A
// cache holds answers of exactly one source, so source selects all or
// nothing: "" (every entry, whatever the source) or the inner source's
// name drop the whole cache; any other name is a no-op returning 0. The
// selector exists so a mediator can broadcast one Invalidate(name) to
// all its caches and the matview manager alike.
func (c *Cache) Invalidate(source string) int {
	if source != "" && source != c.inner.Name() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.lru.Len()
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	return dropped
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Expired: c.expired, Entries: c.lru.Len()}
}

// lookupCtx is lookup plus attribution: when ctx carries the engine's
// per-exchange observer, the access is also recorded on the run's record
// of the query node that made it, so a run's cache counts equal the
// cache's own counters exactly.
func (c *Cache) lookupCtx(ctx context.Context, key string) ([]*oem.Object, bool) {
	objs, ok := c.lookup(key)
	trace.CacheEvent(ctx, ok)
	return objs, ok
}

// lookup returns the cached answer for key, counting the access and
// refreshing recency. Expired entries are removed — counted under
// Expired — and the access counts as a miss.
func (c *Cache) lookup(key string) ([]*oem.Object, bool) {
	c.mu.Lock()
	objs, ok := c.lookupLocked(key)
	c.mu.Unlock()
	return objs, ok
}

// lookupLocked is the entry consultation under c.mu: TTL check, recency
// refresh, hit/miss counting.
func (c *Cache) lookupLocked(key string) ([]*oem.Object, bool) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if c.ttl > 0 && c.now().Sub(e.stored) > c.ttl {
			c.lru.Remove(el)
			delete(c.entries, key)
			c.expired++
		} else {
			c.lru.MoveToFront(el)
			c.hits++
			// Share the objects but not the slice, so a caller appending
			// to its result cannot corrupt the cache.
			return append([]*oem.Object(nil), e.objs...), true
		}
	}
	c.misses++
	return nil, false
}

func (c *Cache) store(key string, objs []*oem.Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent miss on the same key beat us here; refresh it.
		el.Value.(*cacheEntry).objs = objs
		el.Value.(*cacheEntry).stored = c.now()
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, objs: objs, stored: c.now()})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}
