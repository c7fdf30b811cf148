package wrapper

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// nameQuery builds a distinct cacheable query per name.
func nameQuery(name string) *msl.Rule {
	return msl.MustParseRule(fmt.Sprintf(
		`<out R> :- <person {<name %s> <relation R>}>@whois.`, oem.QuoteAtom(name)))
}

func TestCacheHitMiss(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")
	first, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != 1 {
		t.Fatalf("inner source saw %d queries, want 1", len(inner.queries))
	}
	if len(first) != len(second) {
		t.Fatalf("cached answer has %d objects, fresh answer %d", len(second), len(first))
	}
	for i := range first {
		if !first[i].StructuralEqual(second[i]) {
			t.Fatalf("cached object %d differs:\n%s\nvs\n%s",
				i, oem.Format(first[i]), oem.Format(second[i]))
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestCacheAlphaEquivalence: queries identical up to variable naming share
// one entry, since repeated planning renames variables freely.
func TestCacheAlphaEquivalence(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{})
	a := msl.MustParseRule(`<out R> :- <person {<name N> <relation R>}>@whois.`)
	b := msl.MustParseRule(`<out Rel> :- <person {<name Who> <relation Rel>}>@whois.`)
	if _, err := c.Query(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(b); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != 1 {
		t.Fatalf("alpha-equivalent queries reached the source %d times, want 1", len(inner.queries))
	}
	if NormalizeQuery(a) != NormalizeQuery(b) {
		t.Fatalf("normalized forms differ:\n%s\nvs\n%s", NormalizeQuery(a), NormalizeQuery(b))
	}
	// Structurally different queries must NOT collide.
	d := msl.MustParseRule(`<out R> :- <person {<dept N> <relation R>}>@whois.`)
	if NormalizeQuery(a) == NormalizeQuery(d) {
		t.Fatal("structurally different queries normalized to the same key")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{TTL: time.Minute, Clock: func() time.Time { return now }})
	q := nameQuery("Joe Chung")
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != 1 {
		t.Fatalf("fresh entry refetched: %d inner queries", len(inner.queries))
	}
	now = now.Add(time.Hour)
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != 2 {
		t.Fatalf("expired entry served: %d inner queries, want 2", len(inner.queries))
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", s)
	}
}

func TestCacheInvalidate(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("")
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("entries after Invalidate = %d", s.Entries)
	}
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != 2 {
		t.Fatalf("invalidated entry still served: %d inner queries, want 2", len(inner.queries))
	}
}

func TestCacheInvalidateBySource(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	// Another source's name must not touch this cache.
	c.Invalidate("cs")
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries after foreign Invalidate = %d, want 1", s.Entries)
	}
	// The inner source's own name drops it.
	c.Invalidate("whois")
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("entries after Invalidate(whois) = %d, want 0", s.Entries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{MaxEntries: 2})
	qa, qb, qc := nameQuery("A"), nameQuery("B"), nameQuery("C")
	for _, q := range []*msl.Rule{qa, qb} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the LRU victim when C arrives.
	if _, err := c.Query(qa); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(qc); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
	// A survived (it was recently used); B was evicted.
	before := len(inner.queries)
	if _, err := c.Query(qa); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != before {
		t.Fatal("recently used entry was evicted")
	}
	if _, err := c.Query(qb); err != nil {
		t.Fatal(err)
	}
	if len(inner.queries) != before+1 {
		t.Fatal("LRU entry was not evicted")
	}
}

// TestCacheExpiredVsEvicted: removal by TTL and removal by the capacity
// bound are distinct counters — one asks for a longer TTL, the other for
// a bigger cache.
func TestCacheExpiredVsEvicted(t *testing.T) {
	now := time.Unix(1000, 0)
	inner := &fakeSource{name: "whois"}
	c := NewCache(inner, CacheOptions{MaxEntries: 2, TTL: time.Minute, Clock: func() time.Time { return now }})
	qa, qb, qc := nameQuery("A"), nameQuery("B"), nameQuery("C")

	// Fill to capacity, then displace the LRU entry: one eviction.
	for _, q := range []*msl.Rule{qa, qb, qc} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Expired != 0 {
		t.Fatalf("after capacity displacement: %+v, want 1 eviction / 0 expired", s)
	}

	// Age everything past the TTL and re-ask a resident key: one expiry,
	// still one eviction.
	now = now.Add(time.Hour)
	if _, err := c.Query(qc); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Expired != 1 {
		t.Fatalf("after TTL removal: %+v, want 1 eviction / 1 expired", s)
	}
	if len(inner.queries) != 4 {
		t.Fatalf("inner queries = %d, want 4 (3 cold + 1 refresh)", len(inner.queries))
	}
}

// gatedSource blocks every query until released, counting calls, so a
// test can hold a fetch in flight while other callers pile up.
type gatedSource struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (g *gatedSource) Name() string               { return "whois" }
func (g *gatedSource) Capabilities() Capabilities { return FullCapabilities() }
func (g *gatedSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	<-g.release
	return Eval(q, whoisTops(), oem.NewIDGen("f"))
}

// TestCacheSingleflight: concurrent misses on one key reach the source
// exactly once; every caller gets the answer.
func TestCacheSingleflight(t *testing.T) {
	inner := &gatedSource{release: make(chan struct{})}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")

	const callers = 16
	results := make([][]*oem.Object, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Query(q)
		}(i)
	}
	// Whenever the callers release relative to each other, the atomic
	// lookup-or-join guarantees a single fetch: either a caller joins the
	// leader's flight, or it arrives after the answer was stored and hits.
	close(inner.release)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(results[i]) == 0 {
			t.Fatalf("caller %d got no objects", i)
		}
	}
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls != 1 {
		t.Fatalf("source saw %d queries for one key, want 1 (singleflight)", calls)
	}
	if s := c.Stats(); s.Hits+s.Misses != callers {
		t.Fatalf("stats = %+v, want hits+misses = %d", s, callers)
	}
}

// TestCacheSingleflightLeaderError: a failed fetch is not fanned out as
// the shared answer — a waiter retries, and the retry can succeed.
func TestCacheSingleflightLeaderError(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	inner := &flakySource{name: "whois", fail: func() bool {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls == 1
	}}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")
	if _, err := c.Query(q); err == nil {
		t.Fatal("first query should fail")
	}
	objs, err := c.Query(q)
	if err != nil {
		t.Fatalf("retry after failed leader: %v", err)
	}
	if len(objs) == 0 {
		t.Fatal("retry returned no objects")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	calls := 0
	inner := &flakySource{name: "whois", fail: func() bool { calls++; return calls == 1 }}
	c := NewCache(inner, CacheOptions{})
	q := nameQuery("Joe Chung")
	if _, err := c.Query(q); err == nil {
		t.Fatal("first query should fail")
	}
	objs, err := c.Query(q)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if len(objs) == 0 {
		t.Fatal("second query returned no objects")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the successful answer cached)", s.Entries)
	}
}

// flakySource fails queries on demand.
type flakySource struct {
	name string
	fail func() bool
}

func (f *flakySource) Name() string               { return f.name }
func (f *flakySource) Capabilities() Capabilities { return FullCapabilities() }
func (f *flakySource) Query(q *msl.Rule) ([]*oem.Object, error) {
	if f.fail() {
		return nil, errors.New("transient failure")
	}
	return Eval(q, whoisTops(), oem.NewIDGen("f"))
}

// batchingSource counts batch exchanges to verify the cache forwards
// misses in one exchange.
type batchingSource struct {
	fakeSource
	batches [][]*msl.Rule
}

func (b *batchingSource) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	b.batches = append(b.batches, qs)
	out := make([][]*oem.Object, len(qs))
	for i, q := range qs {
		objs, err := Eval(q, whoisTops(), oem.NewIDGen("f"))
		if err != nil {
			return nil, err
		}
		out[i] = objs
	}
	return out, nil
}

func TestCacheQueryBatch(t *testing.T) {
	inner := &batchingSource{fakeSource: fakeSource{name: "whois"}}
	c := NewCache(inner, CacheOptions{})
	// Warm one of the three queries, then batch all three: the two misses
	// travel together in a single exchange.
	qa, qb, qc := nameQuery("Joe Chung"), nameQuery("Nick Naive"), nameQuery("Missing")
	warm, err := c.Query(qa)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.QueryBatch([]*msl.Rule{qa, qb, qc})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch returned %d result sets", len(results))
	}
	if len(results[0]) != len(warm) {
		t.Fatalf("hit result has %d objects, want %d", len(results[0]), len(warm))
	}
	if len(inner.batches) != 1 || len(inner.batches[0]) != 2 {
		t.Fatalf("inner batches = %d (first carrying %d queries), want one batch of 2 misses",
			len(inner.batches), len(inner.batches[0]))
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 3 entries", s)
	}
	// Second identical batch: all hits, no further exchanges.
	if _, err := c.QueryBatch([]*msl.Rule{qa, qb, qc}); err != nil {
		t.Fatal(err)
	}
	if len(inner.batches) != 1 {
		t.Fatalf("all-hit batch still reached the source (%d batches)", len(inner.batches))
	}
}

// TestQueryBatchFallback: the package helper loops per query when the
// source lacks the BatchQuerier capability, preserving result order.
func TestQueryBatchFallback(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	qs := []*msl.Rule{nameQuery("Joe Chung"), nameQuery("Nick Naive")}
	results, err := QueryBatch(inner, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d result sets", len(results))
	}
	if len(inner.queries) != 2 {
		t.Fatalf("fallback issued %d queries, want 2", len(inner.queries))
	}
	if len(results[0]) == 0 || len(results[1]) == 0 {
		t.Fatalf("result sets empty: %d, %d", len(results[0]), len(results[1]))
	}
}
