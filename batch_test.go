package medmaker

import (
	"fmt"
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/oem"
	"medmaker/internal/remote"
)

// TestBatchedExchangeReduction asserts the tentpole claim of the batched
// executor with the engine's own exchange counter: on the full-view query
// of the BenchmarkParamQueryVsCross workload, batching the parameterized
// inner queries issues at least 2x fewer source exchanges than the
// per-tuple chain, with identical results.
func TestBatchedExchangeReduction(t *testing.T) {
	opts := PlanOptions{PushConditions: true, Parameterize: true, DupElim: true}
	cs, whois, _ := scaledSources(t, 100)
	perTuple, err := New(Config{
		Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Plan: &opts, QueryBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := New(Config{
		Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Plan: &opts, // QueryBatch 0 -> DefaultQueryBatch
	})
	if err != nil {
		t.Fatal(err)
	}
	q := `P :- P:<cs_person {<name N>}>@med.`
	a := mustQuery(t, perTuple, q, 1)
	b := mustQuery(t, batched, q, 1)
	if len(a) != len(b) {
		t.Fatalf("per-tuple returned %d objects, batched %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].StructuralEqual(b[i]) {
			t.Fatalf("result %d differs:\n%s\nvs\n%s",
				i, oem.Format(a[i]), oem.Format(b[i]))
		}
	}
	pt := perTuple.QueryStats().TotalExchanges()
	bt := batched.QueryStats().TotalExchanges()
	if pt == 0 || bt == 0 {
		t.Fatalf("exchange counters empty: per-tuple %d, batched %d", pt, bt)
	}
	if bt*2 > pt {
		t.Fatalf("batched execution used %d exchanges vs %d per-tuple; want at least a 2x reduction\nper-tuple stats:\n%s\nbatched stats:\n%s",
			bt, pt, perTuple.QueryStats(), batched.QueryStats())
	}
	// Batching changes how queries are shipped, not how many are answered:
	// every distinct parameterized query still reaches the source.
	if pq, bq := perTuple.QueryStats().TotalQueries(), batched.QueryStats().TotalQueries(); bq > pq {
		t.Fatalf("batched execution issued %d queries vs %d per-tuple", bq, pq)
	}
}

// TestScanShipsBindRequests: the MS1 full-view scan over served sources
// ships its parameterized cs probes as bind requests — the template text
// once per batch plus binding tuples — and no MSL-text batches, and
// answers exactly as the in-process mediator does.
func TestScanShipsBindRequests(t *testing.T) {
	cs, whois, _ := scaledSources(t, 200)
	regs := map[string]*metrics.Registry{}
	var served []Source
	for _, src := range []Source{cs, whois} {
		srv := remote.NewServer(src)
		srv.Metrics = metrics.NewRegistry()
		regs[src.Name()] = srv.Metrics
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		client, err := DialSource(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		served = append(served, client)
	}
	local, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := New(Config{Name: "med", Spec: specMS1, Sources: served})
	if err != nil {
		t.Fatal(err)
	}
	q := `P :- P:<cs_person {<name N>}>@med.`
	want := mustQuery(t, local, q, 20)
	got := mustQuery(t, wired, q, 20)
	if len(got) != len(want) {
		t.Fatalf("served sources answered %d objects, in process %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].StructuralEqual(want[i]) {
			t.Fatalf("result %d differs:\n%s\nvs\n%s", i, oem.Format(got[i]), oem.Format(want[i]))
		}
	}
	snap := regs["cs"].Snapshot()
	if b := snap.Counter("remote.requests.bind"); b < 1 {
		t.Errorf("cs served %d bind requests, want at least one", b)
	}
	for name, reg := range regs {
		if n := reg.Snapshot().Counter("remote.requests.batch"); n != 0 {
			t.Errorf("%s served %d MSL-text batches, want none", name, n)
		}
	}
}

// TestCachedRepeatQuery: with the answer cache on, re-running a query
// answers the parameterized inner queries from the cache, and the
// mediator-level counters expose the hit rate.
func TestCachedRepeatQuery(t *testing.T) {
	cs, whois, _ := scaledSources(t, 60)
	med, err := New(Config{
		Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Cache: &CacheOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := `P :- P:<cs_person {<name N>}>@med.`
	first := mustQuery(t, med, q, 1)
	hits0, misses0 := med.QueryStats().CacheCounts("whois")
	if misses0 == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	if hits0 != 0 {
		t.Fatalf("cold run recorded %d cache hits", hits0)
	}
	second := mustQuery(t, med, q, 1)
	hits1, _ := med.QueryStats().CacheCounts("whois")
	if hits1 == 0 {
		t.Fatal("warm run recorded no cache hits")
	}
	if len(first) != len(second) {
		t.Fatalf("cold run returned %d objects, warm run %d", len(first), len(second))
	}
	for i := range first {
		if !first[i].StructuralEqual(second[i]) {
			t.Fatalf("warm result %d differs from cold:\n%s\nvs\n%s",
				i, oem.Format(first[i]), oem.Format(second[i]))
		}
	}
	// Per-source cache stats are exposed on the mediator too.
	stats := med.CacheStats()
	if stats["whois"].Hits == 0 {
		t.Fatalf("CacheStats = %+v, want whois hits > 0", stats)
	}
	// After invalidation the next run misses again.
	med.InvalidateCaches()
	mustQuery(t, med, q, 1)
	if s := med.CacheStats(); s["whois"].Entries == 0 {
		t.Fatalf("CacheStats after refill = %+v, want entries > 0", s)
	}
}

// BenchmarkBatchedParamQuery measures the batched parameterized-query
// chain against the per-tuple baseline on the full-view query (the E-JOIN
// workload of BenchmarkParamQueryVsCross).
func BenchmarkBatchedParamQuery(b *testing.B) {
	for _, n := range []int{100, 300} {
		for _, batch := range []int{1, DefaultQueryBatch} {
			name := fmt.Sprintf("persons=%d/batch=%d", n, batch)
			b.Run(name, func(b *testing.B) {
				opts := PlanOptions{PushConditions: true, Parameterize: true, DupElim: true}
				cs, whois, _ := scaledSources(b, n)
				med, err := New(Config{
					Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
					Plan: &opts, QueryBatch: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				q := `P :- P:<cs_person {<name N>}>@med.`
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustQuery(b, med, q, 1)
				}
			})
		}
	}
}

// BenchmarkAnswerCache measures the answer cache on a repeated query:
// cold is one full evaluation per iteration against an uncached mediator,
// warm the same query against a mediator whose cache is populated.
func BenchmarkAnswerCache(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "cold"
		if cached {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			cs, whois, _ := scaledSources(b, 200)
			cfg := Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}}
			if cached {
				cfg.Cache = &CacheOptions{}
			}
			med, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			q := `P :- P:<cs_person {<name N>}>@med.`
			mustQuery(b, med, q, 1) // populate the cache (and warm either path)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}
