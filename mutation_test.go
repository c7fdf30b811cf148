package medmaker

// Mutation freshness tests: a query issued after a source mutation
// returns must observe the mutation's effects through every derived-state
// layer — answer caches, materialized-view extents, cached plans. The
// change feed makes that hold without TTLs or manual Invalidate calls:
// sources emit deltas, the mediator drops the mutated source's cache
// entries and delta-maintains (or rebuilds) its extents, all
// synchronously inside the mutating call. The differential test then
// proves delta-maintained extents answer-identical to freshly rebuilt
// ones and to a live mediator across the full spec/query matrix, under
// every executor mode; run with -race it doubles as the change-feed
// concurrency harness.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// mutablePaperSources is newPaperSources with the mutation handles kept:
// the relational db and the record store, so tests can grow them after
// the mediator is built.
func mutablePaperSources(t testing.TB) (db *RelationalDB, store *RecordStore, cs, whois Source) {
	t.Helper()
	db = NewRelationalDB()
	emp := db.MustCreateTable(RelationalSchema{
		Name: "employee",
		Columns: []RelationalColumn{
			{Name: "first_name", Kind: oem.KindString},
			{Name: "last_name", Kind: oem.KindString},
			{Name: "title", Kind: oem.KindString},
			{Name: "reports_to", Kind: oem.KindString},
		},
	})
	emp.MustInsert("Joe", "Chung", "professor", "John Hennessy")
	stu := db.MustCreateTable(RelationalSchema{
		Name: "student",
		Columns: []RelationalColumn{
			{Name: "first_name", Kind: oem.KindString},
			{Name: "last_name", Kind: oem.KindString},
			{Name: "year", Kind: oem.KindInt},
		},
	})
	stu.MustInsert("Nick", "Naive", 3)

	store = NewRecordStore()
	store.MustAdd(
		Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: "Joe Chung"},
			{Name: "dept", Value: "CS"},
			{Name: "relation", Value: "employee"},
			{Name: "e_mail", Value: "chung@cs"},
		}},
		Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: "Nick Naive"},
			{Name: "dept", Value: "CS"},
			{Name: "relation", Value: "student"},
			{Name: "year", Value: 3},
		}},
	)
	return db, store, NewRelationalWrapper("cs", db), NewRecordWrapper("whois", store)
}

// TestMutationFreshReads is the stale-read regression test: a cs_person
// query issued after Insert/Add returns must include the new person —
// with the answer cache on, with materialized views on, with the plan
// cache on, and with all three at once, under every executor mode. No
// Invalidate call, no TTL, no refresh: the change feed alone keeps the
// derived state honest.
func TestMutationFreshReads(t *testing.T) {
	configs := []struct {
		name string
		set  func(c *Config)
	}{
		{"cached", func(c *Config) { c.Cache = &CacheOptions{} }},
		{"materialized", func(c *Config) {
			c.Materialize = &MatViewOptions{Views: []MatView{{Label: "cs_person"}}}
		}},
		{"plancached", func(c *Config) { c.PlanCache = &PlanCacheOptions{} }},
		{"all", func(c *Config) {
			c.Cache = &CacheOptions{}
			c.Materialize = &MatViewOptions{Views: []MatView{{Label: "cs_person"}}}
			c.PlanCache = &PlanCacheOptions{}
		}},
	}
	for _, mode := range executorModes {
		for _, cfg := range configs {
			t.Run(mode.name+"/"+cfg.name, func(t *testing.T) {
				db, store, cs, whois := mutablePaperSources(t)
				c := Config{
					Name: "med", Spec: specMS1,
					Sources:     []Source{cs, whois},
					Parallelism: mode.parallel,
					QueryBatch:  mode.batch,
				}
				cfg.set(&c)
				med, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				all := `X :- X:<cs_person {<name N>}>@med.`
				byName := `X :- X:<cs_person {<name 'Ann Alpha'>}>@med.`
				// Warm every layer: extents build, caches and plans fill.
				before, err := med.QueryString(all)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := med.QueryString(byName); err != nil || len(got) != 0 {
					t.Fatalf("pre-mutation query for Ann Alpha: %d objects, err=%v", len(got), err)
				}
				invalidated := metrics.Default().Counter("cache.invalidated").Value()

				// Mutate both sources: the semistructured whois store and
				// the relational cs db.
				store.MustAdd(Record{Kind: "person", Fields: []RecordField{
					{Name: "name", Value: "Ann Alpha"},
					{Name: "dept", Value: "CS"},
					{Name: "relation", Value: "employee"},
				}})
				emp, ok := db.Table("employee")
				if !ok {
					t.Fatal("employee table missing")
				}
				emp.MustInsert("Ann", "Alpha", "lecturer", "Joe Chung")

				got, err := med.QueryString(byName)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 {
					t.Fatalf("post-mutation query for Ann Alpha: %d objects, want 1", len(got))
				}
				if s := oem.Format(got[0]); !containsAll(s, "Ann Alpha", "lecturer") {
					t.Fatalf("stale or partial answer:\n%s", s)
				}
				after, err := med.QueryString(all)
				if err != nil {
					t.Fatal(err)
				}
				if len(after) != len(before)+1 {
					t.Fatalf("cs_person count after mutation: %d, want %d", len(after), len(before)+1)
				}
				if c.Cache != nil {
					if now := metrics.Default().Counter("cache.invalidated").Value(); now <= invalidated {
						t.Fatalf("cache.invalidated did not move: %d -> %d", invalidated, now)
					}
				}
			})
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestMutationFreshReadsOEMStore covers the OEM-native source, including
// the delete path: Add must surface through a materialized, cached
// mediator immediately, and Remove must take the object back out.
func TestMutationFreshReadsOEMStore(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	people := randomPeople(r, 8)
	whoisSrc := NewOEMSource("whois")
	if err := whoisSrc.Add(people...); err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name:        "med",
		Spec:        `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		Sources:     []Source{whoisSrc},
		Cache:       &CacheOptions{},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "profile"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := `X :- X:<profile {<name N>}>@med.`
	base, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}

	gen := oem.NewIDGen("mut")
	novel := &Object{OID: gen.Next(), Label: "person", Value: oem.Set{
		oem.New(gen.Next(), "name", "ZZ Top"),
		oem.New(gen.Next(), "dept", "CS"),
	}}
	if err := whoisSrc.Add(novel); err != nil {
		t.Fatal(err)
	}
	got, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base)+1 {
		t.Fatalf("after Add: %d profiles, want %d", len(got), len(base)+1)
	}
	stats := med.MatViewStats()
	if stats.Deltas == 0 {
		t.Fatalf("insert did not take the delta fast path: %+v", stats)
	}

	if removed := whoisSrc.Remove(novel.OID); len(removed) != 1 {
		t.Fatalf("Remove returned %d objects, want 1", len(removed))
	}
	med.WaitMatViews()
	got, err = med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("after Remove: %d profiles, want %d", len(got), len(base))
	}
	if stats := med.MatViewStats(); stats.DeltaFallbacks == 0 {
		t.Fatalf("delete did not fall back to rebuild: %+v", stats)
	}
}

// switchSource delegates to an OEM source but can be switched off, at
// which point every query fails. With an OnSourceErrorSkip policy a
// mediator builds degraded (Incomplete) extents while the source is
// down — the recovery tests flip the switch back and assert the extent
// heals.
type switchSource struct {
	inner *OEMSource
	mu    sync.Mutex
	down  bool
}

func (s *switchSource) setDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

func (s *switchSource) Name() string               { return s.inner.Name() }
func (s *switchSource) Capabilities() Capabilities { return s.inner.Capabilities() }
func (s *switchSource) Query(q *msl.Rule) ([]*Object, error) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return nil, fmt.Errorf("source %s is down", s.inner.Name())
	}
	return s.inner.Query(q)
}

// TestMatViewIncompleteRecovery: an extent built while its source was
// down (empty, Incomplete under a skip policy) must not stay Incomplete
// forever. Once the source recovers and RecoverInterval elapses, the
// next query triggers a bounded background rebuild that replaces the
// degraded extent with a complete one — no Invalidate, no TTL.
func TestMatViewIncompleteRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	people := randomPeople(r, 6)
	inner := NewOEMSource("whois")
	if err := inner.Add(people...); err != nil {
		t.Fatal(err)
	}
	src := &switchSource{inner: inner, down: true}

	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	med, err := New(Config{
		Name:    "med",
		Spec:    `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		Sources: []Source{src},
		Materialize: &MatViewOptions{
			Views:           []MatView{{Label: "profile"}},
			Clock:           clock,
			RecoverInterval: time.Minute,
		},
		Policy: ExecPolicy{OnSourceError: OnSourceErrorSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := `X :- X:<profile {<name N>}>@med.`

	// Source down: the extent builds empty and Incomplete.
	if got, err := med.QueryString(all); err != nil || len(got) != 0 {
		t.Fatalf("down: %d objects, err=%v", len(got), err)
	}
	med.WaitMatViews()
	// The first hit on the degraded extent schedules a recovery refresh
	// immediately (no prior attempt), which fails the same way and
	// re-installs an Incomplete extent — stamping the retry clock.
	if got, err := med.QueryString(all); err != nil || len(got) != 0 {
		t.Fatalf("down hit: %d objects, err=%v", len(got), err)
	}
	med.WaitMatViews()

	// Source back up, but within RecoverInterval of the last attempt:
	// the degraded extent keeps serving and no refresh fires.
	src.setDown(false)
	recovers := metrics.Default().Counter("matview.recover").Value()
	if got, err := med.QueryString(all); err != nil || len(got) != 0 {
		t.Fatalf("healed but rate-limited: %d objects, err=%v", len(got), err)
	}
	med.WaitMatViews()
	if v := metrics.Default().Counter("matview.recover").Value(); v != recovers {
		t.Fatalf("recovery refresh fired inside RecoverInterval: %d -> %d", recovers, v)
	}

	// Past the interval: the next hit triggers the recovery rebuild.
	advance(2 * time.Minute)
	if _, err := med.QueryString(all); err != nil {
		t.Fatal(err)
	}
	med.WaitMatViews()
	if v := metrics.Default().Counter("matview.recover").Value(); v <= recovers {
		t.Fatalf("recovery refresh did not fire after RecoverInterval: %d -> %d", recovers, v)
	}
	got, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(people) {
		t.Fatalf("recovered extent serves %d profiles, want %d", len(got), len(people))
	}

	// The healed extent is complete: no further recovery refreshes fire,
	// even well past the interval.
	settled := metrics.Default().Counter("matview.recover").Value()
	advance(10 * time.Minute)
	if _, err := med.QueryString(all); err != nil {
		t.Fatal(err)
	}
	med.WaitMatViews()
	if v := metrics.Default().Counter("matview.recover").Value(); v != settled {
		t.Fatalf("complete extent still retries recovery: %d -> %d", settled, v)
	}
}

// TestDeltaRecordsNoSourceStatistics: the delta rule scans the inserted
// objects in place, so maintaining an extent through inserts leaves the
// mutated source's learned statistics — cardinality estimate, exchange
// count, latency — exactly as the last real exchange left them. These
// feed join ordering, drift replans and replica scores.
func TestDeltaRecordsNoSourceStatistics(t *testing.T) {
	_, store, cs, whois := mutablePaperSources(t)
	med, err := New(Config{
		Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "cs_person"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	stats := med.QueryStats()
	key := leafShape(t, med, `P :- P:<cs_person {<name N>}>@med.`, "whois")
	obs := stats.Observations("whois", key)
	est, _ := stats.Estimate("whois", key)
	exchanges := sourceExchanges("whois")
	latency, _ := stats.SourceLatency("whois")
	if obs == 0 || exchanges == 0 {
		t.Fatalf("the build recorded nothing for whois: %d observations, %d exchanges", obs, exchanges)
	}

	const n = 5
	for i := 0; i < n; i++ {
		store.MustAdd(Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: fmt.Sprintf("Ann Alpha%d", i)},
			{Name: "dept", Value: "CS"},
			{Name: "relation", Value: "employee"},
		}})
	}
	if s := med.MatViewStats(); s.Deltas != n || s.DeltaFallbacks != 0 {
		t.Fatalf("matview stats after %d inserts = %+v", n, s)
	}
	if got := stats.Observations("whois", key); got != obs {
		t.Errorf("whois@%s observations: %d -> %d", key, obs, got)
	}
	if got, _ := stats.Estimate("whois", key); got != est {
		t.Errorf("whois@%s estimate: %.2f -> %.2f", key, est, got)
	}
	if got := sourceExchanges("whois"); got != exchanges {
		t.Errorf("whois exchanges: %d -> %d", exchanges, got)
	}
	if got, _ := stats.SourceLatency("whois"); got != latency {
		t.Errorf("whois latency EWMA: %v -> %v", latency, got)
	}
}

// mutPerson builds a whois person whose name splits into the
// first_name/last_name pair of mutRelation(i, …), so inserted pairs join
// through specMS1's decomp the same way randomPeople/randomRelations do.
func mutPerson(gen *oem.IDGen, i int, rel string, extra ...*Object) *Object {
	subs := oem.Set{
		oem.New(gen.Next(), "name", fmt.Sprintf("M%03d X%03d", i, i)),
		oem.New(gen.Next(), "dept", "CS"),
		oem.New(gen.Next(), "relation", rel),
	}
	subs = append(subs, extra...)
	return &Object{OID: gen.Next(), Label: "person", Value: subs}
}

func mutRelation(gen *oem.IDGen, i int, label string) *Object {
	subs := oem.Set{
		oem.New(gen.Next(), "first_name", fmt.Sprintf("M%03d", i)),
		oem.New(gen.Next(), "last_name", fmt.Sprintf("X%03d", i)),
	}
	if label == "student" {
		subs = append(subs, oem.New(gen.Next(), "year", 1+i%5))
	}
	return &Object{OID: gen.Next(), Label: label, Value: subs}
}

// TestMutationDifferential interleaves inserts and deletes with the full
// spec/query matrix and holds three mediators over the same mutable
// sources to the same answers after every step:
//
//   - delta:   materialized, maintained only by the change feed (insert
//     deltas through the fast path, deletes via the rebuild fallback);
//   - rebuilt: materialized, force-rebuilt from scratch after every step
//     (Invalidate + Refresh) — the ground-truth extent;
//   - live:    no materialization at all.
//
// Equality of canonicalized answers across all three — including warm
// queries served straight from extents — is the proof that
// delta-maintained extents are byte-identical to rebuilt ones. The last
// step mutates concurrently with queries; under -race this exercises the
// feed's locking.
func TestMutationDifferential(t *testing.T) {
	specs, queries := columnarSuite()
	ctx := context.Background()
	for _, mode := range executorModes {
		t.Run(mode.name, func(t *testing.T) {
			var totalDeltas, totalFallbacks int64
			for si, spec := range specs {
				r := rand.New(rand.NewSource(int64(11 + si)))
				people := randomPeople(r, 20)
				whoisSrc := NewOEMSource("whois")
				if err := whoisSrc.Add(people...); err != nil {
					t.Fatal(err)
				}
				csSrc := NewOEMSource("cs")
				if err := csSrc.Add(randomRelations(r, 20)...); err != nil {
					t.Fatal(err)
				}
				xmlSrc, streamSrc := heteroSources(t, people)
				base := Config{
					Name: "med", Spec: spec,
					Sources:     []Source{csSrc, whoisSrc, xmlSrc, streamSrc},
					Parallelism: mode.parallel,
					QueryBatch:  mode.batch,
				}
				live, err := New(base)
				if err != nil {
					t.Fatal(err)
				}
				mk := func() *Mediator {
					c := base
					c.Materialize = &MatViewOptions{Views: materializedLabels(t, spec)}
					m, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				delta, rebuilt := mk(), mk()

				// Prime: build every queryable extent before mutating, so
				// deltas land on populated extents rather than cold views.
				for _, q := range queries {
					delta.QueryString(q)
					rebuilt.QueryString(q)
				}
				delta.WaitMatViews()
				rebuilt.WaitMatViews()

				gen := oem.NewIDGen("mut")
				check := func(step string) {
					t.Helper()
					// Ground truth: rebuild every extent from scratch.
					rebuilt.Invalidate("")
					if err := rebuilt.Refresh(ctx, ""); err != nil {
						t.Fatalf("spec=%d %s: refresh: %v", si, step, err)
					}
					// Settle the delta mediator's fallback rebuilds.
					delta.WaitMatViews()
					for qi, q := range queries {
						want, err := live.QueryString(q)
						if err != nil {
							continue // query does not apply to this spec
						}
						wantKeys := canonicalize(want)
						for _, m := range []struct {
							name string
							med  *Mediator
						}{{"delta", delta}, {"rebuilt", rebuilt}} {
							// Twice: the first may pay a build, the second
							// is served from the maintained extent.
							for _, pass := range []string{"cold", "warm"} {
								got, err := m.med.QueryString(q)
								if err != nil {
									t.Fatalf("spec=%d %s query=%d %s/%s: %v", si, step, qi, m.name, pass, err)
								}
								gotKeys := canonicalize(got)
								if len(gotKeys) != len(wantKeys) {
									t.Fatalf("spec=%d %s query=%d %s/%s: %d objects, live has %d\nquery: %s",
										si, step, qi, m.name, pass, len(gotKeys), len(wantKeys), q)
								}
								for i := range gotKeys {
									if gotKeys[i] != wantKeys[i] {
										t.Fatalf("spec=%d %s query=%d %s/%s: result %d differs\nquery: %s\ngot:  %s\nwant: %s",
											si, step, qi, m.name, pass, i, q, gotKeys[i], wantKeys[i])
									}
								}
							}
						}
					}
				}

				// Step 1: insert a joined employee pair — insert-only, the
				// delta fast path where the spec admits it.
				if err := whoisSrc.Add(mutPerson(gen, 101, "employee")); err != nil {
					t.Fatal(err)
				}
				if err := csSrc.Add(mutRelation(gen, 101, "employee")); err != nil {
					t.Fatal(err)
				}
				check("insert-employee")

				// Step 2: a student pair plus an e_mail'd person — more
				// irregular shapes through the same path.
				if err := whoisSrc.Add(
					mutPerson(gen, 102, "student", oem.New(gen.Next(), "year", 4)),
					mutPerson(gen, 103, "employee", oem.New(gen.Next(), "e_mail", "m103@x")),
				); err != nil {
					t.Fatal(err)
				}
				if err := csSrc.Add(mutRelation(gen, 102, "student"), mutRelation(gen, 103, "employee")); err != nil {
					t.Fatal(err)
				}
				check("insert-irregular")

				// Step 3: deletes — including 'P004 Q004', the name query 0
				// pins — forcing the rebuild fallback.
				wp := whoisSrc.Export()
				cp := csSrc.Export()
				if removed := whoisSrc.Remove(wp[4].OID); len(removed) != 1 {
					t.Fatalf("spec=%d: whois delete removed %d", si, len(removed))
				}
				if removed := csSrc.Remove(cp[7].OID); len(removed) != 1 {
					t.Fatalf("spec=%d: cs delete removed %d", si, len(removed))
				}
				check("delete")

				// Step 4: inserts after the delete land on the rebuilt
				// extents; a stream append rides the same delta path for
				// the spec that reads the event log.
				if err := whoisSrc.Add(mutPerson(gen, 104, "employee")); err != nil {
					t.Fatal(err)
				}
				if err := csSrc.Add(mutRelation(gen, 104, "employee")); err != nil {
					t.Fatal(err)
				}
				if err := streamSrc.Append(mutPerson(gen, 105, "employee")); err != nil {
					t.Fatal(err)
				}
				check("insert-after-delete")

				// Step 5: mutate concurrently with queries on the
				// delta-maintained mediator, then compare once settled.
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 3; k++ {
						whoisSrc.Add(mutPerson(gen, 110+k, "employee"))
						csSrc.Add(mutRelation(gen, 110+k, "employee"))
					}
				}()
				for j := 0; j < 4; j++ {
					delta.QueryString(queries[j%len(queries)])
				}
				wg.Wait()
				check("concurrent-insert")

				st := delta.MatViewStats()
				totalDeltas += st.Deltas
				totalFallbacks += st.DeltaFallbacks
			}
			// Across the matrix both maintenance paths must have run: the
			// fast path on insert-only steps of delta-evaluable specs, the
			// fallback on deletes and on fused/negated specs.
			if totalDeltas == 0 {
				t.Fatal("no mutation took the delta fast path")
			}
			if totalFallbacks == 0 {
				t.Fatal("no mutation took the rebuild fallback")
			}
		})
	}
}
