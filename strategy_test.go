package medmaker

// Strategy tests: Query and Explain answer a query the same way, and the
// plans that read in-memory extents — the fused view, delta rules —
// compile once through the plan cache and run over whatever the extents
// hold.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"medmaker/internal/metrics"
)

// TestExplainShowsMatViewScan: Explain prints the scan of the extent
// that Query serves a covered query from, and stays static: no exchange,
// no extent built, no matview counter moved — cold or warm.
func TestExplainShowsMatViewScan(t *testing.T) {
	cs, whois := newPaperSources(t)
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "cs_person"}}}})
	if err != nil {
		t.Fatal(err)
	}
	const q = `JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`
	for _, pass := range []string{"cold", "warm"} {
		e0, _ := engineTraffic()
		s0 := med.MatViewStats()
		out, err := med.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "matscan(cs_person)") || strings.Contains(out, "query(whois)") {
			t.Errorf("%s: Explain does not show the extent scan Query runs:\n%s", pass, out)
		}
		if e1, _ := engineTraffic(); e1 != e0 {
			t.Errorf("%s: Explain made %d exchanges, want 0", pass, e1-e0)
		}
		if s1 := med.MatViewStats(); s1 != s0 {
			t.Errorf("%s: Explain moved the matview counters: %+v -> %+v", pass, s0, s1)
		}
		analyzed, err := med.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(analyzed, "matscan(cs_person)") {
			t.Errorf("%s: ExplainAnalyze did not run the scan Explain shows:\n%s", pass, analyzed)
		}
	}
}

// TestDeltaPlanCompilesOnce: with a plan cache, the delta rule of each
// (view, source) compiles on the first insert and is reused by the
// rest, and the delta-maintained extent still equals a full rebuild.
func TestDeltaPlanCompilesOnce(t *testing.T) {
	db, store, cs, whois := mutablePaperSources(t)
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "cs_person"}}},
		PlanCache:   &PlanCacheOptions{Metrics: metrics.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := med.Refresh(ctx, "cs_person"); err != nil {
		t.Fatal(err)
	}
	emp, ok := db.Table("employee")
	if !ok {
		t.Fatal("employee table missing")
	}
	const n = 5
	p0, m0 := med.PlanCacheStats(), med.MatViewStats()
	for i := 0; i < n; i++ {
		last := fmt.Sprintf("Delta%d", i)
		emp.MustInsert("Ann", last, "lecturer", "Joe Chung")
		store.MustAdd(Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: "Ann " + last},
			{Name: "dept", Value: "CS"},
			{Name: "relation", Value: "employee"},
		}})
	}
	p1, m1 := med.PlanCacheStats(), med.MatViewStats()
	if d := m1.Deltas - m0.Deltas; d != 2*n || m1.DeltaFallbacks != m0.DeltaFallbacks {
		t.Fatalf("%d inserts applied %d deltas and %d fallbacks, want %d and 0",
			2*n, d, m1.DeltaFallbacks-m0.DeltaFallbacks, 2*n)
	}
	// One compile per (view, source): the cs and the whois delta rules.
	if misses, hits := p1.Misses-p0.Misses, p1.Hits-p0.Hits; misses != 2 || hits != 2*n-2 {
		t.Errorf("%d inserts: %d plan-cache misses and %d hits, want 2 and %d", 2*n, misses, hits, 2*n-2)
	}

	const all = `X :- X:<cs_person {<name N>}>@med.`
	maintained, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	if med.MatViewStats().Hits != m1.Hits+1 {
		t.Fatal("the view query was not served from the maintained extent")
	}
	med.Invalidate("cs_person")
	if err := med.Refresh(ctx, "cs_person"); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	got, want := canonicalize(maintained), canonicalize(rebuilt)
	if len(want) != 2+n || !slices.Equal(got, want) {
		t.Errorf("maintained extent differs from a rebuild (%d vs %d objects, want %d):\n%q\n%q",
			len(got), len(want), 2+n, got, want)
	}
}

// TestFusedPlanCached: with a plan cache, a fused-view query compiles its
// fetch and its query over the view once; asked again, both plans are
// hits, and the answers are those of a mediator without a plan cache.
func TestFusedPlanCached(t *testing.T) {
	const q = `X :- X:<rec {<salary 120000> <room 'Gates 401'>}>@staff.`
	rule, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(cfg Config) [][]string {
		t.Helper()
		payroll, facilities := staffSources(t)
		cfg.Name, cfg.Spec, cfg.Sources = "staff", specFusedStaff, []Source{payroll, facilities}
		med, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for pass := 0; pass < 2; pass++ {
			res, qt, err := med.QueryTraced(context.Background(), rule)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, canonicalize(res.Objects))
			if cfg.PlanCache == nil {
				continue
			}
			hits := qt.Snapshot().Annotations["cached-plan"]
			if want := int64(2 * pass); hits != want {
				t.Errorf("pass %d: %d cached plans, want %d (the fetch and the query over the view)", pass, hits, want)
			}
		}
		if cfg.PlanCache != nil {
			if s := med.PlanCacheStats(); s.Misses != 2 || s.Hits != 2 {
				t.Errorf("plan cache %+v, want 2 misses then 2 hits", s)
			}
		}
		return out
	}
	cached := answers(Config{PlanCache: &PlanCacheOptions{Metrics: metrics.NewRegistry()}})
	plain := answers(Config{})
	for pass := range plain {
		if len(plain[pass]) != 1 || !slices.Equal(cached[pass], plain[pass]) {
			t.Errorf("pass %d: with plan cache %q, without %q; want the one fused object both times",
				pass, cached[pass], plain[pass])
		}
	}
}
