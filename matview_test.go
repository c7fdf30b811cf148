package medmaker

// Materialized-view integration tests: matview-enabled mediators must be
// answer-indistinguishable from plain ones (differential, every executor
// mode), warm contained queries must perform zero source exchanges
// (proven from the trace, not inferred), and freshness transitions — TTL
// expiry, invalidation, background refresh — must route queries to the
// right path at every step.

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"medmaker/internal/msl"
)

// materializedLabels lists spec's constant head labels — the view heads
// a matview configuration can materialize.
func materializedLabels(t *testing.T, spec string) []MatView {
	t.Helper()
	prog, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var views []MatView
	seen := map[string]bool{}
	for _, r := range prog.Rules {
		for _, h := range r.Head {
			op, ok := h.(*msl.ObjectPattern)
			if !ok {
				continue
			}
			if l := op.LabelName(); l != "" && !seen[l] {
				seen[l] = true
				views = append(views, MatView{Label: l})
			}
		}
	}
	if len(views) == 0 {
		t.Fatalf("spec has no materializable heads:\n%s", spec)
	}
	return views
}

// TestMatViewDifferential: for every executor mode, a matview-enabled
// mediator must return exactly the answers of a plain one — cold (first
// query pays the build) and warm (served from the extent) alike — across
// the workload spec/query matrix, including specs the matview path must
// decline (pass-through source conjuncts, label variables, negation).
func TestMatViewDifferential(t *testing.T) {
	specs := []string{
		specMS1,
		`<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		`<senior {<name N> <year Y>}> :- <person {<name N> <year Y>}>@whois AND ge(Y, 3).`,
		`<anyone {<who N>}> :- <person {<name N>}>@whois.
		 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
		`<lonely {<name N>}> :-
		    <person {<name N> <relation R>}>@whois
		    AND NOT <R {<first_name FN>}>@cs.`,
	}
	queries := []string{
		`X :- X:<cs_person {<name 'P004 Q004'>}>@med.`,
		`X :- X:<cs_person {<year 3>}>@med.`,
		`X :- X:<profile {<name N>}>@med.`,
		`X :- X:<profile {<e_mail E>}>@med.`,
		`X :- X:<senior {<year 5>}>@med.`,
		`X :- X:<anyone {<who W>}>@med.`,
		`X :- X:<lonely {<name N>}>@med.`,
		// Mixed: a mediator conjunct and a direct source conjunct.
		`<both N FN> :- <anyone {<who N>}>@med AND <employee {<first_name FN>}>@cs.`,
	}
	r := rand.New(rand.NewSource(7))
	people := randomPeople(r, 30)
	relations := randomRelations(r, 30)
	for _, mode := range executorModes {
		t.Run(mode.name, func(t *testing.T) {
			for si, spec := range specs {
				whoisSrc := NewOEMSource("whois")
				if err := whoisSrc.Add(people...); err != nil {
					t.Fatal(err)
				}
				csSrc := NewOEMSource("cs")
				if err := csSrc.Add(relations...); err != nil {
					t.Fatal(err)
				}
				base := Config{
					Name: "med", Spec: spec,
					Sources:     []Source{csSrc, whoisSrc},
					Parallelism: mode.parallel,
					QueryBatch:  mode.batch,
				}
				plain, err := New(base)
				if err != nil {
					t.Fatal(err)
				}
				mat := base
				mat.Materialize = &MatViewOptions{Views: materializedLabels(t, spec)}
				matted, err := New(mat)
				if err != nil {
					t.Fatal(err)
				}
				for qi, qText := range queries {
					q, err := ParseQuery(qText)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.Query(q)
					if err != nil {
						continue // query does not apply to this spec
					}
					wantKeys := canonicalize(want)
					for _, pass := range []string{"cold", "warm"} {
						got, err := matted.Query(q)
						if err != nil {
							t.Fatalf("spec=%d query=%d %s: %v", si, qi, pass, err)
						}
						gotKeys := canonicalize(got)
						if len(gotKeys) != len(wantKeys) {
							t.Fatalf("spec=%d query=%d %s: %d objects, plain has %d\nquery: %s",
								si, qi, pass, len(gotKeys), len(wantKeys), qText)
						}
						for i := range gotKeys {
							if gotKeys[i] != wantKeys[i] {
								t.Fatalf("spec=%d query=%d %s: result %d differs\nquery: %s\ngot:  %s\nwant: %s",
									si, qi, pass, i, qText, gotKeys[i], wantKeys[i])
							}
						}
					}
				}
				matted.WaitMatViews()
			}
		})
	}
}

// newMatViewMediator builds a paper-sources MS1 mediator materializing
// cs_person.
func newMatViewMediator(t *testing.T, opts MatViewOptions, mode execMode) *Mediator {
	t.Helper()
	cs, whois := newPaperSources(t)
	if len(opts.Views) == 0 {
		opts.Views = []MatView{{Label: "cs_person"}}
	}
	med, err := New(Config{
		Name:        "med",
		Spec:        specMS1,
		Sources:     []Source{cs, whois},
		Parallelism: mode.parallel,
		QueryBatch:  mode.batch,
		Materialize: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// TestMatViewWarmHitZeroExchanges is the acceptance proof: a repeated
// contained query is served with zero source exchanges. The warm query's
// trace must record no sources at all (a matscan deliberately registers
// none), the statistics store's per-source exchange counters must not
// move, and the hit must be annotated.
func TestMatViewWarmHitZeroExchanges(t *testing.T) {
	for _, mode := range executorModes {
		t.Run(mode.name, func(t *testing.T) {
			med := newMatViewMediator(t, MatViewOptions{}, mode)
			q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			// Cold: pays the materialization (live exchanges happen).
			cold, err := med.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(cold) == 0 {
				t.Fatal("cold query returned nothing")
			}
			exBefore := map[string]int64{}
			for _, src := range med.Sources() {
				exBefore[src] = sourceExchanges(src)
			}

			res, qt, err := med.QueryTraced(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Objects) != len(cold) {
				t.Fatalf("warm answer has %d objects, cold had %d", len(res.Objects), len(cold))
			}
			snap := qt.Snapshot()
			if snap.Annotations["matview.hit"] != 1 {
				t.Fatalf("warm query not annotated as a hit: %v", snap.Annotations)
			}
			if len(snap.Sources) != 0 {
				t.Fatalf("warm hit recorded source traffic: %+v", snap.Sources)
			}
			for _, src := range med.Sources() {
				if got := sourceExchanges(src); got != exBefore[src] {
					t.Fatalf("source %s exchanged during a warm hit: %d -> %d", src, exBefore[src], got)
				}
			}
			if s := med.MatViewStats(); s.Hits < 1 {
				t.Fatalf("matview stats = %+v", s)
			}
		})
	}
}

// TestMatViewNonContainedFallsBack: a query the extent cannot answer —
// here one whose mediator conjunct exceeds the materialized pattern —
// runs live, with source traffic, and still answers correctly.
func TestMatViewNonContainedFallsBack(t *testing.T) {
	for _, mode := range executorModes {
		t.Run(mode.name, func(t *testing.T) {
			med := newMatViewMediator(t, MatViewOptions{Views: []MatView{
				{Label: "cs_person", Pattern: `<cs_person {<relation 'employee'>}>`},
			}}, mode)
			// Not contained: asks for any relation, the extent only holds
			// employees.
			q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			res, qt, err := med.QueryTraced(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			snap := qt.Snapshot()
			if snap.Annotations["matview.miss"] != 1 {
				t.Fatalf("non-contained query not a miss: %v", snap.Annotations)
			}
			if len(snap.Sources) == 0 {
				t.Fatal("live fallback recorded no source traffic")
			}
			if len(res.Objects) == 0 {
				t.Fatal("fallback returned nothing")
			}
			// Contained in the narrowed pattern: served from the extent.
			q2, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'> <relation 'employee'>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := med.Query(q2); err != nil { // cold build
				t.Fatal(err)
			}
			_, qt2, err := med.QueryTraced(context.Background(), q2)
			if err != nil {
				t.Fatal(err)
			}
			if snap2 := qt2.Snapshot(); snap2.Annotations["matview.hit"] != 1 || len(snap2.Sources) != 0 {
				t.Fatalf("contained query not served: %v, sources %+v", snap2.Annotations, snap2.Sources)
			}
		})
	}
}

// TestMatViewStalenessTTL: after the TTL passes, the query re-expands
// live — visible in the trace as a stale annotation plus real source
// traffic — while a background refresh restores extent serving.
func TestMatViewStalenessTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	med := newMatViewMediator(t, MatViewOptions{
		Views: []MatView{{Label: "cs_person", TTL: time.Minute}},
		Clock: clock,
	}, executorModes[0])
	q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := med.Query(q) // cold build
	if err != nil {
		t.Fatal(err)
	}

	now = now.Add(2 * time.Minute) // extent ages out
	res, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	snap := qt.Snapshot()
	if snap.Annotations["matview.stale"] != 1 {
		t.Fatalf("expired query not annotated stale: %v", snap.Annotations)
	}
	if len(snap.Sources) == 0 {
		t.Fatal("stale fallback performed no live expansion")
	}
	if len(res.Objects) != len(want) {
		t.Fatalf("stale fallback answered %d objects, want %d", len(res.Objects), len(want))
	}

	med.WaitMatViews() // background refresh restamps builtAt to the new now
	_, qt2, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if snap2 := qt2.Snapshot(); snap2.Annotations["matview.hit"] != 1 {
		t.Fatalf("post-refresh query not a hit: %v", snap2.Annotations)
	}
	if s := med.MatViewStats(); s.Stale != 1 || s.Refreshes != 2 {
		t.Fatalf("matview stats = %+v", s)
	}
}

// TestMediatorInvalidateOnePath: Mediator.Invalidate(name) is the single
// invalidation path — it reaches both the per-source answer caches and
// the dependent materialized views.
func TestMediatorInvalidateOnePath(t *testing.T) {
	cs, whois := newPaperSources(t)
	med, err := New(Config{
		Name:        "med",
		Spec:        specMS1,
		Sources:     []Source{cs, whois},
		Cache:       &CacheOptions{},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "cs_person"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.Query(q); err != nil {
		t.Fatal(err)
	}
	entries := func(name string) int {
		s, ok := med.CacheStats()[name]
		if !ok {
			t.Fatalf("no cache stats for %s", name)
		}
		return s.Entries
	}
	if entries("whois") == 0 {
		t.Fatal("cold query left the whois cache empty; nothing to invalidate")
	}
	csEntries := entries("cs")

	// Invalidating whois drops its cache, leaves cs alone, and marks the
	// view (which reads whois) stale.
	if n := med.Invalidate("whois"); n != 1 {
		t.Fatalf("Invalidate(whois) marked %d views, want 1", n)
	}
	if entries("whois") != 0 {
		t.Fatal("whois cache survived Invalidate(whois)")
	}
	if entries("cs") != csEntries {
		t.Fatal("cs cache dropped by Invalidate(whois)")
	}
	_, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if snap := qt.Snapshot(); snap.Annotations["matview.stale"] != 1 {
		t.Fatalf("invalidated view still serving: %v", snap.Annotations)
	}
	med.WaitMatViews()

	// Invalidate("") clears everything.
	med.Invalidate("")
	if entries("whois") != 0 || entries("cs") != 0 {
		t.Fatal("Invalidate(\"\") left cache entries behind")
	}
}

// TestMatViewExplainAnalyze: the analyzed plan of a warm contained query
// names the matscan operator, making extent serving visible in the same
// tool that shows every other operator.
func TestMatViewExplainAnalyze(t *testing.T) {
	med := newMatViewMediator(t, MatViewOptions{}, executorModes[0])
	const q = `JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`
	if _, err := med.QueryString(q); err != nil { // warm the extent
		t.Fatal(err)
	}
	out, err := med.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "matscan(") {
		t.Fatalf("ExplainAnalyze does not show the matscan:\n%s", out)
	}
	if !strings.Contains(out, "matview.hit") {
		t.Fatalf("ExplainAnalyze does not show the hit annotation:\n%s", out)
	}
}

// TestMatViewConstantOIDHead: a view whose head carries a constant oid
// gives every object the same oid. The extent holds the mediator's own
// answers and is scanned without oid lookups, so it materializes and
// serves like any other.
func TestMatViewConstantOIDHead(t *testing.T) {
	cs, whois := newPaperSources(t)
	cfg := Config{
		Name:    "med",
		Spec:    `<&fixed view {<name N>}> :- <person {<name N>}>@whois.`,
		Sources: []Source{cs, whois},
	}
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Materialize = &MatViewOptions{Views: []MatView{{Label: "view"}}}
	med, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`X :- X:<view {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.Query(q)
	if err != nil || len(want) == 0 {
		t.Fatalf("live answer: %d objects, err=%v", len(want), err)
	}
	res, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if snap := qt.Snapshot(); snap.Annotations["matview.hit"] != 1 {
		t.Fatalf("query not served from the extent: %v", snap.Annotations)
	}
	if got, wantKeys := canonicalize(res.Objects), canonicalize(want); strings.Join(got, "\n") != strings.Join(wantKeys, "\n") {
		t.Fatalf("extent answers differ from live:\ngot:  %v\nwant: %v", got, wantKeys)
	}
	if s := med.MatViewStats(); s.RefreshErrors != 0 {
		t.Fatalf("matview stats = %+v", s)
	}
}

// TestMatViewRefreshWarmsExtent: an explicit Refresh builds the extent
// ahead of traffic, so even the first query is a zero-exchange hit.
func TestMatViewRefreshWarmsExtent(t *testing.T) {
	med := newMatViewMediator(t, MatViewOptions{}, executorModes[0])
	if err := med.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	_, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	snap := qt.Snapshot()
	if snap.Annotations["matview.hit"] != 1 || snap.Annotations["matview.build"] != 0 {
		t.Fatalf("first query after Refresh not a warm hit: %v", snap.Annotations)
	}
	if len(snap.Sources) != 0 {
		t.Fatalf("warmed hit recorded source traffic: %+v", snap.Sources)
	}
}
