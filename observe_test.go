package medmaker

import (
	"context"
	"strings"
	"testing"

	"medmaker/internal/trace"
)

// runTracedQ1 builds a fresh cached mediator in the given mode and
// answers the paper's Q1 with tracing on. A fresh mediator per run keeps
// the caches scoped to exactly this query, so the trace's cache counts
// must equal theirs.
func runTracedQ1(t *testing.T, mode execMode) (*Mediator, *QueryResult, trace.Summary) {
	t.Helper()
	cs, whois := newPaperSources(t)
	med, err := New(Config{
		Name:        "med",
		Spec:        specMS1,
		Sources:     []Source{cs, whois},
		Parallelism: mode.parallel,
		QueryBatch:  mode.batch,
		Cache:       &CacheOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	res, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return med, res, qt.Snapshot()
}

// TestTraceAgreesWithEngineCounters: in every execution mode, the
// structured trace's cache traffic equals the answer caches' own
// counters, every exchange has a latency observation, the graph has one
// root producing the answer, and the phase segments partition the total
// wall time.
func TestTraceAgreesWithEngineCounters(t *testing.T) {
	var firstObjects []string
	var firstRoot int64
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			med, res, snap := runTracedQ1(t, mode)

			// Phase segments partition the total exactly (contiguous
			// boundary timestamps, not independent clock reads).
			var phaseSum int64
			for _, p := range snap.Phases {
				phaseSum += p.Nanos
			}
			if phaseSum != snap.TotalNanos {
				t.Errorf("phases sum to %dns, total is %dns", phaseSum, snap.TotalNanos)
			}
			// QueryTraced receives a parsed rule, so the trace starts at
			// expansion; parsing appears on the ExplainAnalyze text path.
			for _, want := range []string{"expand", "plan", "execute"} {
				found := false
				for _, p := range snap.Phases {
					if p.Name == want {
						found = true
					}
				}
				if !found {
					t.Errorf("phase %q missing from %v", want, snap.Phases)
				}
			}

			if len(snap.Sources) == 0 {
				t.Fatal("trace recorded no sources")
			}
			for _, src := range snap.Sources {
				// Every exchange has a latency observation.
				if src.Latency.Count != src.Exchanges {
					t.Errorf("%s: %d latency observations for %d exchanges",
						src.Name, src.Latency.Count, src.Exchanges)
				}
			}

			// Cache traffic attributed through the context equals the
			// caches' own counters.
			for name, cs := range med.CacheStats() {
				var traced *trace.SourceSummary
				for i := range snap.Sources {
					if snap.Sources[i].Name == name {
						traced = &snap.Sources[i]
					}
				}
				if cs.Hits+cs.Misses == 0 {
					continue // source never consulted
				}
				if traced == nil {
					t.Errorf("cache %s saw traffic but the trace has no record of the source", name)
					continue
				}
				if traced.CacheHits != int64(cs.Hits) || traced.CacheMisses != int64(cs.Misses) {
					t.Errorf("%s: trace cache %d/%d hits/misses, cache counters %d/%d",
						name, traced.CacheHits, traced.CacheMisses, cs.Hits, cs.Misses)
				}
			}

			// The graph has exactly one root and its output is the answer.
			isKid := map[int]bool{}
			for _, n := range snap.Nodes {
				for _, k := range n.Kids {
					isKid[k] = true
				}
			}
			var roots []trace.NodeSummary
			for _, n := range snap.Nodes {
				if !isKid[n.ID] {
					roots = append(roots, n)
				}
			}
			if len(roots) != 1 {
				t.Fatalf("trace has %d graph roots, want 1", len(roots))
			}
			if roots[0].RowsOut != int64(len(res.Objects)) {
				t.Errorf("root produced %d rows, query answered %d objects",
					roots[0].RowsOut, len(res.Objects))
			}

			// All modes compute the same answer and the same root count.
			objs := canonicalize(res.Objects)
			if firstObjects == nil {
				firstObjects, firstRoot = objs, roots[0].RowsOut
			} else {
				if len(objs) != len(firstObjects) {
					t.Fatalf("mode %s answered %d objects, first mode %d",
						mode.name, len(objs), len(firstObjects))
				}
				for i := range objs {
					if objs[i] != firstObjects[i] {
						t.Errorf("mode %s result %d differs from first mode", mode.name, i)
					}
				}
				if roots[0].RowsOut != firstRoot {
					t.Errorf("mode %s root rows %d, first mode %d", mode.name, roots[0].RowsOut, firstRoot)
				}
			}
		})
	}
}

// TestExplainAnalyzeRendering checks the rendered EXPLAIN ANALYZE form:
// actual row counts, per-source exchange lines, and phase timings.
func TestExplainAnalyzeRendering(t *testing.T) {
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			cs, whois := newPaperSources(t)
			med, err := New(Config{
				Name:        "med",
				Spec:        specMS1,
				Sources:     []Source{cs, whois},
				Parallelism: mode.parallel,
				QueryBatch:  mode.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := med.ExplainAnalyze(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"-- total", "execute", "rows=", "calls=", "exchanges=",
				"source whois:", "source cs:", "-- 1 result objects --",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("EXPLAIN ANALYZE output lacks %q:\n%s", want, out)
				}
			}
			// A parameterized query fans out on the morsel scheduler in
			// every mode — per-tuple exchanges as width-1 morsels, batched
			// ones as exchange chunks plus extraction — so its stats line
			// reports morsel and worker counts.
			lines := strings.Split(out, "\n")
			params := 0
			for i, line := range lines {
				if !strings.HasPrefix(strings.TrimSpace(line), "param-query(") || i+1 == len(lines) {
					continue
				}
				params++
				if stats := lines[i+1]; !strings.Contains(stats, "morsels=") || !strings.Contains(stats, "workers=") {
					t.Errorf("param-query node reports no morsels/workers: %q", stats)
				}
			}
			if params == 0 {
				t.Errorf("EXPLAIN ANALYZE shows no param-query node:\n%s", out)
			}
		})
	}
}

// TestExplainRemainsStatic: Explain must not query any source.
func TestExplainRemainsStatic(t *testing.T) {
	cs, whois := newPaperSources(t)
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}})
	if err != nil {
		t.Fatal(err)
	}
	e0, _ := engineTraffic()
	out, err := med.Explain(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "physical datamerge graph") {
		t.Errorf("Explain output lacks the physical graph:\n%s", out)
	}
	if e1, _ := engineTraffic(); e1 != e0 {
		t.Errorf("Explain performed %d source exchanges, want 0", e1-e0)
	}
}
