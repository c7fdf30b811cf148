package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ascending(10)
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

// The picker reports the highest percentile that still has ten samples
// beyond it, so the tail figure is never one or two outliers.
func TestPickHigh(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0.50}, {87, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		p, v := pickHigh(ascending(c.n))
		if p != c.want {
			t.Errorf("pickHigh over %d samples chose p%g, want p%g", c.n, p*100, c.want*100)
		}
		if beyond := c.n - int(v); beyond < minBeyond && p != 0.5 {
			t.Errorf("pickHigh over %d samples left %d beyond, want >= %d", c.n, beyond, minBeyond)
		}
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping, as two workers make them", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}, {200, 300}}, 80},
		{"covering", []interval{{0, 100}, {5, 6}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	if got := unionLen([]interval{{5, 7}, {1, 3}, {2, 6}}); got != 6 {
		t.Errorf("union length %d, want 6", got)
	}
}

// backToBack lays count ops of length each end to end from start, leaving
// gap between them for the checker.
func backToBack(start, each, gap int64, count int) []interval {
	ops := make([]interval, count)
	for i := range ops {
		ops[i] = interval{start, start + each}
		start += each + gap
	}
	return ops
}

func TestWindowQPS(t *testing.T) {
	const ms, s = int64(1e6), int64(1e9)
	near := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }

	// 70 ms ops, which straddle every window boundary: 1000/70 per second.
	steady := backToBack(0, 70*ms, 0, 100)
	if got := windowQPS([][]interval{steady}, s, 5); !near(got, 1000.0/70) {
		t.Errorf("steady qps %g, want %g", got, 1000.0/70)
	}
	// The checker's time between ops is not the program's.
	gapped := backToBack(0, 70*ms, 30*ms, 100)
	if got := windowQPS([][]interval{gapped}, s, 5); !near(got, 1000.0/70) {
		t.Errorf("qps with checker gaps %g, want %g", got, 1000.0/70)
	}
	// Two clients add.
	if got := windowQPS([][]interval{steady, steady}, s, 5); !near(got, 2000.0/70) {
		t.Errorf("two-client qps %g, want %g", got, 2000.0/70)
	}
	// One stall in one window of five does not move the median.
	stalled := append(backToBack(0, 10*ms, 0, 150), interval{1500 * ms, 2400 * ms})
	stalled = append(stalled, backToBack(2400*ms, 10*ms, 0, 260)...)
	if got := windowQPS([][]interval{stalled}, s, 5); !near(got, 100) {
		t.Errorf("qps with one stall %g, want 100", got)
	}
}

// The spread must be the one the driver computes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ascending(10), 2.75, 8.25},
		{[]float64{1, 1, 2, 3, 4, 5, 6, 9}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 5, 9}, 1, 9},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := newStat(ascending(10)); s.median != 5.5 || s.spread != 1 {
		t.Errorf("stat of 1..10: median %g spread %g, want 5.5 and 1", s.median, s.spread)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{lower, stat{median: 100}, stat{median: 109}, "same"},
		{lower, stat{median: 100}, stat{median: 111}, "worse"},
		{lower, stat{median: 100}, stat{median: 89}, "better"},
		{higher, stat{median: 100}, stat{median: 91}, "same"},
		{higher, stat{median: 100}, stat{median: 89}, "worse"},
		{higher, stat{median: 100}, stat{median: 111}, "better"},
		// Runs that spread wider than the bound resolve nothing.
		{lower, stat{median: 100, spread: 0.2}, stat{median: 101}, "unresolved"},
		{lower, stat{median: 100}, stat{median: 111, spread: 0.2}, "worse"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}

	run := func(qps, failShare float64) []report {
		return []report{{Workloads: []workloadReport{{Name: "w", EndToEnd: &endToEnd{
			QPS: qps, P50Ms: 1, AllocKBPerOp: 1, SetupS: 1, HeapMB: 1, FailShare: failShare}}}}}
	}
	var out bytes.Buffer
	if code := compareRuns(&out, run(100, 0), run(95, 0)); code != 0 {
		t.Errorf("within bounds: exit %d, want 0\n%s", code, out.String())
	}
	if code := compareRuns(&out, run(100, 0), run(70, 0)); code != 1 {
		t.Errorf("qps 30%% lower: exit %d, want 1", code)
	}
	if code := compareRuns(&out, run(100, 0), run(100, 0.01)); code != 1 {
		t.Errorf("fail_share rose: exit %d, want 1", code)
	}
	// A set of runs is compared by its medians.
	set := append(append(run(100, 0), run(10, 0)...), run(101, 0)...)
	out.Reset()
	if code := compareRuns(&out, run(100, 0), set); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("set with one outlier: exit %d, want 0 and qps unresolved\n%s", code, out.String())
	}
}

// plainSource implements only the three required methods, to show what
// the decorator does around a source without the optional capabilities.
type plainSource struct{ wrapper.Source }

// The decorator must be invisible to the optimizer and the engine: the
// plan a mediator explains over decorated sources is byte for byte the
// plan over raw ones, for both query shapes the workloads send.
func TestDecoratorIsTransparent(t *testing.T) {
	def, _ := workloadByName("mutate_read")
	raw, err := build(def, quickScale, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.shutdown()
	tr := newTracer()
	dec, err := build(def, quickScale, 1, 8, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.shutdown()
	for _, q := range []string{scanQuery, raw.gen.QueryFor(raw.staff.Names[0])} {
		want, err := raw.med.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.med.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Explain(%s) differs under decorators:\n--- raw ---\n%s--- decorated ---\n%s", q, want, got)
		}
	}

	// Capabilities and CountLabel come from the inner source.
	d := decorate(dec.raw, tr, "source", false).(*spanSource)
	if d.Capabilities() != dec.raw.Capabilities() {
		t.Error("Capabilities not forwarded")
	}
	wantN, _ := dec.raw.CountLabel("person")
	if n, ok := d.CountLabel("person"); !ok || n != wantN || n == 0 {
		t.Errorf("CountLabel(person) = %d, %v; want %d, true", n, ok, wantN)
	}
	if _, ok := decorate(plainSource{dec.raw}, tr, "source", false).(*spanSource).CountLabel("person"); ok {
		t.Error("CountLabel answered for a source that cannot count")
	}

	// QueryContext, QueryBatch and QueryBatchContext reach the source and,
	// with the tracer on, each call is one span carrying its answer count.
	q, err := msl.ParseQuery(`P :- P:<person {<dept 'CS'>}>@whois.`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dec.raw.Query(q)
	if err != nil || len(want) == 0 {
		t.Fatalf("raw query: %d objects, %v", len(want), err)
	}
	tr = newTracer()
	d = decorate(dec.raw, tr, "source", false).(*spanSource)
	tr.on.Store(true)
	one, err := d.Query(q)
	if err != nil || len(one) != len(want) {
		t.Errorf("Query: %d objects, %v; want %d", len(one), err, len(want))
	}
	batch, err := d.QueryBatch([]*msl.Rule{q, q})
	if err != nil || len(batch) != 2 || len(batch[1]) != len(want) {
		t.Errorf("QueryBatch: %d result sets, %v", len(batch), err)
	}
	tr.on.Store(false)
	if len(tr.spans) != 2 || tr.spans[0].Answers != len(want) || tr.spans[1].Answers != 2*len(want) ||
		tr.spans[0].Name != "source.whois" {
		t.Errorf("spans recorded: %+v", tr.spans)
	}

	// OnChange: an insert into the raw store reaches a subscriber of the
	// decorator, which is how the decorated mediator keeps its view.
	var seen []*oem.Object
	d.OnChange(func(delta wrapper.Delta) { seen = append(seen, delta.Inserted...) })
	if err := dec.insert(insertName(0)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || subString(seen[0], "name") != insertName(0) {
		t.Errorf("change feed through the decorator delivered %d objects", len(seen))
	}
	objs, err := dec.med.QueryString(dec.gen.QueryFor(insertName(0)))
	if err != nil || len(objs) != 1 {
		t.Errorf("decorated mediator read its write: %d objects, %v", len(objs), err)
	}
}

// The smoke test: every workload, at test scale, emits every named metric
// and answers every op right.
func TestQuickSmoke(t *testing.T) {
	rep, err := runAll(workloads, quickScale, 1, 1, -1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 4 {
		t.Fatalf("%d workloads ran, want 4", len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		e, l := w.EndToEnd, w.Layers
		if e == nil || l == nil {
			t.Fatalf("%s: missing results", w.Name)
		}
		if e.Failed != 0 || l.Failed != 0 || e.Ops == 0 || l.Ops == 0 {
			t.Errorf("%s: %d/%d ops failed untraced (%s), %d/%d traced (%s)",
				w.Name, e.Failed, e.Ops, e.FirstError, l.Failed, l.Ops*modes, l.FirstError)
		}
		for _, d := range endToEndMetrics {
			if e.gated(d.Name) <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.Name, d.Name, e.gated(d.Name))
			}
		}
		if e.PHiMs < e.P50Ms {
			t.Errorf("%s: p_hi_ms %g below p50_ms %g", w.Name, e.PHiMs, e.P50Ms)
		}
		for name, unit := range layerUnits {
			if m, ok := l.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s: per-layer metric %s missing or in %q, want %q", w.Name, name, m.Unit, unit)
			}
		}
		if v := l.Metrics["layers_sum_pct"].Value; v < 90 || v > 110 {
			t.Errorf("%s: layers sum to %.1f%% of the traced op", w.Name, v)
		}
		if _, err := os.Stat(l.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
	}
	byName := map[string]workloadReport{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	if l, r := byName["scan_local"].EndToEnd.AnswerHash, byName["scan_remote"].EndToEnd.AnswerHash; l == "" || l != r {
		t.Errorf("scan answer hashes differ: local %q, remote %q", l, r)
	}
	if v := byName["scan_remote"].Layers.Metrics["remote.self_ms_per_op"].Value; v <= 0 {
		t.Errorf("scan_remote: remote.self_ms_per_op = %g, want > 0", v)
	}
	if v := byName["scan_local"].Layers.Metrics["remote.self_ms_per_op"].Value; v != 0 {
		t.Errorf("scan_local: remote.self_ms_per_op = %g, want 0", v)
	}
	mr := byName["mutate_read"].Layers.Metrics
	if mr["matview.hit_rate"].Value != 1 || mr["matview.fallbacks"].Value != 0 || mr["source.whois.exchanges_per_op"].Value != 0 {
		t.Errorf("mutate_read: hit rate %g, fallbacks %g, whois exchanges %g; want 1, 0, 0",
			mr["matview.hit_rate"].Value, mr["matview.fallbacks"].Value, mr["source.whois.exchanges_per_op"].Value)
	}

	// The driver's line: exactly the end-to-end names untraced, exactly
	// the per-layer names traced.
	var line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	one := report{Workloads: []workloadReport{{Name: "scan_local", EndToEnd: byName["scan_local"].EndToEnd}}}
	if err := json.Unmarshal([]byte(one.resultLine(false)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(endToEndMetrics) || line.Metrics["qps"].Unit != "ops/s" {
		t.Errorf("untraced result line: %+v", line)
	}
	one.Workloads[0] = workloadReport{Name: "scan_local", Layers: byName["scan_local"].Layers}
	line.Metrics = nil
	if err := json.Unmarshal([]byte(one.resultLine(false)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(layerUnits) {
		t.Errorf("traced result line carries %d metrics, want %d", len(line.Metrics), len(layerUnits))
	}
}

// BENCHMARK.json at the repository root is the driver's copy of the
// tables in this package; the two must not drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), workloads[i].name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs from the one recorded here", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range spec.EndToEnd {
		if d != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, d, endToEndMetrics[i])
		}
	}
	var got, want []string
	for _, d := range spec.PerLayer {
		got = append(got, d.Name+" "+d.Unit)
	}
	for name, unit := range layerUnits {
		want = append(want, name+" "+unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json: %v\nhere:           %v", got, want)
	}
}
