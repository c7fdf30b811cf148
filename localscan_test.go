package medmaker

// Tests and a benchmark for the local scan: an in-process source hands
// the engine the candidates of each sent query, and the engine's
// extraction is the only matcher. Hiding the capability behind
// wrapper.Limited puts the same source back on the MSL path, which is
// the reference.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const scanMS1 = `P :- P:<cs_person {<name N>}>@med.`

// limited puts a source behind wrapper.Limited with its own
// capabilities: the MSL path, batched as the source itself batches.
func limited(s Source) Source { return &LimitedSource{Inner: s, Caps: s.Capabilities()} }

// localScanMediator is MS1 over in-process cs and whois at the given
// scale, each source passed through hide (nil keeps them as they are).
func localScanMediator(tb testing.TB, persons, batch int, hide func(Source) Source) (*Mediator, string) {
	tb.Helper()
	cs, whois, staff := scaledSources(tb, persons)
	sources := []Source{cs, whois}
	if hide != nil {
		sources = []Source{hide(cs), hide(whois)}
	}
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: sources, QueryBatch: batch})
	if err != nil {
		tb.Fatal(err)
	}
	return med, fmt.Sprintf(`Q :- Q:<cs_person {<name '%s'>}>@med.`, csName(staff, 1))
}

// TestLocalScanAccounting: a warm MS1 scan and a warm point query over
// in-process cs and whois record the same traffic whether the engine
// reads the sources' candidates or their MSL answers — per-source
// exchanges and queries in the trace and in the process metrics, every
// node's calls, rows, exchanges, queries, morsels and estimates in the
// trace, what the statistics store learned (the answer sizes) — and
// Explain prints the same warm plan. The MSL reference is each source
// behind wrapper.Limited, at QueryBatch 1 and at the default batch.
func TestLocalScanAccounting(t *testing.T) {
	for _, mode := range []struct {
		name  string
		batch int
		hide  func(Source) Source
	}{
		{"limited/batch=1", 1, limited},
		{"msl/batch=16", 0, limited},
	} {
		t.Run(mode.name, func(t *testing.T) {
			traffic := func(hide func(Source) Source) string {
				med, point := localScanMediator(t, 200, mode.batch, hide)
				var sb strings.Builder
				for _, q := range []string{scanMS1, point} {
					mustQuery(t, med, q, 1)
					parsed, err := ParseQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					cs0, whois0 := sourceExchanges("cs"), sourceExchanges("whois")
					_, q0 := engineTraffic()
					_, qt, err := med.QueryTraced(context.Background(), parsed)
					if err != nil {
						t.Fatal(err)
					}
					_, q1 := engineTraffic()
					fmt.Fprintf(&sb, "%s\nmetrics: cs %d, whois %d exchanges, %d queries\n",
						q, sourceExchanges("cs")-cs0, sourceExchanges("whois")-whois0, q1-q0)
					snap := qt.Snapshot()
					for _, s := range snap.Sources {
						fmt.Fprintf(&sb, "source %s: %d exchanges, %d queries, %d latencies\n",
							s.Name, s.Exchanges, s.Queries, s.Latency.Count)
					}
					for _, n := range snap.Nodes {
						fmt.Fprintf(&sb, "node %d %s %s: %d calls, rows %d -> %d, %d exchanges, %d queries, %d morsels, %d workers, est %v %v %s, misestimate %v\n",
							n.ID, n.Kind, n.Detail, n.Calls, n.RowsIn, n.RowsOut, n.Exchanges, n.Queries,
							n.Morsels, n.Workers, n.EstRows, n.HasEst, n.Shape, n.Misestimate)
					}
					explain, err := med.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					sb.WriteString(explain)
				}
				return sb.String() + learnedState(med)
			}
			if local, msl := traffic(nil), traffic(mode.hide); local != msl {
				t.Errorf("local scan recorded\n%s\nthe MSL path recorded\n%s", local, msl)
			}
		})
	}
}

// TestLimitedKeepsBatching: wrapper.Limited forwards a batch to a
// source that batches, so at the default QueryBatch a warm MS1 scan
// makes as many cs exchanges behind it as over the bare source, and
// fewer than at QueryBatch 1, where each probe is an exchange.
func TestLimitedKeepsBatching(t *testing.T) {
	scanExchanges := func(batch int, hide func(Source) Source) int64 {
		med, _ := localScanMediator(t, 200, batch, hide)
		mustQuery(t, med, scanMS1, 1)
		cs0 := sourceExchanges("cs")
		mustQuery(t, med, scanMS1, 1)
		return sourceExchanges("cs") - cs0
	}
	bare, behind, probes := scanExchanges(0, nil), scanExchanges(0, limited), scanExchanges(1, limited)
	if behind != bare || bare <= 0 || bare >= probes {
		t.Errorf("a warm scan makes %d cs exchanges behind Limited and %d over the bare source at the default batch, %d at batch 1; want the first two equal and below the third",
			behind, bare, probes)
	}
}

// scanBytes returns the bytes one warm MS1 scan allocates, averaged over
// a few scans.
func scanBytes(tb testing.TB, med *Mediator) uint64 {
	const scans = 4
	mustQuery(tb, med, scanMS1, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		mustQuery(tb, med, scanMS1, 1)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / scans
}

// TestLocalScanAllocs guards the local scan's allocation gain: a warm
// MS1 scan over in-process sources allocates at most 70 % of the bytes
// the same scan allocates with both sources behind wrapper.Limited.
func TestLocalScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	local, _ := localScanMediator(t, 1000, 0, nil)
	msl, _ := localScanMediator(t, 1000, 0, limited)
	l, m := scanBytes(t, local), scanBytes(t, msl)
	t.Logf("a warm scan allocates %d bytes over candidates, %d over MSL answers (%.2f)", l, m, float64(l)/float64(m))
	if float64(l) > 0.70*float64(m) {
		t.Errorf("a warm scan over candidates allocates %d bytes, over 70 %% of the %d it allocates over MSL answers", l, m)
	}
}

// BenchmarkLocalScanMS1 is the warm MS1 full-view scan at 2000 people,
// over the sources' candidates and, for comparison, over their MSL
// answers (both sources behind wrapper.Limited).
func BenchmarkLocalScanMS1(b *testing.B) {
	for _, bc := range []struct {
		name string
		hide func(Source) Source
	}{{"candidates", nil}, {"limited", limited}} {
		b.Run(bc.name, func(b *testing.B) {
			med, _ := localScanMediator(b, 2000, 0, bc.hide)
			mustQuery(b, med, scanMS1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, scanMS1, 1)
			}
		})
	}
}
