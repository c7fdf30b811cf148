package medmaker

// Tests for the engine's one bookkeeping path: each run keeps one record
// of what it observed and publishes it, when it ends, to the statistics
// store, the process metrics and the trace. What the store learns must
// not depend on whether the run was traced or on how many workers ran
// it, and what the trace reports must be what the metrics saw.

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"medmaker/internal/workload"
)

// engineTraffic reads the exchange and query totals the engine publishes
// to the process metrics registry when each run ends; tests take deltas
// around the queries they count (the tests of this package run one at a
// time).
func engineTraffic() (exchanges, queries int64) {
	reg := DefaultMetrics()
	return reg.Counter("engine.exchanges").Value(), reg.Counter("engine.queries").Value()
}

// sourceExchanges reads the engine's exchange total for one source.
func sourceExchanges(source string) int64 {
	return DefaultMetrics().Counter("engine.exchanges." + source).Value()
}

var latencyText = regexp.MustCompile(`lat [^,\n]+`)

// learnedState is the statistics store as text, with each estimate at
// full precision and latencies (the one thing that varies from run to
// run) masked.
func learnedState(med *Mediator) string {
	st := med.QueryStats()
	var sb strings.Builder
	for _, line := range strings.Split(st.String(), "\n") {
		key, _, _ := strings.Cut(line, ": ")
		if source, shape, ok := strings.Cut(key, "@"); ok {
			est, _ := st.Estimate(source, shape)
			fmt.Fprintf(&sb, "%s: %d observations, avg %v\n", key, st.Observations(source, shape), est)
			continue
		}
		sb.WriteString(latencyText.ReplaceAllString(line, "lat L") + "\n")
	}
	return sb.String()
}

// TestTracedAndUntracedLearnTheSame: three traced runs and three
// untraced runs of the adaptive bind-join workload teach the store the
// same estimates and selectivities, at one worker and at four.
func TestTracedAndUntracedLearnTheSame(t *testing.T) {
	const spec = `<deal {<sku S> <vendor V>}> :-
	    <special {<sku S> <vendor V>}>@small AND
	    <listing {<cat 'tools'> <stock 'yes'> <sku S>}>@big.`
	q, err := ParseQuery(`X :- X:<deal {<sku S> <vendor V>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		learn := func(traced bool) string {
			big, small := bindJoinSources(t, 300, 5)
			opts := DefaultPlanOptions()
			opts.Order = OrderAdaptive
			med, err := New(Config{Name: "med", Spec: spec, Sources: []Source{big, small}, Plan: &opts, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if traced {
					_, _, err = med.QueryTraced(context.Background(), q)
				} else {
					_, err = med.Query(q)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return learnedState(med)
		}
		if traced, untraced := learn(true), learn(false); traced != untraced {
			t.Errorf("parallelism %d: traced runs learned\n%s\nuntraced runs learned\n%s", par, traced, untraced)
		}
	}
}

// TestParallelismLearnsTheSame: twenty MS1 full-view scans over the same
// 200 people leave the same store at one worker and at four, batched and
// per tuple: each key moves once per run, by the run's mean, not once per
// probe in the order workers happen to finish. A third of the people are
// missing from cs, so the probes' answer sizes differ.
func TestParallelismLearnsTheSame(t *testing.T) {
	staff, err := workload.GenStaff(workload.StaffConfig{
		Persons: 200, WhoisOnly: 100, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 1} {
		learn := func(par int) string {
			cs, whois := NewRelationalWrapper("cs", staff.DB), NewRecordWrapper("whois", staff.Store)
			med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}, Parallelism: par, QueryBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				mustQuery(t, med, `P :- P:<cs_person {<name N>}>@med.`, 1)
			}
			return learnedState(med)
		}
		if serial, parallel := learn(1), learn(4); serial != parallel {
			t.Errorf("batch %d: one worker learned\n%s\nfour workers learned\n%s", batch, serial, parallel)
		}
	}
}

// TestTraceTrafficEqualsMetrics: for one run, in every execution mode,
// the per-source exchange and query counts of the trace equal what the
// run published to the process metrics.
func TestTraceTrafficEqualsMetrics(t *testing.T) {
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			cs, whois, _ := scaledSources(t, 40)
			med, err := New(Config{
				Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
				Parallelism: mode.parallel, QueryBatch: mode.batch, Cache: &CacheOptions{},
			})
			if err != nil {
				t.Fatal(err)
			}
			q, err := ParseQuery(`P :- P:<cs_person {<name N>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			before := map[string]int64{}
			for _, src := range med.Sources() {
				before[src] = sourceExchanges(src)
			}
			e0, q0 := engineTraffic()
			lat0 := DefaultMetrics().Snapshot().Histogram("engine.exchange_latency").Count
			_, qt, err := med.QueryTraced(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			e1, q1 := engineTraffic()
			lat1 := DefaultMetrics().Snapshot().Histogram("engine.exchange_latency").Count
			var exchanges, queries, latencies int64
			snap := qt.Snapshot()
			for _, src := range snap.Sources {
				if got := sourceExchanges(src.Name) - before[src.Name]; got != src.Exchanges {
					t.Errorf("%s: trace exchanges %d, metrics %d", src.Name, src.Exchanges, got)
				}
				exchanges += src.Exchanges
				queries += src.Queries
				latencies += src.Latency.Count
			}
			if exchanges == 0 || exchanges != e1-e0 || queries != q1-q0 || latencies != lat1-lat0 {
				t.Errorf("trace %d exchanges, %d queries, %d latencies; metrics %d, %d, %d",
					exchanges, queries, latencies, e1-e0, q1-q0, lat1-lat0)
			}
			var nodeExchanges int64
			for _, n := range snap.Nodes {
				nodeExchanges += n.Exchanges
			}
			if nodeExchanges != exchanges {
				t.Errorf("trace nodes made %d exchanges, its sources %d", nodeExchanges, exchanges)
			}
		})
	}
}

// maxWarmPointAllocs is what a warm, untraced point query of MS1 with the
// plan cache on allocates (299 with go1.24 on linux/amd64) since the
// in-process sources hand the engine their candidates instead of
// matching each query themselves, and since the run record's layout and
// the plan-drift check read an operator's one input without building a
// kids slice. It was 392 when the engine recorded each observation as it
// happened; the one run record must not cost more than it does now.
const maxWarmPointAllocs = 299

// TestWarmPointQueryAllocs is the guard on maxWarmPointAllocs.
func TestWarmPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cs, whois, staff := scaledSources(t, 40)
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
		PlanCache: &PlanCacheOptions{MaxEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf(`Q :- Q:<cs_person {<name '%s'>}>@med.`, csName(staff, 1))
	mustQuery(t, med, q, 1)
	mustQuery(t, med, q, 1)
	allocs := testing.AllocsPerRun(50, func() { mustQuery(t, med, q, 1) })
	t.Logf("%.0f allocations per warm point query", allocs)
	if allocs > maxWarmPointAllocs {
		t.Fatalf("a warm point query allocates %.0f times, over the guard of %d", allocs, maxWarmPointAllocs)
	}
}
