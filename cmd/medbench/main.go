// Command medbench regenerates every figure-level artifact of the
// MedMaker paper and measures every performance claim, printing the rows
// recorded in EXPERIMENTS.md. Run with -figures to emit the structural
// artifacts (Figures 2.2–2.4, R2, τ1/τ2, the Figure 3.6 graph and trace),
// with -perf for the measured comparisons, or with neither for both.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"medmaker"
	"medmaker/internal/handcoded"
	"medmaker/internal/oem"
	"medmaker/internal/workload"
)

const specMS1 = `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).

decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
`

// queryTimeout, when positive, bounds every measured query (-timeout);
// a hung or degenerate configuration then fails fast instead of wedging
// the whole benchmark run.
var queryTimeout time.Duration

// query answers q on med under the global -timeout deadline.
func query(med *medmaker.Mediator, q string) ([]*medmaker.Object, error) {
	ctx := context.Background()
	if queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, queryTimeout)
		defer cancel()
	}
	return med.QueryStringContext(ctx, q)
}

func main() {
	figures := flag.Bool("figures", false, "emit only the structural figure artifacts")
	perf := flag.Bool("perf", false, "emit only the measured comparisons")
	reps := flag.Int("reps", 20, "timing repetitions per measurement (median reported)")
	snapshot := flag.String("snapshot", "", "write a JSON snapshot of the executor measurements (batching, caching) to this file and exit")
	matviewOut := flag.String("matview", "", "write a JSON snapshot of the materialized-view measurements (live vs cold vs warm) to this file and exit")
	parallelOut := flag.String("parallel", "", "write a JSON snapshot of the columnar/morsel executor measurements (BENCH_1's E-BATCH rows at parallelism 1 and GOMAXPROCS) to this file and exit")
	traceJSON := flag.String("trace-json", "", "run the paper's Q1 under EXPLAIN ANALYZE and write the structured trace (phases, per-node rows, source latency) as JSON to this file, then exit")
	serveOut := flag.String("serve", "", "write a JSON snapshot of the closed-loop multi-client serving measurements (latency quantiles and QPS vs client count over a zipfian workload, the BENCH_6.json artifact) to this file and exit")
	serveClients := flag.String("serve-clients", "1,4,16", "comma-separated client counts for -serve")
	serveDuration := flag.Duration("serve-duration", 2*time.Second, "measurement window per client count for -serve")
	servePersons := flag.Int("serve-persons", 100000, "population size for -serve")
	serveDistinct := flag.Int("serve-distinct", 2000, "distinct query templates for -serve (the plan-cache working set)")
	serveZipf := flag.Float64("serve-zipf", workload.DefaultSkew, "zipfian skew for -serve (> 1)")
	serveSeed := flag.Int64("serve-seed", 1, "base workload seed for -serve (client i uses seed+i)")
	serveWarm := flag.Bool("serve-warm", true, "prime the plan cache over the whole working set before measuring (-serve measures steady-state serving; disable to include cold-start compiles)")
	shardOut := flag.String("shard", "", "write a JSON snapshot of the sharded scatter/gather measurements (throughput and latency vs shard count through the multiplexed remote protocol, the BENCH_7.json artifact) to this file and exit")
	shardCounts := flag.String("shard-counts", "1,2,4", "comma-separated shard counts for -shard")
	shardClients := flag.Int("shard-clients", 8, "concurrent closed-loop clients for -shard")
	shardDuration := flag.Duration("shard-duration", 2*time.Second, "measurement window per shard count for -shard")
	shardPersons := flag.Int("shard-persons", 10000, "population size for -shard")
	shardDistinct := flag.Int("shard-distinct", 500, "distinct point-query templates for -shard")
	shardScanEvery := flag.Int("shard-scan-every", 64, "every k'th query per client is a scatter scan for -shard (0 disables scans)")
	shardSeed := flag.Int64("shard-seed", 1, "base workload seed for -shard (client i uses seed+i)")
	deltaOut := flag.String("delta", "", "write a JSON snapshot of the incremental view-maintenance measurements (change-feed delta application vs full rebuild per update rate, the BENCH_8.json artifact) to this file and exit")
	heteroOut := flag.String("hetero", "", "write a JSON snapshot of the heterogeneous source tier measurements (per-kind exchange latency, XML pushdown rows, streaming delta-maintenance rate, the BENCH_9.json artifact) to this file and exit")
	adaptiveOut := flag.String("adaptive", "", "write a JSON snapshot of the adaptive-optimizer measurements (heuristic vs feedback-driven join order, latency-aware replica routing, the BENCH_10.json artifact) to this file and exit; fails when the warmed optimizer is not >=2x faster or routing leaves >=10% of exchanges on the slow replica")
	flag.DurationVar(&queryTimeout, "timeout", 0, "per-query deadline for measured queries (e.g. 30s); 0 means none")
	flag.Parse()
	if *adaptiveOut != "" {
		runAdaptive(*reps, *adaptiveOut)
		return
	}
	if *heteroOut != "" {
		runHetero(*reps, *heteroOut)
		return
	}
	if *deltaOut != "" {
		runDelta(*reps, *deltaOut)
		return
	}
	if *shardOut != "" {
		runShard(shardConfig{
			Path: *shardOut, Shards: mustClients(*shardCounts), Clients: *shardClients,
			Duration: *shardDuration, Persons: *shardPersons, Distinct: *shardDistinct,
			ScanEvery: *shardScanEvery, Seed: *shardSeed,
		})
		return
	}
	if *serveOut != "" {
		runServe(serveConfig{
			Path: *serveOut, Clients: mustClients(*serveClients), Duration: *serveDuration,
			Persons: *servePersons, Distinct: *serveDistinct, Zipf: *serveZipf, Seed: *serveSeed,
			Warm: *serveWarm,
		})
		return
	}
	if *traceJSON != "" {
		runTraceJSON(*traceJSON)
		return
	}
	if *snapshot != "" {
		runSnapshot(*reps, *snapshot)
		return
	}
	if *matviewOut != "" {
		runMatview(*reps, *matviewOut)
		return
	}
	if *parallelOut != "" {
		runParallelSnapshot(*reps, *parallelOut)
		return
	}
	all := !*figures && !*perf
	if *figures || all {
		runFigures()
	}
	if *perf || all {
		runPerf(*reps)
	}
}

// paperSources builds the exact Section 2 population.
func paperSources() (*medmaker.RelationalWrapper, *medmaker.RecordWrapper) {
	db := medmaker.NewRelationalDB()
	emp := db.MustCreateTable(medmaker.RelationalSchema{
		Name: "employee",
		Columns: []medmaker.RelationalColumn{
			{Name: "first_name", Kind: oem.KindString},
			{Name: "last_name", Kind: oem.KindString},
			{Name: "title", Kind: oem.KindString},
			{Name: "reports_to", Kind: oem.KindString},
		},
	})
	emp.MustInsert("Joe", "Chung", "professor", "John Hennessy")
	stu := db.MustCreateTable(medmaker.RelationalSchema{
		Name: "student",
		Columns: []medmaker.RelationalColumn{
			{Name: "first_name", Kind: oem.KindString},
			{Name: "last_name", Kind: oem.KindString},
			{Name: "year", Kind: oem.KindInt},
		},
	})
	stu.MustInsert("Nick", "Naive", 3)
	store := medmaker.NewRecordStore()
	store.MustAdd(
		medmaker.Record{Kind: "person", Fields: []medmaker.RecordField{
			{Name: "name", Value: "Joe Chung"}, {Name: "dept", Value: "CS"},
			{Name: "relation", Value: "employee"}, {Name: "e_mail", Value: "chung@cs"},
		}},
		medmaker.Record{Kind: "person", Fields: []medmaker.RecordField{
			{Name: "name", Value: "Nick Naive"}, {Name: "dept", Value: "CS"},
			{Name: "relation", Value: "student"}, {Name: "year", Value: 3},
		}},
	)
	return medmaker.NewRelationalWrapper("cs", db), medmaker.NewRecordWrapper("whois", store)
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	return v
}

func runFigures() {
	cs, whois := paperSources()
	section := func(s string) { fmt.Printf("\n########## %s ##########\n", s) }

	section("F2.2: OEM object structure of the cs wrapper")
	fmt.Print(medmaker.FormatOEM(cs.Export()...))

	section("F2.3: OEM object structure of whois")
	fmt.Print(medmaker.FormatOEM(whois.Export()...))

	med := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: specMS1, Sources: []medmaker.Source{cs, whois},
	}))

	section("Q1/R2: view expansion of query Q1")
	q1 := `JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`
	fmt.Println("query:", q1)
	fmt.Print(must(med.Explain(q1)))

	section("F3.6: datamerge graph execution trace for Q1")
	traced := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: specMS1, Sources: []medmaker.Source{cs, whois}, Trace: os.Stdout,
	}))
	result := must(query(traced, q1))

	section("F2.4: the integrated cs_person object")
	fmt.Print(medmaker.FormatOEM(result...))

	section("Sec 3.3: tau1/tau2 push choices for the <year 3> query")
	q3 := `S :- S:<cs_person {<year 3>}>@med.`
	fmt.Println("query:", q3)
	_, logical, err := med.Plan(must(medmaker.ParseQuery(q3)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(logical.String())
	fmt.Println("answer:")
	fmt.Print(medmaker.FormatOEM(must(query(med, q3))...))
}

// timeIt returns the median wall time of f over reps runs.
func timeIt(reps int, f func()) time.Duration {
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}

type row struct {
	id, config, metric string
	value              time.Duration
}

func printRows(title string, rows []row) {
	fmt.Printf("\n== %s ==\n", title)
	w1, w2 := 0, 0
	for _, r := range rows {
		if len(r.config) > w1 {
			w1 = len(r.config)
		}
		if len(r.metric) > w2 {
			w2 = len(r.metric)
		}
	}
	for _, r := range rows {
		fmt.Printf("  %-8s %-*s  %-*s  %12v\n", r.id, w1, r.config, w2, r.metric, r.value)
	}
	if len(rows) >= 2 && rows[0].value > 0 {
		fmt.Printf("  ratio last/first: %.2fx\n", float64(rows[len(rows)-1].value)/float64(rows[0].value))
	}
}

func scaled(persons int, opts *medmaker.PlanOptions) (*medmaker.Mediator, *workload.Staff,
	*medmaker.RelationalWrapper, *medmaker.RecordWrapper) {
	staff := must(workload.GenStaff(workload.StaffConfig{
		Persons: persons, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
	}))
	cs := medmaker.NewRelationalWrapper("cs", staff.DB)
	whois := medmaker.NewRecordWrapper("whois", staff.Store)
	med := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: specMS1, Sources: []medmaker.Source{cs, whois}, Plan: opts,
	}))
	return med, staff, cs, whois
}

func runPerf(reps int) {
	fmt.Println("\n################ measured comparisons ################")
	fmt.Printf("(median of %d runs each; shapes, not absolute numbers, are the result)\n", reps)

	// E-PUSH: pushdown ablation.
	{
		var rows []row
		for _, push := range []bool{true, false} {
			opts := medmaker.PlanOptions{PushConditions: push, Parameterize: push, DupElim: true}
			med, staff, _, _ := scaled(1000, &opts)
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
			d := timeIt(reps, func() { must(query(med, q)) })
			rows = append(rows, row{"E-PUSH", fmt.Sprintf("pushdown=%v", push), "selective Q1, 1000 persons", d})
		}
		printRows("E-PUSH: push selections down vs mediator-side filtering", rows)
	}

	// E-JOIN: order strategies.
	{
		var rows []row
		for _, m := range []struct {
			name  string
			order medmaker.OrderMode
			warm  bool
		}{{"heuristic", medmaker.OrderHeuristic, false}, {"reversed", medmaker.OrderReversed, false}, {"stats-warm", medmaker.OrderStats, true}} {
			opts := medmaker.DefaultPlanOptions()
			opts.Order = m.order
			med, staff, _, _ := scaled(500, &opts)
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
			if m.warm {
				must(query(med, q))
			}
			d := timeIt(reps, func() { must(query(med, q)) })
			rows = append(rows, row{"E-JOIN", m.name, "selective Q1, 500 persons", d})
		}
		printRows("E-JOIN: join-order strategy (conditions-outermost heuristic of Sec 3.5)", rows)
	}

	// E-JOIN (2): parameterized queries vs independent fetch + join.
	{
		var rows []row
		for _, param := range []bool{true, false} {
			opts := medmaker.PlanOptions{PushConditions: true, Parameterize: param, DupElim: true}
			med, _, _, _ := scaled(300, &opts)
			q := `P :- P:<cs_person {<name N>}>@med.`
			d := timeIt(reps, func() { must(query(med, q)) })
			rows = append(rows, row{"E-JOIN", fmt.Sprintf("parameterized=%v", param), "full view, 300 persons", d})
		}
		printRows("E-JOIN: parameterized query node vs hash-join baseline", rows)
	}

	// E-CAP: capability-limited sources.
	{
		var rows []row
		for _, limited := range []bool{false, true} {
			staff := must(workload.GenStaff(workload.StaffConfig{
				Persons: 500, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
			}))
			var sources []medmaker.Source
			cs := medmaker.NewRelationalWrapper("cs", staff.DB)
			whois := medmaker.NewRecordWrapper("whois", staff.Store)
			if limited {
				sources = []medmaker.Source{
					&medmaker.LimitedSource{Inner: cs, Caps: medmaker.Capabilities{MultiPattern: true}},
					&medmaker.LimitedSource{Inner: whois, Caps: medmaker.Capabilities{MultiPattern: true}},
				}
			} else {
				sources = []medmaker.Source{cs, whois}
			}
			med := must(medmaker.New(medmaker.Config{Name: "med", Spec: specMS1, Sources: sources}))
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
			d := timeIt(reps, func() { must(query(med, q)) })
			cfg := "fully capable sources"
			if limited {
				cfg = "condition-blind sources"
			}
			rows = append(rows, row{"E-CAP", cfg, "selective Q1, 500 persons", d})
		}
		printRows("E-CAP: capabilities-based rewriting cost (Sec 3.5 / [PGH])", rows)
	}

	// E-WILD: wildcard vs top-level as depth grows.
	{
		var rows []row
		for _, depth := range []int{2, 4, 6} {
			lib := workload.GenDeepLibrary(3, depth)
			src := medmaker.NewOEMSource("lib")
			if err := src.Add(lib); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			med := must(medmaker.New(medmaker.Config{
				Name: "med", Spec: `<found T> :- <%title T>@lib.`, Sources: []medmaker.Source{src},
			}))
			d := timeIt(reps, func() { must(query(med, `X :- X:<found T>@med.`)) })
			rows = append(rows, row{"E-WILD", fmt.Sprintf("wildcard depth=%d (3^%d titles)", depth, depth), "search all titles", d})
		}
		printRows("E-WILD: wildcard search cost grows with the object graph (Sec 2)", rows)
	}

	// E-HAND: declarative vs hand-coded.
	{
		var rows []row
		med, staff, cs, whois := scaled(300, nil)
		name := staff.Names[0]
		q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(name))
		d := timeIt(reps, func() { must(query(med, q)) })
		rows = append(rows, row{"E-HAND", "declarative (MSI)", "selective Q1, 300 persons", d})
		hc := handcoded.New(cs, whois)
		d2 := timeIt(reps, func() { must(hc.CSPersonByName(name)) })
		rows = append(rows, row{"E-HAND", "hand-coded Go mediator", "selective Q1, 300 persons", d2})
		fmt.Println()
		printRows("E-HAND: declarative interpretation overhead vs hard-coded mediator (Sec 1.2)", rows)
		fmt.Printf("  interpretation overhead: %.2fx\n", float64(d)/float64(d2))
	}

	// E-DUP: duplicate elimination.
	{
		var rows []row
		for _, dup := range []bool{false, true} {
			opts := medmaker.PlanOptions{PushConditions: true, Parameterize: true, DupElim: dup}
			med, _, _, _ := scaled(300, &opts)
			q := `S :- S:<cs_person {<year 3>}>@med.`
			objs := must(query(med, q))
			d := timeIt(reps, func() { must(query(med, q)) })
			rows = append(rows, row{"E-DUP", fmt.Sprintf("dupelim=%v (%d result objects)", dup, len(objs)), "year query, 300 persons", d})
		}
		printRows("E-DUP: duplicate elimination (footnote 9: absent in the paper's impl)", rows)
	}

	// F1.1: local vs remote wrappers.
	{
		var rows []row
		med, staff, cs, whois := scaled(200, nil)
		q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
		d := timeIt(reps, func() { must(query(med, q)) })
		rows = append(rows, row{"F1.1", "in-process wrappers", "selective Q1, 200 persons", d})
		csAddr, csSrv := mustServe(cs)
		defer csSrv.Close()
		whoisAddr, whoisSrv := mustServe(whois)
		defer whoisSrv.Close()
		csR := must(medmaker.DialSource(csAddr, 5*time.Second))
		defer csR.Close()
		whoisR := must(medmaker.DialSource(whoisAddr, 5*time.Second))
		defer whoisR.Close()
		medR := must(medmaker.New(medmaker.Config{
			Name: "med", Spec: specMS1, Sources: []medmaker.Source{csR, whoisR},
		}))
		d2 := timeIt(reps, func() { must(query(medR, q)) })
		rows = append(rows, row{"F1.1", "TCP wrappers (loopback)", "selective Q1, 200 persons", d2})
		printRows("F1.1: the distributed TSIMMIS deployment", rows)
	}

	fmt.Println("\ndone; paste the tables above into EXPERIMENTS.md when refreshing results.")
	_ = strings.TrimSpace("")
}

// snapshotResult is one measurement row of the JSON snapshot: the median
// wall time of the query plus the engine's own round-trip counters for a
// single run, so the batching claim is recorded as counts, not only as
// timings.
type snapshotResult struct {
	ID        string `json:"id"`
	Config    string `json:"config"`
	Metric    string `json:"metric"`
	NsPerOp   int64  `json:"ns_per_op"`
	Exchanges int    `json:"exchanges,omitempty"`
	Queries   int    `json:"queries,omitempty"`
	CacheHits int    `json:"cache_hits,omitempty"`
}

type snapshotFile struct {
	Tool       string           `json:"tool"`
	Reps       int              `json:"reps"`
	GoMaxProcs int              `json:"gomaxprocs,omitempty"`
	Results    []snapshotResult `json:"results"`
}

// engineTraffic reads the process's engine exchange and query totals
// from the metrics registry; callers take deltas across what they measure.
func engineTraffic() (exchanges, queries int) {
	reg := medmaker.DefaultMetrics()
	return int(reg.Counter("engine.exchanges").Value()), int(reg.Counter("engine.queries").Value())
}

// measure runs the query once to read the per-run exchange/query deltas
// off the metrics registry and the cache hits off the mediator's
// statistics store, then times it.
func measure(reps int, med *medmaker.Mediator, q string) (ns int64, exchanges, queries, hits int) {
	st := med.QueryStats()
	cacheHits := func() (n int) {
		for _, src := range med.Sources() {
			h, _ := st.CacheCounts(src)
			n += h
		}
		return n
	}
	e0, q0 := engineTraffic()
	h0 := cacheHits()
	must(query(med, q))
	e1, q1 := engineTraffic()
	h1 := cacheHits()
	d := timeIt(reps, func() { must(query(med, q)) })
	return d.Nanoseconds(), e1 - e0, q1 - q0, h1 - h0
}

// runSnapshot measures the executor knobs — parameterized-query batching
// and the answer cache — and writes the results as JSON (the BENCH_1.json
// artifact checked into the repo).
func runSnapshot(reps int, path string) {
	snap := snapshotFile{Tool: "medbench -snapshot", Reps: reps}
	fullView := `P :- P:<cs_person {<name N>}>@med.`
	opts := medmaker.PlanOptions{PushConditions: true, Parameterize: true, DupElim: true}

	// E-BATCH: per-tuple vs batched parameterized queries, 300 persons.
	for _, batch := range []int{1, medmaker.DefaultQueryBatch} {
		staff := must(workload.GenStaff(workload.StaffConfig{
			Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
		}))
		med := must(medmaker.New(medmaker.Config{
			Name: "med", Spec: specMS1,
			Sources: []medmaker.Source{
				medmaker.NewRelationalWrapper("cs", staff.DB),
				medmaker.NewRecordWrapper("whois", staff.Store),
			},
			Plan: &opts, QueryBatch: batch,
		}))
		ns, ex, qs, _ := measure(reps, med, fullView)
		snap.Results = append(snap.Results, snapshotResult{
			ID: "E-BATCH", Config: fmt.Sprintf("batch=%d", batch),
			Metric: "full view, 300 persons", NsPerOp: ns, Exchanges: ex, Queries: qs,
		})
	}

	// E-CACHE: answer cache off vs on (warm), 300 persons.
	for _, cached := range []bool{false, true} {
		staff := must(workload.GenStaff(workload.StaffConfig{
			Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
		}))
		cfg := medmaker.Config{
			Name: "med", Spec: specMS1,
			Sources: []medmaker.Source{
				medmaker.NewRelationalWrapper("cs", staff.DB),
				medmaker.NewRecordWrapper("whois", staff.Store),
			},
			Plan: &opts,
		}
		label := "cache=off"
		if cached {
			cfg.Cache = &medmaker.CacheOptions{}
			label = "cache=on,warm"
		}
		med := must(medmaker.New(cfg))
		must(query(med, fullView)) // warm (a no-op for the uncached run)
		ns, ex, qs, hits := measure(reps, med, fullView)
		snap.Results = append(snap.Results, snapshotResult{
			ID: "E-CACHE", Config: label,
			Metric: "repeated full view, 300 persons", NsPerOp: ns, Exchanges: ex, Queries: qs, CacheHits: hits,
		})
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d measurements)\n", path, len(snap.Results))
}

// runParallelSnapshot measures the columnar executor under explicit
// parallelism degrees and writes the results as JSON (the BENCH_5.json
// artifact checked into the repo). The rows mirror BENCH_1's E-BATCH
// full-view rows — same workload, same knobs — with the morsel
// worker count pinned to 1 (the serial floor: it must not regress the
// pre-columnar numbers) and to GOMAXPROCS (the default degree, where the
// ≥1.5x target over BENCH_1 is measured).
func runParallelSnapshot(reps int, path string) {
	snap := snapshotFile{Tool: "medbench -parallel", Reps: reps, GoMaxProcs: runtime.GOMAXPROCS(0)}
	fullView := `P :- P:<cs_person {<name N>}>@med.`
	opts := medmaker.PlanOptions{PushConditions: true, Parameterize: true, DupElim: true}
	mk := func(batch, par int) *medmaker.Mediator {
		staff := must(workload.GenStaff(workload.StaffConfig{
			Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
		}))
		return must(medmaker.New(medmaker.Config{
			Name: "med", Spec: specMS1,
			Sources: []medmaker.Source{
				medmaker.NewRelationalWrapper("cs", staff.DB),
				medmaker.NewRecordWrapper("whois", staff.Store),
			},
			Plan: &opts, QueryBatch: batch, Parallelism: par,
		}))
	}
	degrees := []int{1, runtime.GOMAXPROCS(0)}
	if degrees[1] == 1 {
		degrees = degrees[:1] // single-CPU host: the two degrees coincide
	}
	for _, par := range degrees {
		for _, batch := range []int{1, medmaker.DefaultQueryBatch} {
			ns, ex, qs, _ := measure(reps, mk(batch, par), fullView)
			snap.Results = append(snap.Results, snapshotResult{
				ID: "E-BATCH", Config: fmt.Sprintf("batch=%d,par=%d", batch, par),
				Metric: "full view, 300 persons", NsPerOp: ns, Exchanges: ex, Queries: qs,
			})
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d measurements)\n", path, len(snap.Results))
}

// runMatview measures the materialized-view serving path and writes the
// results as JSON (the BENCH_4.json artifact checked into the repo).
// Three configurations answer the same repeated selective query over the
// same population: live (no materialization, the baseline), cold (the
// first matview query, which pays the extent build), and warm (every
// later matview query, served from the extent with zero exchanges —
// recorded in the Exchanges column, which must be 0).
func runMatview(reps int, path string) {
	snap := snapshotFile{Tool: "medbench -matview", Reps: reps}
	const persons = 300
	mkMed := func(materialize bool) (*medmaker.Mediator, string) {
		staff := must(workload.GenStaff(workload.StaffConfig{
			Persons: persons, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
		}))
		cfg := medmaker.Config{
			Name: "med", Spec: specMS1,
			Sources: []medmaker.Source{
				medmaker.NewRelationalWrapper("cs", staff.DB),
				medmaker.NewRecordWrapper("whois", staff.Store),
			},
		}
		if materialize {
			cfg.Materialize = &medmaker.MatViewOptions{Views: []medmaker.MatView{{Label: "cs_person"}}}
		}
		med := must(medmaker.New(cfg))
		q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
		return med, q
	}
	metric := fmt.Sprintf("repeated selective Q1, %d persons", persons)

	// Live baseline: every repetition re-expands against the sources.
	med, q := mkMed(false)
	ns, ex, qs, _ := measure(reps, med, q)
	snap.Results = append(snap.Results, snapshotResult{
		ID: "E-MATVIEW", Config: "live", Metric: metric, NsPerOp: ns, Exchanges: ex, Queries: qs,
	})

	// Cold: the first matview query pays the synchronous extent build.
	med, q = mkMed(true)
	e0, q0 := engineTraffic()
	start := time.Now()
	must(query(med, q))
	coldNs := time.Since(start).Nanoseconds()
	e1, q1 := engineTraffic()
	snap.Results = append(snap.Results, snapshotResult{
		ID: "E-MATVIEW", Config: "cold", Metric: "first matview query (includes build), " + metric,
		NsPerOp: coldNs, Exchanges: e1 - e0, Queries: q1 - q0,
	})

	// Warm: served from the extent; the exchange delta must be zero.
	ns, ex, qs, _ = measure(reps, med, q)
	snap.Results = append(snap.Results, snapshotResult{
		ID: "E-MATVIEW", Config: "warm", Metric: metric, NsPerOp: ns, Exchanges: ex, Queries: qs,
	})
	if ex != 0 {
		fmt.Fprintf(os.Stderr, "medbench: warm matview query performed %d exchanges, want 0\n", ex)
		os.Exit(1)
	}
	if mv := med.MatViewStats(); mv.Hits == 0 {
		fmt.Fprintf(os.Stderr, "medbench: no matview hits recorded: %+v\n", mv)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d measurements)\n", path, len(snap.Results))
}

// runTraceJSON answers the paper's Q1 on the Section 2 population with
// tracing on and writes the trace snapshot as JSON — the machine-readable
// counterpart of the Figure 3.6 execution trace.
func runTraceJSON(path string) {
	cs, whois := paperSources()
	med := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: specMS1, Sources: []medmaker.Source{cs, whois},
	}))
	q1 := `JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`
	rule := must(medmaker.ParseQuery(q1))
	ctx := context.Background()
	if queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, queryTimeout)
		defer cancel()
	}
	res, qt, err := med.QueryTraced(ctx, rule)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(qt.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d result objects)\n", path, len(res.Objects))
}

// serveConfig parameterizes the closed-loop serving benchmark.
type serveConfig struct {
	Path     string
	Clients  []int
	Duration time.Duration
	Persons  int
	Distinct int
	Zipf     float64
	Seed     int64
	Warm     bool
}

// serveLevel is one client-count row of the BENCH_6 artifact. Latency
// quantiles are exact (computed from every recorded latency, not from
// histogram buckets) because the closed loop keeps all samples in memory.
type serveLevel struct {
	Clients    int     `json:"clients"`
	Queries    int64   `json:"queries"`
	QPS        float64 `json:"qps"`
	P50Micros  int64   `json:"p50_us"`
	P95Micros  int64   `json:"p95_us"`
	P99Micros  int64   `json:"p99_us"`
	CacheHits  int64   `json:"plancache_hits"`
	CacheMiss  int64   `json:"plancache_misses"`
	HitRate    float64 `json:"plancache_hit_rate"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// serveFile is the BENCH_6.json shape: per-client-count throughput and
// latency over a shared mediator, plus the warm-plan trace evidence that
// a cache hit skips parse/expand/plan work.
type serveFile struct {
	Tool       string                 `json:"tool"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Persons    int                    `json:"persons"`
	Distinct   int                    `json:"distinct"`
	Zipf       float64                `json:"zipf"`
	Seed       int64                  `json:"seed"`
	DurationMS int64                  `json:"duration_ms_per_level"`
	Warm       bool                   `json:"warmed"`
	Levels     []serveLevel           `json:"levels"`
	WarmTrace  *medmaker.TraceSummary `json:"warm_trace"`
}

// mustClients parses the -serve-clients list ("1,4,16").
func mustClients(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "medbench: bad -serve-clients %q\n", s)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

// exactQuantile returns the nearest-rank quantile of a sorted slice.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runServe drives one shared mediator from N closed-loop clients — each
// issues its next query as soon as the previous answer lands — over a
// zipfian-skewed selective workload, and writes QPS plus exact
// p50/p95/p99 latency per client count (the BENCH_6.json artifact). The
// answer cache stays off so every request exercises the serving path the
// plan cache accelerates: parse, plan-cache probe, execute.
func runServe(cfg serveConfig) {
	staff := must(workload.GenStaff(workload.StaffConfig{
		Persons: cfg.Persons, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
	}))
	med := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: specMS1,
		Sources: []medmaker.Source{
			medmaker.NewRelationalWrapper("cs", staff.DB),
			medmaker.NewRecordWrapper("whois", staff.Store),
		},
		PlanCache: &medmaker.PlanCacheOptions{MaxEntries: 4096},
	}))
	snap := serveFile{
		Tool: "medbench -serve", GoMaxProcs: runtime.GOMAXPROCS(0),
		Persons: cfg.Persons, Distinct: cfg.Distinct, Zipf: cfg.Zipf, Seed: cfg.Seed,
		DurationMS: cfg.Duration.Milliseconds(), Warm: cfg.Warm,
	}

	distinct := cfg.Distinct
	if distinct <= 0 || distinct > len(staff.Names) {
		distinct = len(staff.Names)
	}
	if cfg.Warm {
		// Every client's stream draws from Names[:distinct] (seeds only
		// reshuffle which of them are hot), so one pass over that prefix
		// primes the plan cache against the whole workload and the levels
		// below measure steady-state serving, not cold-start compiles.
		warmGen := workload.NewQueryGen(workload.QueryGenConfig{
			Names: staff.Names, Distinct: distinct, Skew: cfg.Zipf, Seed: cfg.Seed,
		})
		warmStart := time.Now()
		for _, name := range staff.Names[:distinct] {
			must(query(med, warmGen.QueryFor(name)))
		}
		fmt.Printf("warmed %d plans in %v\n", distinct, time.Since(warmStart).Round(time.Millisecond))
	}

	for _, clients := range cfg.Clients {
		base := med.PlanCacheStats()
		latencies := make([][]time.Duration, clients)
		errs := make([]error, clients)
		deadline := time.Now().Add(cfg.Duration)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				gen := workload.NewQueryGen(workload.QueryGenConfig{
					Names: staff.Names, Distinct: cfg.Distinct, Skew: cfg.Zipf,
					Seed: cfg.Seed + int64(i),
				})
				for time.Now().Before(deadline) {
					q := gen.Next()
					t0 := time.Now()
					if _, err := query(med, q); err != nil {
						errs[i] = fmt.Errorf("client %d: %w", i, err)
						return
					}
					latencies[i] = append(latencies[i], time.Since(t0))
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
				os.Exit(1)
			}
		}
		var merged []time.Duration
		for _, ls := range latencies {
			merged = append(merged, ls...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		st := med.PlanCacheStats()
		hits, misses := int64(st.Hits-base.Hits), int64(st.Misses-base.Misses)
		level := serveLevel{
			Clients: clients, Queries: int64(len(merged)),
			QPS:       float64(len(merged)) / elapsed.Seconds(),
			P50Micros: exactQuantile(merged, 0.50).Microseconds(),
			P95Micros: exactQuantile(merged, 0.95).Microseconds(),
			P99Micros: exactQuantile(merged, 0.99).Microseconds(),
			CacheHits: hits, CacheMiss: misses, ElapsedSec: elapsed.Seconds(),
		}
		if hits+misses > 0 {
			level.HitRate = float64(hits) / float64(hits+misses)
		}
		snap.Levels = append(snap.Levels, level)
		fmt.Printf("clients=%-3d qps=%8.0f p50=%6dus p95=%6dus p99=%6dus plancache hit rate=%.3f (%d queries)\n",
			clients, level.QPS, level.P50Micros, level.P95Micros, level.P99Micros, level.HitRate, level.Queries)
	}

	// Warm-plan evidence: a repeated query's second trace must carry the
	// cached-plan annotation with no expand/plan wall time to speak of.
	gen := workload.NewQueryGen(workload.QueryGenConfig{
		Names: staff.Names, Distinct: cfg.Distinct, Skew: cfg.Zipf, Seed: cfg.Seed,
	})
	rule := must(medmaker.ParseQuery(gen.Next()))
	_, _, err := med.QueryTraced(context.Background(), rule)
	if err == nil {
		var qt *medmaker.QueryTrace
		_, qt, err = med.QueryTraced(context.Background(), rule)
		if err == nil {
			warm := qt.Snapshot()
			snap.WarmTrace = &warm
			if warm.Annotations["cached-plan"] != 1 {
				fmt.Fprintln(os.Stderr, "medbench: warm query missed the plan cache")
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.Path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d client levels)\n", cfg.Path, len(snap.Levels))
}

func mustServe(src medmaker.Source) (string, *medmaker.RemoteServer) {
	addr, srv, err := medmaker.Serve(src, "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	return addr, srv
}
