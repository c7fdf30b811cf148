// Command bench is the repository's benchmark: four named workloads over
// the paper's MS1 mediator, each measured end to end with tracing off and
// then, in a separate traced pass, layer by layer from outside the program.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef describes one gated end-to-end metric; BENCHMARK.json at the
// repository root carries the same table for the driver.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // relative worsening that is a regression
}

var endToEndMetrics = []metricDef{
	{"qps", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB/op", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.15},
}

// gated returns r's value of the named end-to-end metric.
func (r endToEnd) gated(name string) float64 {
	switch name {
	case "qps":
		return r.QPS
	case "p50_ms":
		return r.P50Ms
	case "alloc_kb_per_op":
		return r.AllocKBPerOp
	case "setup_s":
		return r.SetupS
	case "heap_mb":
		return r.HeapMB
	}
	panic("unknown end-to-end metric " + name)
}

// report is the benchmark's full output, one schema for every run.
type report struct {
	Benchmark  string           `json:"benchmark"`
	Schema     int              `json:"schema"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Quick      bool             `json:"quick,omitempty"`
	Env        environment      `json:"env"`
	Config     map[string]any   `json:"mediator_config"`
	Population map[string]any   `json:"population"`
	Load       string           `json:"load"`
	Workloads  []workloadReport `json:"workloads"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	OSArch     string `json:"os_arch"`
}

type workloadReport struct {
	Name     string       `json:"name"`
	Why      string       `json:"why"`
	EndToEnd *endToEnd    `json:"end_to_end,omitempty"`
	Layers   *layerResult `json:"per_layer,omitempty"`
}

func newReport(seed int64, seconds int, quick bool, sc scale) report {
	cfg := mediatorConfig()
	return report{
		Benchmark: "medmaker/bench", Schema: 1, Seed: seed, Seconds: seconds, Quick: quick,
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Config: map[string]any{
			"name": cfg.Name, "spec": "MS1", "plan_cache_max_entries": cfg.PlanCache.MaxEntries,
			"parallelism": "default (GOMAXPROCS)", "pipeline": cfg.Pipeline, "query_batch": "default (16)",
			"answer_cache": cfg.Cache != nil, "materialize": "cs_person on mutate_read only",
		},
		Population: map[string]any{
			"persons": sc.persons, "departments": 4, "employee_fraction": 0.5, "irregularity": 0.3,
			"cs_persons": (sc.persons + 3) / 4, "point_stream": fmt.Sprintf("zipf s=1.3 over %d names", sc.distinct),
		},
		Load: "closed loop: each client waits for its reply before sending the next op",
	}
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: point_local, scan_local, scan_remote, mutate_read, or all")
		seed         = flag.Int64("seed", 1, "seeds the population and every query stream")
		seconds      = flag.Int("seconds", 10, "length of each measured run and of each traced pass")
		traceFlag    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
		quick        = flag.Bool("quick", false, "smoke-test scale: 400 persons")
		jsonPath     = flag.String("json", "", "also write the full report to this file")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for trace files")
		compare      = flag.Bool("compare", false, "compare two report files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || *traceFlag < -1 || *traceFlag > 1 {
		flag.Usage()
		os.Exit(2)
	}
	defs := workloads
	if *workloadFlag != "all" {
		def, ok := workloadByName(*workloadFlag)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		defs = []workloadDef{def}
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	rep, err := runAll(defs, sc, *seed, *seconds, *traceFlag, *quick, *outDir)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	line := rep.resultLine(*workloadFlag == "all")
	fmt.Println(line)
	if _, failed := rep.attempted(); failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs the chosen workloads: the untraced run, the traced pass, or
// both, each on a topology of its own.
func runAll(defs []workloadDef, sc scale, seed int64, seconds, trace int, quick bool, outDir string) (report, error) {
	rep := newReport(seed, seconds, quick, sc)
	for _, def := range defs {
		w := workloadReport{Name: def.name, Why: def.why}
		if trace != 1 {
			r, err := measure(def, sc, seed, seconds, len(defs) > 1)
			if err != nil {
				return rep, err
			}
			w.EndToEnd = &r
		}
		if trace != 0 {
			l, err := tracedPass(def, sc, seed, seconds, outDir)
			if err != nil {
				return rep, err
			}
			w.Layers = &l
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	// Both scans answer the same query over the same population; only
	// the transport differs, so their answers must hash alike.
	hashes := map[string]string{}
	for _, w := range rep.Workloads {
		if w.EndToEnd != nil && w.EndToEnd.AnswerHash != "" {
			hashes[w.Name] = w.EndToEnd.AnswerHash
		}
	}
	if l, r := hashes["scan_local"], hashes["scan_remote"]; l != "" && r != "" && l != r {
		return rep, fmt.Errorf("scan_remote answers hash to %s, scan_local to %s", r, l)
	}
	return rep, nil
}

// attempted counts the ops of every workload and those answered wrong.
func (rep report) attempted() (attempted, failed int) {
	for _, w := range rep.Workloads {
		if w.EndToEnd != nil {
			attempted += w.EndToEnd.Ops
			failed += w.EndToEnd.Failed
		}
		if w.Layers != nil {
			attempted += w.Layers.Ops * modes
			failed += w.Layers.Failed
		}
	}
	return attempted, failed
}

// resultLine is the one-line JSON result the driver reads: end-to-end
// metrics from an untraced run, per-layer metrics from a traced pass.
// Metric names carry the workload as a prefix when several workloads ran.
func (rep report) resultLine(prefix bool) string {
	metrics := map[string]metric{}
	for _, w := range rep.Workloads {
		pre := ""
		if prefix {
			pre = w.Name + "."
		}
		if w.EndToEnd != nil {
			for _, d := range endToEndMetrics {
				metrics[pre+d.Name] = metric{w.EndToEnd.gated(d.Name), d.Unit}
			}
		}
		if w.Layers != nil {
			for name, m := range w.Layers.Metrics {
				metrics[pre+name] = m
			}
		}
	}
	attempted, failed := rep.attempted()
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

// print lists every metric by name with its unit.
func (rep report) print(w *os.File) {
	fmt.Fprintf(w, "medmaker bench  seed=%d seconds=%d  %s GOMAXPROCS=%d nproc=%d  %s\n",
		rep.Seed, rep.Seconds, rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Load)
	for _, wl := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wl.Name)
		if r := wl.EndToEnd; r != nil {
			fmt.Fprintf(w, "  clients %d, %d ops in %.2f s, %d latency samples\n", r.Clients, r.Ops, r.ElapsedS, r.Samples)
			for _, d := range endToEndMetrics {
				fmt.Fprintf(w, "  %-32s %14.4f %-7s (gated: %s is better, bound %.2f)\n", d.Name, r.gated(d.Name), d.Unit, d.Better, d.Bound)
			}
			fmt.Fprintf(w, "  %-32s %14.4f %-7s (p%g)\n", "p_hi_ms", r.PHiMs, "ms", r.PHiPct)
			fmt.Fprintf(w, "  %-32s %14d %-7s\n", "ops", r.Ops, "count")
			fmt.Fprintf(w, "  %-32s %14d %-7s\n", "failed", r.Failed, "count")
			fmt.Fprintf(w, "  %-32s %14.6f %-7s\n", "fail_share", r.FailShare, "ratio")
			if r.Scale2c > 0 {
				fmt.Fprintf(w, "  %-32s %14.4f %-7s (qps at 1 client: %.2f)\n", "scale_2c", r.Scale2c, "ratio", r.QPS1Client)
			}
			if r.FirstError != "" {
				fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
			}
		}
		if l := wl.Layers; l != nil {
			fmt.Fprintf(w, "  traced pass: %d ops in each of %d modes, %d failed, spans in %s\n", l.Ops, modes, l.Failed, l.TraceFile)
			names := make([]string, 0, len(l.Metrics))
			for name := range l.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "  %-32s %14.4f %-7s\n", name, l.Metrics[name].Value, l.Metrics[name].Unit)
			}
			kinds := make([]string, 0, len(l.RowsByKind))
			for kind := range l.RowsByKind {
				kinds = append(kinds, kind)
			}
			sort.Strings(kinds)
			for _, kind := range kinds {
				fmt.Fprintf(w, "  %-32s %14.4f %-7s\n", "engine.rows_per_op["+kind+"]", l.RowsByKind[kind], "count")
			}
			if l.FirstError != "" {
				fmt.Fprintf(w, "  first error: %s\n", l.FirstError)
			}
		}
	}
	fmt.Fprintln(w)
}
