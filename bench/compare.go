package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadRuns reads a report file: one report, or an array of reports that
// form a set of runs of one commit.
func loadRuns(path string) ([]report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []report
	if err := json.Unmarshal(data, &set); err == nil {
		return set, nil
	}
	var one report
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []report{one}, nil
}

// stat is one metric of one workload over a set of runs.
type stat struct {
	median float64
	spread float64 // distance between the quartiles as a share of the median
}

// quartiles returns the first and third quartile of an ascending slice by
// the method of Python's statistics.quantiles(xs, n=4), which the driver
// uses: position i(n+1)/4 between neighbouring samples.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0] // one run has no spread
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // beyond [0, 4] at the clamp: extrapolates, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func newStat(xs []float64) stat {
	sort.Float64s(xs)
	s := stat{median: median(xs)}
	if q1, q3 := quartiles(xs); s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// summarizeRuns collects, per workload, every gated metric and fail_share
// over the runs, and lists the workloads in first-seen order.
func summarizeRuns(runs []report) (stats map[string]map[string]stat, order []string) {
	samples := map[string]map[string][]float64{}
	for _, rep := range runs {
		for _, w := range rep.Workloads {
			if w.EndToEnd == nil {
				continue
			}
			if samples[w.Name] == nil {
				samples[w.Name] = map[string][]float64{}
				order = append(order, w.Name)
			}
			for _, d := range endToEndMetrics {
				samples[w.Name][d.Name] = append(samples[w.Name][d.Name], w.EndToEnd.gated(d.Name))
			}
			samples[w.Name]["fail_share"] = append(samples[w.Name]["fail_share"], w.EndToEnd.FailShare)
		}
	}
	stats = map[string]map[string]stat{}
	for name, byMetric := range samples {
		stats[name] = map[string]stat{}
		for metric, xs := range byMetric {
			stats[name][metric] = newStat(xs)
		}
	}
	return stats, order
}

// verdict classifies b against base a for a metric: worse when its median
// moved the wrong way by more than the bound, better when it moved the
// right way by more than the bound. Otherwise the two are the same —
// unless either side's own runs spread wider than the bound, in which
// case nothing was resolved.
func verdict(d metricDef, a, b stat) string {
	if a.median == 0 {
		return "same"
	}
	change := b.median/a.median - 1
	if d.Better == "lower" {
		change = -change
	}
	switch {
	case change < -d.Bound:
		return "worse"
	case change > d.Bound:
		return "better"
	case max(a.spread, b.spread) > d.Bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per workload and gated metric of two report
// files and returns the exit code: 1 when any metric is worse or a
// workload's fail_share rose, 2 when the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	runsA, err := loadRuns(pathA)
	if err == nil {
		var runsB []report
		if runsB, err = loadRuns(pathB); err == nil {
			return compareRuns(w, runsA, runsB)
		}
	}
	fmt.Fprintln(w, "bench:", err)
	return 2
}

func compareRuns(w io.Writer, runsA, runsB []report) int {
	a, order := summarizeRuns(runsA)
	b, _ := summarizeRuns(runsB)
	fmt.Fprintf(w, "a: %d report(s)   b: %d report(s)   values are medians; ratio = b / a; spread = (q3 - q1) / median within a side\n", len(runsA), len(runsB))
	fmt.Fprintf(w, "%-12s %-16s %-7s %12s %12s %7s %6s %9s %9s  %s\n",
		"workload", "metric", "unit", "a", "b", "ratio", "bound", "spread a", "spread b", "verdict")
	code := 0
	for _, name := range order {
		if b[name] == nil {
			fmt.Fprintf(w, "%-12s missing from b\n", name)
			code = 1
			continue
		}
		for _, d := range endToEndMetrics {
			sa, sb := a[name][d.Name], b[name][d.Name]
			v := verdict(d, sa, sb)
			if v == "worse" {
				code = 1
			}
			ratio := 0.0
			if sa.median != 0 {
				ratio = sb.median / sa.median
			}
			fmt.Fprintf(w, "%-12s %-16s %-7s %12.4f %12.4f %7.4f %6.2f %9.4f %9.4f  %s\n",
				name, d.Name, d.Unit, sa.median, sb.median, ratio, d.Bound, sa.spread, sb.spread, v)
		}
		if fa, fb := a[name]["fail_share"].median, b[name]["fail_share"].median; fb > fa {
			fmt.Fprintf(w, "%-12s fail_share rose from %g to %g\n", name, fa, fb)
			code = 1
		}
	}
	return code
}
