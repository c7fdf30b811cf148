package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one cold first build (page faults, heap growth) cannot set it.
const setupReps = 3

// qpsWindow is the length of one throughput window.
const qpsWindow = time.Second

// endToEnd is one workload's untraced result: the five gated metrics and
// the informational figures reported beside them.
type endToEnd struct {
	Workload string `json:"workload"`
	Clients  int    `json:"clients"`

	QPS          float64 `json:"qps"`
	P50Ms        float64 `json:"p50_ms"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	SetupS       float64 `json:"setup_s"`
	HeapMB       float64 `json:"heap_mb"`

	PHiMs      float64   `json:"p_hi_ms"`
	PHiPct     float64   `json:"p_hi_percentile"`
	Samples    int       `json:"latency_samples"`
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	FailShare  float64   `json:"fail_share"`
	ElapsedS   float64   `json:"elapsed_s"`
	SetupRunsS []float64 `json:"setup_runs_s"`
	Scale2c    float64   `json:"scale_2c,omitempty"`
	QPS1Client float64   `json:"qps_1_client,omitempty"`
	AnswerHash string    `json:"answer_hash,omitempty"`
	ExtentSize int       `json:"final_extent,omitempty"`
	FirstError string    `json:"first_error,omitempty"`
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	ops      []interval // successful ops, in order
	failed   int
	firstErr error
}

// drive runs the workload's closed loop: each client sends its next op
// only after the previous one returned and was checked. A time-based run
// starts no op after dur; a fixed schedule (fixedOps > 0) runs exactly
// that many ops per client however long they take.
func drive(t *topology, clients int, dur time.Duration, fixedOps int) []clientLog {
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	origin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := t.stream(c, clients)
			log := &logs[c]
			for i := 0; ; i++ {
				if fixedOps > 0 && i >= fixedOps || fixedOps == 0 && time.Since(origin) >= dur {
					return
				}
				o := next(i)
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				start := time.Since(origin)
				objs, err := t.run(ctx, o)
				end := time.Since(origin)
				cancel()
				if err == nil && end-start > opDeadline {
					err = fmt.Errorf("op took %v, over the %v deadline", end-start, opDeadline)
				}
				if err == nil {
					err = t.check(o, objs)
				}
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				log.ops = append(log.ops, interval{int64(start), int64(end)})
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// summarize turns client logs into throughput and latency figures.
func (r *endToEnd) summarize(logs []clientLog, dur time.Duration, fixed bool) {
	var lat []float64
	perClient := make([][]interval, len(logs))
	busyRate := 0.0
	var last int64
	for c, log := range logs {
		perClient[c] = log.ops
		r.Failed += log.failed
		if log.firstErr != nil && r.FirstError == "" {
			r.FirstError = log.firstErr.Error()
		}
		var busy int64
		for _, op := range log.ops {
			lat = append(lat, float64(op.len())/1e6)
			busy += op.len()
			last = max(last, op.end)
		}
		if busy > 0 {
			busyRate += float64(len(log.ops)) / (float64(busy) / 1e9)
		}
	}
	sort.Float64s(lat)
	r.Samples = len(lat)
	r.Ops = len(lat) + r.Failed
	r.FailShare = float64(r.Failed) / float64(max(r.Ops, 1))
	r.ElapsedS = float64(last) / 1e9
	r.P50Ms = percentile(lat, 0.5)
	r.PHiPct, r.PHiMs = pickHigh(lat)
	r.PHiPct *= 100
	if fixed {
		// A fixed schedule has no whole windows to take a median over:
		// ops divided by the time spent inside them, summed over clients.
		r.QPS = busyRate
		return
	}
	r.QPS = windowQPS(perClient, int64(qpsWindow), int(dur/qpsWindow))
}

// insertsFor is how many inserts a schedule of ops per client makes.
func insertsFor(ops, clients int) int {
	return (ops + mutateEvery - 1) / mutateEvery * clients
}

// measure is the untraced run: set the workload up setupReps times, keep
// the last, run the closed loop for seconds, check every answer.
func measure(def workloadDef, sc scale, seed int64, seconds int, scalePass bool) (endToEnd, error) {
	clients := def.clientCount()
	r := endToEnd{Workload: def.name, Clients: clients}
	fixedOps, inserts := 0, 0
	if def.mutate {
		fixedOps = seconds * sc.mutateRate
		inserts = insertsFor(fixedOps, clients)
	}
	var t *topology
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.shutdown()
		}
		start := time.Now()
		var err error
		if t, err = build(def, sc, seed, inserts, nil); err != nil {
			return r, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		r.SetupRunsS = append(r.SetupRunsS, time.Since(start).Seconds())
	}
	defer t.shutdown()
	r.SetupS = medianOf(r.SetupRunsS)

	// Twice: the first collection frees the earlier set-ups, whose
	// connections are released by finalizers only after it.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.HeapMB = float64(before.HeapAlloc) / (1 << 20)

	if err := t.buildOracle(); err != nil {
		return r, fmt.Errorf("%s: %w", def.name, err)
	}
	dur := time.Duration(seconds) * time.Second
	runtime.ReadMemStats(&before)
	logs := drive(t, clients, dur, fixedOps)
	runtime.ReadMemStats(&after)
	r.summarize(logs, dur, fixedOps > 0)
	r.AllocKBPerOp = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(max(r.Ops, 1))

	if def.scan {
		r.AnswerHash = fmt.Sprintf("%016x", t.viewHash)
	}
	if def.mutate {
		if err := t.checkExtent(&r, inserts); err != nil {
			return r, err
		}
	}
	if scalePass && clients > 1 && !def.mutate {
		one := endToEnd{}
		logs := drive(t, 1, dur, 0)
		one.summarize(logs, dur, false)
		r.Failed += one.Failed
		r.QPS1Client = one.QPS
		if one.QPS > 0 {
			r.Scale2c = r.QPS / one.QPS
		}
	}
	return r, nil
}

// checkExtent is mutate_read's end-of-run check: the view holds the
// original people plus every insert, and no insert fell back to a rebuild.
func (t *topology) checkExtent(r *endToEnd, inserts int) error {
	objs, err := t.med.QueryStringContext(context.Background(), scanQuery)
	if err != nil {
		return fmt.Errorf("%s: final extent: %w", t.def.name, err)
	}
	r.ExtentSize = len(objs)
	stats := t.med.MatViewStats()
	if want := t.viewSize + inserts; len(objs) != want || stats.DeltaFallbacks != 0 {
		r.Failed++
		if r.FirstError == "" {
			r.FirstError = fmt.Sprintf("final extent holds %d objects, want %d; %d delta fallbacks, want 0",
				len(objs), want, stats.DeltaFallbacks)
		}
	}
	return nil
}
