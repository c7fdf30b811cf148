package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"medmaker"
	"medmaker/internal/oem"
	"medmaker/internal/plan"
	"medmaker/internal/remote"
	"medmaker/internal/semistruct"
)

// The traced pass interleaves three ways of running the same op stream,
// one block of ops each in turn, so drift of the machine or (on
// mutate_read) growth of the extent falls on all three alike.
const (
	modeUntraced = iota // decorators idle: the baseline for trace overhead
	modeStaged          // ParseQuery, PlanContext, ExecuteContext, each under a span
	modeWarm            // QueryStringContext under one span, plan cache warm
	modes
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerResult is one workload's traced result.
type layerResult struct {
	Workload   string             `json:"workload"`
	Ops        int                `json:"ops"` // per mode
	Failed     int                `json:"failed"`
	Metrics    map[string]metric  `json:"metrics"`
	RowsByKind map[string]float64 `json:"engine_rows_per_op_by_kind"`
	TraceFile  string             `json:"trace_file"`
	FirstError string             `json:"first_error,omitempty"`
}

// layerUnits lists every per-layer metric the traced pass reports, on
// every workload, with its unit. A layer a workload does not use reads 0.
var layerUnits = map[string]string{
	"msl.parse_us":                  "us",
	"veao.expand_us":                "us",
	"plan.plan_us":                  "us",
	"plan.cache_hit_rate":           "ratio",
	"engine.self_ms_per_op":         "ms",
	"engine.rows_per_op":            "count",
	"source.whois.busy_ms_per_op":   "ms",
	"source.whois.exchanges_per_op": "count",
	"source.whois.answers_per_op":   "count",
	"source.cs.busy_ms_per_op":      "ms",
	"source.cs.exchanges_per_op":    "count",
	"source.cs.answers_per_op":      "count",
	"remote.self_ms_per_op":         "ms",
	"remote.codec_us_per_answer":    "us",
	"remote.wire_bytes_per_op":      "bytes",
	"matview.hit_rate":              "ratio",
	"matview.fallbacks":             "count",
	"matview.delta_us_per_insert":   "us",
	"semistruct.add_us":             "us",
	"mediator.warm_self_ms_per_op":  "ms",
	"trace_overhead_pct":            "%",
	"traced_op_ms":                  "ms",
	"layers_sum_pct":                "%",
}

// tracedPass builds the workload with span decorators installed and
// replays one client's op stream for about seconds, capped at the
// workload's fixed op count per mode.
func tracedPass(def workloadDef, sc scale, seed int64, seconds int, outDir string) (layerResult, error) {
	res := layerResult{Workload: def.name, Metrics: map[string]metric{}}
	// block is how many ops run in one mode before the next mode's turn;
	// captureOps how many ops per traced mode feed the codec probe.
	block, captureOps := 1, 1
	if !def.scan {
		block, captureOps = mutateEvery, 8*mutateEvery
	}
	opCap := def.tracedOps / sc.tracedDiv
	tr := newTracer()
	// Inserts happen in every mode, and the row-count sample adds none.
	t, err := build(def, sc, seed, insertsFor(opCap*modes, 1), tr)
	if err != nil {
		return res, fmt.Errorf("%s: traced set-up: %w", def.name, err)
	}
	defer t.shutdown()
	if err := t.buildOracle(); err != nil {
		return res, fmt.Errorf("%s: %w", def.name, err)
	}
	twin := semistruct.NewStore() // takes the same inserts with nobody subscribed
	semistruct.NewWrapper("twin", twin)

	p := &pass{t: t, tr: tr, twin: twin}
	plan0, mat0 := t.med.PlanCacheStats(), t.med.MatViewStats()
	next := t.stream(0, 1)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	i := 0
	for res.Ops < opCap && (res.Ops == 0 || time.Now().Before(deadline)) {
		for mode := 0; mode < modes; mode++ {
			tr.setCapture(mode != modeUntraced && res.Ops < captureOps)
			for k := 0; k < block; k++ {
				p.runOp(i, next(i), mode)
				i++
			}
		}
		res.Ops += block
	}
	tr.on.Store(false)
	plan1, mat1 := t.med.PlanCacheStats(), t.med.MatViewStats()
	res.Failed, res.FirstError = p.failed, p.firstErr

	m := p.layerMetrics(def)
	if lookups := plan1.Hits - plan0.Hits + plan1.Misses - plan0.Misses; lookups > 0 {
		m["plan.cache_hit_rate"] = float64(plan1.Hits-plan0.Hits) / float64(lookups)
	}
	if served := mat1.Hits - mat0.Hits + mat1.Misses - mat0.Misses + mat1.Stale - mat0.Stale; served > 0 {
		m["matview.hit_rate"] = float64(mat1.Hits-mat0.Hits) / float64(served)
	}
	m["matview.fallbacks"] = float64(mat1.DeltaFallbacks - mat0.DeltaFallbacks)
	codecUs, wireBytes, err := codecProbe(tr.captured)
	if err != nil {
		return res, fmt.Errorf("%s: codec probe: %w", def.name, err)
	}
	m["remote.codec_us_per_answer"] = codecUs
	m["remote.wire_bytes_per_op"] = wireBytes / float64(min(captureOps, res.Ops)*2) // captured in both traced modes
	res.RowsByKind, err = p.rowCounts(next, i, captureOps)
	if err != nil {
		return res, fmt.Errorf("%s: row counts: %w", def.name, err)
	}
	for _, rows := range res.RowsByKind {
		m["engine.rows_per_op"] += rows
	}
	for name, unit := range layerUnits {
		res.Metrics[name] = metric{Value: m[name], Unit: unit}
	}
	res.TraceFile = filepath.Join(outDir, "trace-"+def.name+".json")
	if err := tr.write(res.TraceFile); err != nil {
		return res, err
	}
	return res, nil
}

// pass is the state of one traced pass.
type pass struct {
	t    *topology
	tr   *tracer
	twin *semistruct.Store

	untracedNs, warmNs []float64 // op durations for the overhead figure
	twinAddNs          []float64
	failed             int
	firstErr           string
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = err.Error()
	}
}

// runOp executes op i in the given mode and checks its answer.
func (p *pass) runOp(i int, o op, mode int) {
	t, tr := p.t, p.tr
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	tr.on.Store(mode != modeUntraced)
	var objs []*oem.Object
	var err error
	start := time.Now()
	switch {
	case mode == modeUntraced:
		objs, err = t.run(ctx, o)
		if o.kind != opInsert {
			p.untracedNs = append(p.untracedNs, float64(time.Since(start)))
		}
	case o.kind == opInsert:
		rec := insertRecord(o.name)
		twinStart := time.Now()
		err = p.twin.Add(rec)
		p.twinAddNs = append(p.twinAddNs, float64(time.Since(twinStart)))
		root := tr.beginOp(i)
		tr.stage("semistruct.add", root, func() {
			if err == nil {
				err = t.staff.Store.Add(rec)
			}
		})
		tr.end(root)
	case mode == modeStaged && !t.def.mutate:
		objs, err = p.staged(ctx, i, o)
	default:
		if mode == modeStaged {
			// A materialized view answers from its extent, so the staged
			// path would measure a different op; only its compile steps
			// are probed, beside the op as the program serves it.
			err = p.compileProbes(ctx, i, o)
		}
		root := tr.beginOp(i)
		tr.stage("mediator.query", root, func() {
			if err == nil {
				objs, err = t.med.QueryStringContext(ctx, o.query)
			}
		})
		p.warmNs = append(p.warmNs, float64(tr.end(root)))
	}
	if err == nil && time.Since(start) > opDeadline {
		err = fmt.Errorf("op took over the %v deadline", opDeadline)
	}
	if err == nil {
		err = t.check(o, objs)
	}
	if err != nil {
		p.fail(err)
	}
}

// staged answers a query through the public staged path, one span per
// stage. The stand-alone ExpandContext is a probe outside the op: the op
// itself expands inside PlanContext, as the program does.
func (p *pass) staged(ctx context.Context, i int, o op) (objs []*oem.Object, err error) {
	tr, med := p.tr, p.t.med
	var rule *medmaker.Rule
	var physical *plan.Plan
	root := tr.beginOp(i)
	tr.stage("msl.parse", root, func() { rule, err = medmaker.ParseQuery(o.query) })
	if err == nil {
		tr.stage("plan.context", root, func() { physical, _, err = med.PlanContext(ctx, rule) })
	}
	if err == nil {
		tr.stage("engine.execute", root, func() { objs, err = med.ExecuteContext(ctx, physical) })
	}
	tr.end(root)
	if err == nil {
		tr.probe("probe.veao.expand", func() { _, err = med.ExpandContext(ctx, rule) })
	}
	return objs, err
}

// compileProbes times parse, expand and plan of o's query without
// executing it.
func (p *pass) compileProbes(ctx context.Context, i int, o op) error {
	tr, med := p.tr, p.t.med
	tr.setQuery(i)
	var rule *medmaker.Rule
	var err error
	tr.probe("probe.msl.parse", func() { rule, err = medmaker.ParseQuery(o.query) })
	if err == nil {
		tr.probe("probe.veao.expand", func() { _, err = med.ExpandContext(ctx, rule) })
	}
	if err == nil {
		tr.probe("probe.plan.context", func() { _, _, err = med.PlanContext(ctx, rule) })
	}
	return err
}

// opSpans are the spans of one op, by role.
type opSpans struct {
	root    span
	stages  []span // children of the root
	sources []span // innermost: around a raw source
	remotes []span // client side of a round trip
}

// layerMetrics derives the per-layer figures from the pass's spans.
func (p *pass) layerMetrics(def workloadDef) map[string]float64 {
	ops := map[int]*opSpans{}
	var order []int
	probes := map[string][]float64{}
	for _, s := range p.tr.spans {
		if strings.HasPrefix(s.Name, "probe.") {
			probes[s.Name] = append(probes[s.Name], float64(s.End-s.Start))
			continue
		}
		o := ops[s.Query]
		if o == nil {
			o = &opSpans{}
			ops[s.Query] = o
			order = append(order, s.Query)
		}
		switch {
		case s.Name == "op":
			o.root = s
		case strings.HasPrefix(s.Name, "source."):
			o.sources = append(o.sources, s)
		case strings.HasPrefix(s.Name, "remote."):
			o.remotes = append(o.remotes, s)
		default:
			o.stages = append(o.stages, s)
		}
	}

	// The budget is taken where the op runs as the program serves it with
	// every stage visible: the staged ops, or on mutate_read the warm ops.
	sum := map[string]float64{}
	var budgetOps, warmReads, inserts float64
	var opNs, layersNs float64
	for _, q := range order {
		o := ops[q]
		var below []interval
		for _, s := range append(append([]span(nil), o.sources...), o.remotes...) {
			below = append(below, s.interval())
		}
		stage := map[string]span{}
		for _, s := range o.stages {
			stage[s.Name] = s
		}
		if s, ok := stage["mediator.query"]; ok {
			warmReads++
			sum["mediator.warm_self"] += float64(selfTime(s.interval(), below))
		}
		if s, ok := stage["semistruct.add"]; ok {
			inserts++
			sum["semistruct.add.span"] += float64(s.End - s.Start)
		}
		_, isStaged := stage["engine.execute"]
		if isStaged == def.mutate {
			continue
		}
		budgetOps++
		opNs += float64(o.root.End - o.root.Start)
		var inner []interval
		byName := map[string][]interval{}
		for _, s := range o.sources {
			inner = append(inner, s.interval())
			byName[s.Name] = append(byName[s.Name], s.interval())
			sum[s.Name+".busy"] += float64(s.End - s.Start)
			sum[s.Name+".exchanges"]++
			sum[s.Name+".answers"] += float64(s.Answers)
		}
		remoteSelf := float64(unionLen(below) - unionLen(inner))
		sum["remote.self"] += remoteSelf
		layers := remoteSelf
		for _, ivs := range byName {
			layers += float64(unionLen(ivs))
		}
		for _, s := range o.stages {
			self := float64(selfTime(s.interval(), below))
			sum[s.Name+".self"] += self
			layers += self
		}
		layersNs += layers
	}

	m := map[string]float64{}
	perOp := func(ns, unit float64) float64 {
		if budgetOps == 0 {
			return 0
		}
		return ns / budgetOps / unit
	}
	const us, ms = 1e3, 1e6
	expand := mean(probes["probe.veao.expand"])
	m["veao.expand_us"] = expand / us
	if def.mutate {
		m["msl.parse_us"] = mean(probes["probe.msl.parse"]) / us
		m["plan.plan_us"] = max(mean(probes["probe.plan.context"])-expand, 0) / us
	} else {
		m["msl.parse_us"] = perOp(sum["msl.parse.self"], us)
		m["plan.plan_us"] = max(perOp(sum["plan.context.self"], us)-expand/us, 0)
	}
	m["engine.self_ms_per_op"] = perOp(sum["engine.execute.self"], ms)
	m["remote.self_ms_per_op"] = perOp(sum["remote.self"], ms)
	for _, src := range []string{"whois", "cs"} {
		m["source."+src+".busy_ms_per_op"] = perOp(sum["source."+src+".busy"], ms)
		m["source."+src+".exchanges_per_op"] = perOp(sum["source."+src+".exchanges"], 1)
		m["source."+src+".answers_per_op"] = perOp(sum["source."+src+".answers"], 1)
	}
	if warmReads > 0 {
		m["mediator.warm_self_ms_per_op"] = sum["mediator.warm_self"] / warmReads / ms
	}
	if inserts > 0 {
		add := mean(p.twinAddNs)
		m["semistruct.add_us"] = add / us
		m["matview.delta_us_per_insert"] = max(sum["semistruct.add.span"]/inserts-add, 0) / us
	}
	m["traced_op_ms"] = perOp(opNs, ms)
	if opNs > 0 {
		m["layers_sum_pct"] = 100 * layersNs / opNs
	}
	if base := medianOf(p.untracedNs); base > 0 {
		m["trace_overhead_pct"] = 100 * (medianOf(p.warmNs) - base) / base
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rowCounts reads per-operator row counts from the program's own public
// trace snapshot, for the next count ops of the stream. Counts, unlike
// times, repeat exactly, so a small sample is the whole story.
func (p *pass) rowCounts(next func(int) op, from, count int) (map[string]float64, error) {
	byKind := map[string]float64{}
	n := 0.0
	for i := from; i < from+count; i++ {
		o := next(i)
		if o.kind == opInsert || o.name != "" && o.name[0] == 'U' {
			continue // the schedule's insert and its read-back: nothing inserted here
		}
		rule, err := medmaker.ParseQuery(o.query)
		if err != nil {
			return nil, err
		}
		_, qt, err := p.t.med.QueryTraced(context.Background(), rule)
		if err != nil {
			return nil, err
		}
		for _, node := range qt.Snapshot().Nodes {
			byKind[node.Kind] += float64(node.RowsOut)
		}
		n++
	}
	for kind := range byKind {
		byKind[kind] /= n
	}
	return byKind, nil
}

// codecProbe measures what internal/remote's codec costs for the
// workload's own answers, outside the program: each captured exchange is
// gob-encoded as the remote.Response the server would send, decoded, and
// converted back to objects, over one encoder and decoder as on one
// connection. It returns microseconds per answer object and total bytes.
func codecProbe(captured []wireExchange) (usPerAnswer, bytesTotal float64, err error) {
	if len(captured) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	roundTrip := func(ex wireExchange) (int, error) {
		resp := remote.Response{Batches: make([][]remote.WireObject, len(ex.answers))}
		for i, objs := range ex.answers {
			resp.Batches[i] = make([]remote.WireObject, len(objs))
			for j, o := range objs {
				resp.Batches[i][j] = remote.ToWire(o)
			}
		}
		if err := enc.Encode(resp); err != nil {
			return 0, err
		}
		n := buf.Len()
		var back remote.Response
		if err := dec.Decode(&back); err != nil {
			return 0, err
		}
		for _, batch := range back.Batches {
			for _, w := range batch {
				if _, err := remote.FromWire(w); err != nil {
					return 0, err
				}
			}
		}
		return n, nil
	}
	// The first message on a connection also carries gob's type
	// descriptions; send one before timing.
	if _, err := roundTrip(captured[0]); err != nil {
		return 0, 0, err
	}
	answers := 0
	start := time.Now()
	for _, ex := range captured {
		n, err := roundTrip(ex)
		if err != nil {
			return 0, 0, err
		}
		bytesTotal += float64(n)
		for _, objs := range ex.answers {
			answers += len(objs)
		}
	}
	if answers > 0 {
		usPerAnswer = float64(time.Since(start)) / 1e3 / float64(answers)
	}
	return usPerAnswer, bytesTotal, nil
}
