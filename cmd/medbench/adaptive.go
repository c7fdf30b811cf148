package main

// The adaptive-optimizer benchmark (-adaptive, the BENCH_10.json
// artifact). Two claims about the feedback loop, measured end to end:
//
//  1. Bind-join reordering: a join where the paper's most-conditions-
//     outermost heuristic picks the wrong outer — a huge extent whose
//     three conditions select everything joined against a tiny
//     condition-free extent — must run at least 2x faster under
//     OrderAdaptive after a traced warmup taught the statistics store the
//     real cardinalities. The answers must stay byte-identical.
//  2. Replica routing: of three answer-equivalent replicas with one
//     injected-slow member, at least 90% of exchanges must route away
//     from the slow member once its latency is observed, again with
//     byte-identical answers against a single-member baseline.
//
// Both claims are asserted: the benchmark exits non-zero when either
// fails, so CI can run it as a smoke test.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"medmaker"
	"medmaker/internal/engine"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// adaptiveSpec joins the tiny condition-free extent against the huge
// conditioned one. The heuristic counts conditions: listing carries
// three constants, special none, so listing goes outermost — and every
// one of its rows satisfies all three conditions, making the "selective"
// side the whole extent.
const adaptiveSpec = `<deal {<sku S> <vendor V>}> :-
	<special {<sku S> <vendor V>}>@small AND
	<listing {<cat 'tools'> <stock 'yes'> <region 'west'> <sku S>}>@big.`

const adaptiveQuery = `X :- X:<deal {<sku S> <vendor V>}>@med.`

type adaptiveJoin struct {
	BigRows      int      `json:"big_rows"`
	SmallRows    int      `json:"small_rows"`
	ColdOrder    []string `json:"cold_order"`
	WarmOrder    []string `json:"warm_order"`
	HeuristicNs  int64    `json:"heuristic_ns_per_op"`
	AdaptiveNs   int64    `json:"adaptive_warm_ns_per_op"`
	Speedup      float64  `json:"speedup"`
	AnswersEqual bool     `json:"answers_equal"`
}

type adaptiveReplica struct {
	Members         []string         `json:"members"`
	SlowMember      string           `json:"slow_member"`
	Queries         int              `json:"queries"`
	Routed          map[string]int64 `json:"routed_exchanges"`
	AwayFromSlowPct float64          `json:"away_from_slow_pct"`
	AnswersEqual    bool             `json:"answers_equal"`
}

type adaptiveFile struct {
	Tool       string          `json:"tool"`
	Reps       int             `json:"reps"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Join       adaptiveJoin    `json:"join"`
	Replica    adaptiveReplica `json:"replica"`
}

// delaySource adds a fixed latency to every exchange with the wrapped
// source — a stand-in for a network hop. It deliberately does not
// implement wrapper.Counter: the optimizer cannot probe extent sizes up
// front and must learn them from execution feedback.
type delaySource struct {
	inner medmaker.Source
	delay time.Duration
}

func (d *delaySource) Name() string                        { return d.inner.Name() }
func (d *delaySource) Capabilities() medmaker.Capabilities { return d.inner.Capabilities() }

func (d *delaySource) Query(q *medmaker.Rule) ([]*medmaker.Object, error) {
	return d.QueryContext(context.Background(), q)
}

func (d *delaySource) QueryContext(ctx context.Context, q *medmaker.Rule) ([]*medmaker.Object, error) {
	time.Sleep(d.delay)
	return wrapper.QueryContext(ctx, d.inner, q)
}

func (d *delaySource) QueryBatch(qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	return d.QueryBatchContext(context.Background(), qs)
}

func (d *delaySource) QueryBatchContext(ctx context.Context, qs []*medmaker.Rule) ([][]*medmaker.Object, error) {
	time.Sleep(d.delay)
	return wrapper.QueryBatchContext(ctx, d.inner, qs)
}

// adaptiveListings builds n listing objects that all satisfy the three
// pushed conditions, each with a distinct sku.
func adaptiveListings(n int) []*medmaker.Object {
	gen := oem.NewIDGen("al")
	out := make([]*medmaker.Object, n)
	for i := range out {
		out[i] = oem.NewSet(gen.Next(), "listing",
			oem.New(gen.Next(), "cat", "tools"),
			oem.New(gen.Next(), "stock", "yes"),
			oem.New(gen.Next(), "region", "west"),
			oem.New(gen.Next(), "sku", fmt.Sprintf("S%05d", i)))
	}
	return out
}

// adaptiveSpecials builds n special objects whose skus hit the listing
// extent.
func adaptiveSpecials(n, bigRows int) []*medmaker.Object {
	gen := oem.NewIDGen("as")
	out := make([]*medmaker.Object, n)
	for i := range out {
		out[i] = oem.NewSet(gen.Next(), "special",
			oem.New(gen.Next(), "sku", fmt.Sprintf("S%05d", (i*bigRows/n)%bigRows)),
			oem.New(gen.Next(), "vendor", fmt.Sprintf("V%d", i)))
	}
	return out
}

// adaptiveCanon renders an answer set as sorted oid-free structural
// fingerprints, so two mediators' answers compare byte-identically.
func adaptiveCanon(objs []*medmaker.Object) string {
	keys := make([]string, len(objs))
	for i, o := range objs {
		c := o.Clone()
		c.Walk(func(obj *oem.Object, _ int) bool {
			obj.OID = oem.NilOID
			return true
		})
		adaptiveSortSubs(c)
		keys[i] = oem.Format(c)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func adaptiveSortSubs(o *oem.Object) {
	subs := o.Subobjects()
	for _, s := range subs {
		adaptiveSortSubs(s)
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Label != subs[j].Label {
			return subs[i].Label < subs[j].Label
		}
		return fmt.Sprint(subs[i].Value) < fmt.Sprint(subs[j].Value)
	})
}

// joinOrder extracts the sources of a plan's query-node chain, outermost
// first — the join order the optimizer chose.
func joinOrder(n engine.Node) []string {
	var out []string
	var walk func(engine.Node)
	walk = func(n engine.Node) {
		for _, k := range n.Kids() {
			walk(k)
		}
		if qn, ok := n.(*engine.QueryNode); ok {
			out = append(out, qn.Source)
		}
	}
	walk(n)
	return out
}

// adaptiveMed builds a mediator over delayed copies of the two extents
// with the given join-order mode. Parallelism is pinned so the measured
// exchange counts do not depend on the host's core count.
func adaptiveMed(order medmaker.OrderMode, bigObjs, smallObjs []*medmaker.Object) *medmaker.Mediator {
	big := medmaker.NewOEMSource("big")
	fatalIf(big.Add(heteroClone(bigObjs)...))
	small := medmaker.NewOEMSource("small")
	fatalIf(small.Add(heteroClone(smallObjs)...))
	opts := medmaker.DefaultPlanOptions()
	opts.Order = order
	return must(medmaker.New(medmaker.Config{
		Name: "med", Spec: adaptiveSpec,
		Sources: []medmaker.Source{
			&delaySource{inner: big, delay: time.Millisecond},
			&delaySource{inner: small, delay: time.Millisecond},
		},
		Plan:        &opts,
		Parallelism: 4,
	}))
}

func runAdaptive(reps int, path string) {
	const bigRows, smallRows, warmups = 3000, 8, 3
	ctx := context.Background()
	bigObjs := adaptiveListings(bigRows)
	smallObjs := adaptiveSpecials(smallRows, bigRows)
	rule := must(medmaker.ParseQuery(adaptiveQuery))
	snap := adaptiveFile{
		Tool: "medbench -adaptive", Reps: reps, GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	snap.Join.BigRows, snap.Join.SmallRows = bigRows, smallRows

	// (1) Bind-join reordering. The heuristic mediator is the baseline;
	// the adaptive mediator starts from the same (wrong) order — its cold
	// fallback — and must learn its way out through its own executions.
	heur := adaptiveMed(medmaker.OrderHeuristic, bigObjs, smallObjs)
	adpt := adaptiveMed(medmaker.OrderAdaptive, bigObjs, smallObjs)

	coldPlan, _, err := adpt.PlanContext(ctx, rule)
	fatalIf(err)
	snap.Join.ColdOrder = joinOrder(coldPlan.Root)

	heurAnswer := ""
	heurNs := timeIt(reps, func() {
		objs, err := heur.QueryContext(ctx, rule)
		fatalIf(err)
		heurAnswer = adaptiveCanon(objs)
	})
	snap.Join.HeuristicNs = heurNs.Nanoseconds()

	// Warmup: each run folds its actual answer sizes and join
	// selectivities back into the statistics store when it ends; the
	// runs are traced only so the snapshot can show them.
	adptAnswer := ""
	for i := 0; i < warmups; i++ {
		res, _, err := adpt.QueryTraced(ctx, rule)
		fatalIf(err)
		adptAnswer = adaptiveCanon(res.Objects)
	}
	warmPlan, _, err := adpt.PlanContext(ctx, rule)
	fatalIf(err)
	snap.Join.WarmOrder = joinOrder(warmPlan.Root)

	warmNs := timeIt(reps, func() {
		objs, err := adpt.QueryContext(ctx, rule)
		fatalIf(err)
		adptAnswer = adaptiveCanon(objs)
	})
	snap.Join.AdaptiveNs = warmNs.Nanoseconds()
	snap.Join.Speedup = float64(heurNs) / float64(warmNs)
	snap.Join.AnswersEqual = heurAnswer == adptAnswer && heurAnswer != ""

	fmt.Printf("adaptive join orders: cold %v -> warm %v\n", snap.Join.ColdOrder, snap.Join.WarmOrder)
	fmt.Printf("adaptive warmup win: %.1fx over heuristic (>=2x required)\n", snap.Join.Speedup)

	// (2) Latency-aware replica routing: three answer-equivalent replicas,
	// one 50x slower. After the exploration pass touches every member,
	// the score routes exchanges to the fast members.
	runAdaptiveReplica(&snap, bigObjs)

	data := must(json.MarshalIndent(snap, "", "  "))
	fatalIf(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("wrote %s\n", path)

	if snap.Join.Speedup < 2 {
		fmt.Fprintf(os.Stderr, "medbench: adaptive speedup %.2fx below the 2x target\n", snap.Join.Speedup)
		os.Exit(1)
	}
	if !snap.Join.AnswersEqual || !snap.Replica.AnswersEqual {
		fmt.Fprintln(os.Stderr, "medbench: adaptive answers diverged from the baseline")
		os.Exit(1)
	}
	if snap.Replica.AwayFromSlowPct < 90 {
		fmt.Fprintf(os.Stderr, "medbench: only %.1f%% of exchanges avoided the slow replica (>=90%% required)\n",
			snap.Replica.AwayFromSlowPct)
		os.Exit(1)
	}
}

const adaptiveReplicaSpec = `<rlisting {<sku S>}> :- <listing {<cat 'tools'> <sku S>}>@rep.`

func runAdaptiveReplica(snap *adaptiveFile, bigObjs []*medmaker.Object) {
	const queries = 60
	const slow = "r1"
	ctx := context.Background()
	members := make([]medmaker.Source, 3)
	names := make([]string, 3)
	for i := range members {
		name := fmt.Sprintf("r%d", i)
		src := medmaker.NewOEMSource(name)
		fatalIf(src.Add(heteroClone(bigObjs)...))
		delay := time.Millisecond
		if name == slow {
			delay = 50 * time.Millisecond
		}
		members[i] = &delaySource{inner: src, delay: delay}
		names[i] = name
	}
	rep := must(medmaker.NewReplicatedSource("rep", members...))
	med := must(medmaker.New(medmaker.Config{
		Name: "rmed", Spec: adaptiveReplicaSpec,
		Sources: []medmaker.Source{rep}, Parallelism: 4,
	}))

	single := medmaker.NewOEMSource("rep")
	fatalIf(single.Add(heteroClone(bigObjs)...))
	base := must(medmaker.New(medmaker.Config{
		Name: "rmed", Spec: adaptiveReplicaSpec,
		Sources: []medmaker.Source{single}, Parallelism: 4,
	}))

	before := medmaker.DefaultMetrics().Snapshot()
	replicated, baseline := "", ""
	for i := 0; i < queries; i++ {
		q := must(medmaker.ParseQuery(fmt.Sprintf(
			`X :- X:<rlisting {<sku 'S%05d'>}>@rmed.`, (i*97)%len(bigObjs))))
		objs, err := med.QueryContext(ctx, q)
		fatalIf(err)
		baseObjs, err := base.QueryContext(ctx, q)
		fatalIf(err)
		replicated += adaptiveCanon(objs) + "\n"
		baseline += adaptiveCanon(baseObjs) + "\n"
	}
	after := medmaker.DefaultMetrics().Snapshot()

	routed := make(map[string]int64, len(names))
	var total, slowCount int64
	for _, n := range names {
		c := after.Counter("replica.routed."+n) - before.Counter("replica.routed."+n)
		routed[n] = c
		total += c
		if n == slow {
			slowCount = c
		}
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(total-slowCount) / float64(total)
	}
	snap.Replica = adaptiveReplica{
		Members: names, SlowMember: slow, Queries: queries, Routed: routed,
		AwayFromSlowPct: pct,
		AnswersEqual:    replicated == baseline && replicated != "",
	}
	fmt.Printf("replica routing: %.1f%% of exchanges routed away from slow replica\n", pct)
}
