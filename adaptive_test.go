package medmaker

// Tests for the adaptive optimizer's closed loop: feedback-driven
// cardinalities must never change answers (order invariance across the
// differential suite), must flip a bind-join order the condition-count
// heuristic gets wrong, and must trigger the plan cache's background
// revalidation when the statistics a cached plan was built on drift.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"medmaker/internal/engine"
	"medmaker/internal/oem"
)

// TestAdaptiveOrderInvariance runs every order mode — including the
// adaptive one, cold and after a traced warmup — through every executor
// mode over the differential suite, and requires byte-identical answers
// to a serial heuristic baseline. Reordering is an optimization, never a
// semantics change.
func TestAdaptiveOrderInvariance(t *testing.T) {
	specs, queries := columnarSuite()
	r := rand.New(rand.NewSource(11))
	people := randomPeople(r, 30)
	relations := randomRelations(r, 30)
	whoisSrc := NewOEMSource("whois")
	if err := whoisSrc.Add(people...); err != nil {
		t.Fatal(err)
	}
	csSrc := NewOEMSource("cs")
	if err := csSrc.Add(relations...); err != nil {
		t.Fatal(err)
	}
	xmlSrc, streamSrc := heteroSources(t, people)
	modes := []OrderMode{OrderHeuristic, OrderReversed, OrderStats, OrderAdaptive}
	for si, spec := range specs {
		mk := func(order OrderMode, ex execMode) *Mediator {
			opts := DefaultPlanOptions()
			opts.Order = order
			med, err := New(Config{
				Name: "med", Spec: spec,
				Sources:     []Source{csSrc, whoisSrc, xmlSrc, streamSrc},
				Plan:        &opts,
				Parallelism: ex.parallel,
				QueryBatch:  ex.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			return med
		}
		baseline := mk(OrderHeuristic, engineModes[0])
		for _, mode := range modes {
			for _, ex := range engineModes {
				med := mk(mode, ex)
				// One mediator answers the whole query list, so later
				// queries plan against statistics the earlier ones taught
				// it — the adaptive path is exercised warm, not just cold.
				for qi, qText := range queries {
					want, err := baseline.QueryString(qText)
					if err != nil {
						continue // query does not apply to this spec
					}
					wantC := canonicalize(want)
					q, err := ParseQuery(qText)
					if err != nil {
						t.Fatal(err)
					}
					// Cold pass, traced so actual cardinalities feed back.
					res, _, err := med.QueryTraced(context.Background(), q)
					if err != nil {
						t.Fatalf("spec=%d query=%d mode=%v exec=%s cold: %v",
							si, qi, mode, ex.name, err)
					}
					if got := canonicalize(res.Objects); !reflect.DeepEqual(got, wantC) {
						t.Fatalf("spec=%d query=%d mode=%v exec=%s cold: answers diverge\n%v\nvs\n%v",
							si, qi, mode, ex.name, got, wantC)
					}
					// Warm pass: replanned with learned statistics.
					warm, err := med.QueryString(qText)
					if err != nil {
						t.Fatalf("spec=%d query=%d mode=%v exec=%s warm: %v",
							si, qi, mode, ex.name, err)
					}
					if got := canonicalize(warm); !reflect.DeepEqual(got, wantC) {
						t.Fatalf("spec=%d query=%d mode=%v exec=%s warm: answers diverge\n%v\nvs\n%v",
							si, qi, mode, ex.name, got, wantC)
					}
				}
			}
		}
	}
}

// planJoinOrder lists a plan's query-node sources outermost first.
func planJoinOrder(t *testing.T, med *Mediator, qText string) []string {
	t.Helper()
	var out []string
	for _, qn := range planQueryNodes(t, med, qText) {
		out = append(out, qn.Source)
	}
	return out
}

// leafShape returns the statistics key of the unbound query a plan of
// qText sends to source.
func leafShape(t *testing.T, med *Mediator, qText, source string) string {
	t.Helper()
	for _, qn := range planQueryNodes(t, med, qText) {
		if qn.Source == source && qn.Child == nil {
			return qn.Shape
		}
	}
	t.Fatalf("no plan of %s fetches from %s unbound", qText, source)
	return ""
}

// planQueryNodes lists a plan's query nodes outermost first.
func planQueryNodes(t *testing.T, med *Mediator, qText string) []*engine.QueryNode {
	t.Helper()
	q, err := ParseQuery(qText)
	if err != nil {
		t.Fatal(err)
	}
	physical, _, err := med.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []*engine.QueryNode
	var walk func(engine.Node)
	walk = func(n engine.Node) {
		for _, k := range n.Kids() {
			walk(k)
		}
		if qn, ok := n.(*engine.QueryNode); ok {
			out = append(out, qn)
		}
	}
	walk(physical.Root)
	return out
}

// bindJoinSources builds the workload the condition-count heuristic gets
// wrong: a large extent whose pushed conditions select every row, joined
// against a tiny condition-free extent.
func bindJoinSources(t *testing.T, bigRows, smallRows int) (*OEMSource, *OEMSource) {
	t.Helper()
	big := NewOEMSource("big")
	for i := 0; i < bigRows; i++ {
		if err := big.Add(oem.NewSet("", "listing",
			oem.New("", "cat", "tools"),
			oem.New("", "stock", "yes"),
			oem.New("", "sku", fmt.Sprintf("k%03d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	small := NewOEMSource("small")
	for i := 0; i < smallRows; i++ {
		if err := small.Add(oem.NewSet("", "special",
			oem.New("", "sku", fmt.Sprintf("k%03d", i*7)),
			oem.New("", "vendor", fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	return big, small
}

// TestAdaptiveLearnsBindJoinOrder: cold, the adaptive planner has no
// observations and falls back to the paper's heuristic, which puts the
// conditioned big extent outermost. A traced warmup teaches the store
// that those conditions select everything and that the small side probes
// are cheap; the warm plan must flip to small-outer, with answers
// unchanged against a heuristic mediator.
func TestAdaptiveLearnsBindJoinOrder(t *testing.T) {
	const spec = `<deal {<sku S> <vendor V>}> :-
	    <special {<sku S> <vendor V>}>@small AND
	    <listing {<cat 'tools'> <stock 'yes'> <sku S>}>@big.`
	const query = `X :- X:<deal {<sku S> <vendor V>}>@med.`
	mk := func(order OrderMode) *Mediator {
		big, small := bindJoinSources(t, 300, 5)
		opts := DefaultPlanOptions()
		opts.Order = order
		med, err := New(Config{
			Name: "med", Spec: spec,
			Sources: []Source{big, small},
			Plan:    &opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return med
	}
	adaptive := mk(OrderAdaptive)
	cold := planJoinOrder(t, adaptive, query)
	if len(cold) != 2 || cold[0] != "big" {
		t.Fatalf("cold order %v; want the heuristic's big-outer fallback", cold)
	}
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := adaptive.QueryTraced(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	warm := planJoinOrder(t, adaptive, query)
	if len(warm) != 2 || warm[0] != "small" {
		t.Fatalf("warm order %v; want small-outer after feedback", warm)
	}
	want, err := mk(OrderHeuristic).QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := adaptive.QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalize(got), canonicalize(want)) {
		t.Fatal("adaptive reordering changed the answers")
	}
}

// TestAdaptiveGreedyOrderLongRule: a rule of six pattern conjuncts is
// longer than the adaptive planner costs exhaustively (five), so it is
// ordered greedily. Cold, the store knows nothing and the order is the
// heuristic's, with the two-condition conjunct outermost. The warmup
// fetches that conjunct unbound and probes the other five with K bound,
// so the store then knows sa's fetch size (60) and only per-probe sizes
// of the rest; their fetches are priced by counting their labels, and
// the smallest fetch, se's 3 objects, goes outermost. The answers equal
// the heuristic mediator's.
func TestAdaptiveGreedyOrderLongRule(t *testing.T) {
	const spec = `<row {<k K> <v V>}> :-
	    <ra {<k K> <cat 'tools'> <stock 'yes'>}>@sa AND
	    <rb {<k K>}>@sb AND <rc {<k K>}>@sc AND <rd {<k K>}>@sd AND
	    <re {<k K> <v V>}>@se AND <rf {<k K>}>@sf.`
	const query = `X :- X:<row {<k K> <v V>}>@med.`
	rows := map[string]int{"sa": 60, "sb": 50, "sc": 40, "sd": 30, "se": 3, "sf": 20}
	mk := func(order OrderMode) *Mediator {
		var sources []Source
		for _, name := range []string{"sa", "sb", "sc", "sd", "se", "sf"} {
			src := NewOEMSource(name)
			label := "r" + name[1:]
			for i := 0; i < rows[name]; i++ {
				kids := []*oem.Object{oem.New("", "k", fmt.Sprintf("k%03d", i*7%60))}
				switch name {
				case "sa":
					kids = append(kids, oem.New("", "cat", "tools"), oem.New("", "stock", "yes"))
				case "se":
					kids = append(kids, oem.New("", "v", fmt.Sprintf("v%d", i)))
				}
				if err := src.Add(oem.NewSet("", label, kids...)); err != nil {
					t.Fatal(err)
				}
			}
			sources = append(sources, src)
		}
		opts := DefaultPlanOptions()
		opts.Order = order
		med, err := New(Config{Name: "med", Spec: spec, Sources: sources, Plan: &opts})
		if err != nil {
			t.Fatal(err)
		}
		return med
	}
	adaptive := mk(OrderAdaptive)
	cold := planJoinOrder(t, adaptive, query)
	if len(cold) != 6 || cold[0] != "sa" {
		t.Fatalf("cold order %v; want the heuristic's sa-outer fallback", cold)
	}
	saFetch := leafShape(t, adaptive, query, "sa")
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := adaptive.QueryTraced(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	if est, ok := adaptive.QueryStats().Estimate("sa", saFetch); !ok || est != float64(rows["sa"]) {
		t.Fatalf("the warmup taught sa's fetch size %v (%v), want %d", est, ok, rows["sa"])
	}
	warm := planJoinOrder(t, adaptive, query)
	if len(warm) != 6 || warm[0] != "se" {
		t.Fatalf("warm order %v; want se, the smallest fetch, outermost", warm)
	}

	want, err := mk(OrderHeuristic).QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := adaptive.QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != rows["se"] {
		t.Fatalf("heuristic answered %d rows, want %d", len(want), rows["se"])
	}
	if !reflect.DeepEqual(canonicalize(got), canonicalize(want)) {
		t.Fatal("greedy reordering changed the answers")
	}
}

// TestProbeAnswersDoNotPriceFetches: the store learns a parameterized
// node's answers per probe under the probe's shape, never as the size of
// an unbound fetch. sa (10 objects, two conditions) bind-joins to sb
// (1000 objects, one per key): each probe of sb answers one object, and
// pricing sb's unbound fetch at that would put the 1000-object fetch
// outermost. Every run plans sa outermost.
func TestProbeAnswersDoNotPriceFetches(t *testing.T) {
	sa, sb := NewOEMSource("sa"), NewOEMSource("sb")
	for i := 0; i < 1000; i++ {
		k := oem.New("", "k", fmt.Sprintf("k%04d", i))
		if i < 10 {
			if err := sa.Add(oem.NewSet("", "ra", k, oem.New("", "cat", "tools"), oem.New("", "stock", "yes"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sb.Add(oem.NewSet("", "rb", k.Clone())); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultPlanOptions()
	opts.Order = OrderAdaptive
	med, err := New(Config{Name: "med", Sources: []Source{sa, sb}, Plan: &opts,
		Spec: `<row {<k K>}> :- <ra {<k K> <cat 'tools'> <stock 'yes'>}>@sa AND <rb {<k K>}>@sb.`})
	if err != nil {
		t.Fatal(err)
	}
	const query = `X :- X:<row {<k K>}>@med.`
	for run := 0; run < 4; run++ {
		if order := planJoinOrder(t, med, query); !reflect.DeepEqual(order, []string{"sa", "sb"}) {
			t.Fatalf("run %d plans %v; want [sa sb]", run, order)
		}
		if got, err := med.QueryString(query); err != nil || len(got) != 10 {
			t.Fatalf("run %d: %d answers, %v; want 10", run, len(got), err)
		}
	}
}

// TestPlanCacheDriftRevalidation: a plan compiled before any statistics
// existed is revalidated in the background once execution feedback shows
// its estimates drifted past DriftRatio, exactly once; the refreshed
// plan carries accurate estimates, so further hits do not replan.
func TestPlanCacheDriftRevalidation(t *testing.T) {
	src := NewOEMSource("people")
	for i := 0; i < 20; i++ {
		if err := src.Add(oem.NewSet("", "person",
			oem.New("", "name", fmt.Sprintf("P%02d", i)),
			oem.New("", "dept", "CS"))); err != nil {
			t.Fatal(err)
		}
	}
	med, err := New(Config{
		Name:      "med",
		Spec:      `<staff {<name N> <dept D>}> :- <person {<name N> <dept D>}>@people.`,
		Sources:   []Source{src},
		PlanCache: &PlanCacheOptions{MaxEntries: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`X :- X:<staff {<dept 'CS'>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	// Cold: compile + execute; execution folds the real cardinality (20
	// rows against a blind estimate) into the store.
	if _, _, err := med.QueryTraced(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if med.PlanCacheStats().Refreshed != 0 {
		t.Fatal("cold compile counted as a refresh")
	}
	// Hit: the cached plan's stats generation is stale and the learned
	// estimate diverges past DriftRatio — a background replan starts.
	_, qt, err := med.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	med.WaitReplans()
	if got := med.PlanCacheStats().Refreshed; got != 1 {
		t.Fatalf("refreshed %d plans, want 1", got)
	}
	if qt.Snapshot().Annotations["plan.drift"] != 1 {
		t.Fatal("drifted hit not annotated with plan.drift")
	}
	// The refreshed plan was compiled against the learned statistics:
	// another hit sees matching estimates and does not replan again.
	if _, _, err := med.QueryTraced(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	med.WaitReplans()
	if got := med.PlanCacheStats().Refreshed; got != 1 {
		t.Fatalf("stable plan refreshed again: %d", got)
	}
	if n, err := med.QueryString(`X :- X:<staff {<dept 'CS'>}>@med.`); err != nil || len(n) != 20 {
		t.Fatalf("answers after refresh: %d objects, %v", len(n), err)
	}
}
