package engine_test

import (
	"context"
	"testing"

	"medmaker/internal/engine"
	"medmaker/internal/extfn"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/plan"
	"medmaker/internal/relational"
	"medmaker/internal/semistruct"
	"medmaker/internal/veao"
	"medmaker/internal/workload"
	"medmaker/internal/wrapper"
)

// specMS1 is the paper's running mediator: cs_person integrates whois
// persons in dept CS with their cs rows, joined through decomp.
const specMS1 = `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).

decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
`

// scanPipeline plans MS1's full-view scan over an in-memory population
// of persons people (a quarter of them in dept CS) and returns a serial
// executor over the two sources with the plan's root: leaf whois query →
// decomp → batched cs param-query → dedup → construct.
func scanPipeline(tb testing.TB, persons int) (*engine.Executor, engine.Node) {
	ex, root, _ := scanPipelineOver(tb, persons, false)
	return ex, root
}

// scanPipelineOver is scanPipeline with, when replay is set, each source
// behind a replaySource; rewind switches them from recording to
// replaying.
func scanPipelineOver(tb testing.TB, persons int, replay bool) (ex *engine.Executor, root engine.Node, rewind func()) {
	tb.Helper()
	staff, err := workload.GenStaff(workload.StaffConfig{
		Persons: persons, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	reg := wrapper.NewRegistry()
	reg.Add(relational.NewWrapper("cs", staff.DB), semistruct.NewWrapper("whois", staff.Store))
	spec := msl.MustParseProgram(specMS1)
	fns, err := extfn.NewTable(extfn.NewRegistry(), spec.Decls)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := veao.NewExpander(spec, "med", veao.Options{}).Expand(msl.MustParseRule(`Q :- Q:<cs_person {<name N>}>@med.`))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := plan.New(reg, fns, nil, plan.DefaultOptions()).Build(prog)
	if err != nil {
		tb.Fatal(err)
	}
	ex = &engine.Executor{Sources: reg, Extfn: fns, IDGen: oem.NewIDGen("b"), Parallelism: 1, QueryBatch: 16}
	if !replay {
		return ex, p.Root, nil
	}
	// Plan over the real sources, run over the replaying ones: sources
	// are looked up by name at execution time.
	srcs := []*replaySource{
		{inner: relational.NewWrapper("cs", staff.DB)},
		{inner: semistruct.NewWrapper("whois", staff.Store)},
	}
	ex.Sources = wrapper.NewRegistry()
	for _, s := range srcs {
		ex.Sources.Add(s)
	}
	return ex, p.Root, func() {
		for _, s := range srcs {
			s.replay, s.next = true, 0
		}
	}
}

// replaySource records every answer its source gives, then, once
// rewound, replays them in call order without allocating, so a replayed
// run's allocations are the engine's own. Call order repeats only under
// a serial executor.
type replaySource struct {
	inner   wrapper.Source
	answers [][]*oem.Object
	next    int
	replay  bool
}

func (r *replaySource) Name() string                       { return r.inner.Name() }
func (r *replaySource) Capabilities() wrapper.Capabilities { return r.inner.Capabilities() }
func (r *replaySource) Query(q *msl.Rule) ([]*oem.Object, error) {
	return r.QueryContext(context.Background(), q)
}

func (r *replaySource) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	got, err := r.QueryBatchContext(ctx, []*msl.Rule{q})
	if err != nil {
		return nil, err
	}
	return got[0], nil
}

func (r *replaySource) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	if r.replay {
		r.next += len(qs)
		return r.answers[r.next-len(qs) : r.next], nil
	}
	got, err := wrapper.QueryBatchContext(ctx, r.inner, qs)
	r.answers = append(r.answers, got...)
	return got, err
}

func runScan(tb testing.TB, ex *engine.Executor, root engine.Node) int {
	res, err := ex.RunResult(context.Background(), root)
	if err != nil {
		tb.Fatal(err)
	}
	return len(res.Objects)
}

// BenchmarkScanPipeline measures one full-view scan of MS1 over 2000
// persons through the whole operator chain, serially.
func BenchmarkScanPipeline(b *testing.B) {
	ex, root := scanPipeline(b, 2000)
	answers := runScan(b, ex, root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScan(b, ex, root)
	}
	b.ReportMetric(float64(answers), "answers/op")
}

// maxEngineAllocsPerAnswer bounds the allocations the engine itself
// spends per answer of the MS1 scan, source work excluded: the count
// measured once operators stopped building a match.Env per row (60.2
// with go1.24 on linux/amd64; 100.9 before) plus 25 % headroom. Matching, probe binding and
// construction remain; a per-row environment creeping back into an
// operator costs at least one map per row per operator.
const maxEngineAllocsPerAnswer = 75.3

// TestScanPipelineAllocs is the guard on maxEngineAllocsPerAnswer: the
// scan runs over sources replaying recorded answers, so only the
// engine's allocations are counted.
func TestScanPipelineAllocs(t *testing.T) {
	ex, root, rewind := scanPipelineOver(t, 2000, true)
	answers := runScan(t, ex, root)
	if answers != 500 {
		t.Fatalf("scan answered %d objects, want 500", answers)
	}
	rewind()
	if got := runScan(t, ex, root); got != answers {
		t.Fatalf("replayed scan answered %d objects, want %d", got, answers)
	}
	perAnswer := testing.AllocsPerRun(3, func() {
		rewind()
		runScan(t, ex, root)
	}) / float64(answers)
	t.Logf("%.2f engine allocations per answer", perAnswer)
	if perAnswer > maxEngineAllocsPerAnswer {
		t.Fatalf("the engine spends %.2f allocations per answer, over the guard of %.1f", perAnswer, maxEngineAllocsPerAnswer)
	}
}
