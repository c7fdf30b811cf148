package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// TestMorselErrorIsLowestFailedMorsel: when several morsels fail on a
// parallel pool, the run reports the lowest failed morsel's error — the
// one the serial loop stops at — whichever worker ran it.
func TestMorselErrorIsLowestFailedMorsel(t *testing.T) {
	ex := &Executor{Parallelism: 4}
	for i := 0; i < 200; i++ {
		rs := newRunState(ex, context.Background(), nil)
		err := rs.runMorselsWidth(nil, 8, 1, func(m, _, _ int) error {
			switch m {
			case 2:
				time.Sleep(50 * time.Microsecond) // let morsel 5 fail first
				return fmt.Errorf("morsel %d", m)
			case 5:
				return fmt.Errorf("morsel %d", m)
			}
			return nil
		})
		if err == nil || err.Error() != "morsel 2" {
			t.Fatalf("run %d: error %v, want morsel 2's", i, err)
		}
	}
}

// TestMorselErrorOnceCancelled: once the run is cancelled, the pool
// reports the run's own context error.
func TestMorselErrorOnceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs := newRunState(&Executor{Parallelism: 4}, ctx, nil)
	err := rs.runMorselsWidth(nil, 64, 1, func(m, _, _ int) error {
		if m == 1 {
			cancel()
			return errors.New("source gave up")
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// countingSource answers every query with n objects, or fails with err,
// and counts the exchanges it sees.
type countingSource struct {
	n         int
	err       error
	exchanges atomic.Int64
}

func (s *countingSource) Name() string                       { return "count" }
func (s *countingSource) Capabilities() wrapper.Capabilities { return wrapper.FullCapabilities() }
func (s *countingSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	s.exchanges.Add(1)
	if s.err != nil {
		return nil, s.err
	}
	objs := make([]*oem.Object, s.n)
	for i := range objs {
		objs[i] = oem.New("", "r", "x")
	}
	return objs, nil
}

// countingNode is a parameterized node without parameters over in: it
// sends its one query once per input row (per-tuple) or once for all of
// them (batched).
func countingNode(t *testing.T, in *Table) *QueryNode {
	conj := pc(t, `<r V>@count`)
	return &QueryNode{
		Child:   &tableNode{in},
		Source:  "count",
		Send:    msl.MustParseRule(`O :- O:<r V>@count.`),
		Extract: conj.Pattern,
	}
}

// TestEmptyInputSendsNothing: a parameterized node over zero input rows
// makes no exchange at any batch size, so under Skip a source that
// would have failed cannot mark the run incomplete.
func TestEmptyInputSendsNothing(t *testing.T) {
	empty := NewTable([]string{"V"}, nil)
	for _, batch := range []int{1, 16} {
		src := &countingSource{}
		reg := wrapper.NewRegistry()
		reg.Add(src)
		ex := &Executor{Sources: reg, QueryBatch: batch}
		out, err := ex.Run(countingNode(t, empty))
		if err != nil || out.Len() != 0 {
			t.Fatalf("batch %d: %d rows, %v", batch, out.Len(), err)
		}
		if n := src.exchanges.Load(); n != 0 {
			t.Errorf("batch %d: %d exchanges for no input rows, want 0", batch, n)
		}

		failing := &countingSource{err: errors.New("down")}
		reg = wrapper.NewRegistry()
		reg.Add(failing)
		ex = &Executor{Sources: reg, QueryBatch: batch, Policy: Policy{OnSourceError: OnErrorSkip}}
		res, err := ex.RunResult(context.Background(), countingNode(t, empty))
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete || len(res.SourceErrors) != 0 || failing.exchanges.Load() != 0 {
			t.Errorf("batch %d: incomplete=%v errors=%v exchanges=%d; want a complete answer and no exchange",
				batch, res.Incomplete, res.SourceErrors, failing.exchanges.Load())
		}
	}
}

// TestStatsFoldOncePerRun: a run teaches each key once, by the mean over
// its probes — three probes answering 3 objects each are one
// observation of 3 — and every run teaches, traced or not.
func TestStatsFoldOncePerRun(t *testing.T) {
	in := NewTable(nil, []match.Env{
		{"K": match.BindVal(oem.Int(1))}, {"K": match.BindVal(oem.Int(2))}, {"K": match.BindVal(oem.Int(3))},
	})
	for _, batch := range []int{1, 16} {
		src := &countingSource{n: 3}
		reg := wrapper.NewRegistry()
		reg.Add(src)
		ex := &Executor{Sources: reg, QueryBatch: batch, Stats: NewStats(), Parallelism: 4}
		node := countingNode(t, in)
		node.Shape = "r?"
		if _, err := ex.Run(node); err != nil {
			t.Fatal(err)
		}
		if n := ex.Stats.Observations("count", "r?"); n != 1 {
			t.Errorf("batch %d: r? observed %d times in one run, want 1", batch, n)
		}
		if est, _ := ex.Stats.Estimate("count", "r?"); est != 3 {
			t.Errorf("batch %d: r? estimate %v, want 3", batch, est)
		}
		// Three input rows, each joined with its three answers.
		if sel, ok := ex.Stats.Estimate("count", "r?|out"); !ok || sel != 3 {
			t.Errorf("batch %d: selectivity %v (%v), want 3", batch, sel, ok)
		}
	}
}

// TestRecordSlotsFitGraph: the run record holds one slot per operator of
// the graph and no more, so a small graph pays for a small record.
func TestRecordSlotsFitGraph(t *testing.T) {
	root := &DedupNode{Child: countingNode(t, NewTable([]string{"V"}, nil)), Vars: []string{"V"}}
	rs := newRunState(&Executor{}, context.Background(), root)
	if n, c := len(rs.rec.ops), cap(rs.rec.ops); n != 3 || c != 3 {
		t.Errorf("a 3-node graph got %d slots of capacity %d, want exactly 3", n, c)
	}
	for i, want := range []int{3, 3, 3} {
		if end := rs.rec.ops[i].end; end != want {
			t.Errorf("slot %d ends at %d, want %d", i, end, want)
		}
	}
}

// TestUnboundExtentFails: an extent scan resolves its extent per run, and
// a run that binds nothing under its name fails instead of answering
// empty; an empty extent that is bound answers empty.
func TestUnboundExtentFails(t *testing.T) {
	conj := pc(t, `<r V>@view`)
	scan := &QueryNode{
		Source:  "view",
		View:    "view",
		Send:    msl.MustParseRule(`O :- O:<r V>@view.`),
		Extract: conj.Pattern,
		Needed:  []string{"V"},
	}
	for _, ex := range []*Executor{{}, {Extents: Extents{"other": nil}}} {
		_, err := ex.RunResult(context.Background(), scan)
		if err == nil || !strings.Contains(err.Error(), `extent "view" is not bound`) {
			t.Errorf("extents %v: error %v, want the unbound extent named", ex.Extents, err)
		}
	}
	out, err := (&Executor{Extents: Extents{"view": nil}}).Run(scan)
	if err != nil || out.Len() != 0 {
		t.Errorf("empty bound extent: %v rows, %v; want 0 rows", out, err)
	}
}
