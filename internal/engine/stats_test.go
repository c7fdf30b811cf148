package engine

import (
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
)

func TestStatsEWMA(t *testing.T) {
	s := NewStats()
	for i := 0; i < 5; i++ {
		s.Record("src", "person", 10)
	}
	if est, ok := s.Estimate("src", "person"); !ok || est != 10 {
		t.Fatalf("constant series: estimate %v, %v; want exactly 10", est, ok)
	}
	// A shifted workload converges: one observation of 20 moves the
	// average by cardAlpha of the difference.
	s.Record("src", "person", 20)
	if est, _ := s.Estimate("src", "person"); est != 10+cardAlpha*10 {
		t.Fatalf("after shift: estimate %v, want %v", est, 10+cardAlpha*10)
	}
	if n := s.Observations("src", "person"); n != 6 {
		t.Fatalf("observations %d, want 6", n)
	}
}

func TestStatsLRUEviction(t *testing.T) {
	before := metrics.Default().Counter("stats.evicted").Value()
	s := NewStats()
	s.SetMaxEntries(2)
	s.Record("src", "a", 1)
	s.Record("src", "b", 2)
	s.Record("src", "a", 1) // touch a: b becomes the eviction victim
	s.Record("src", "c", 3)
	if s.Entries() != 2 || s.Evicted() != 1 {
		t.Fatalf("entries=%d evicted=%d; want 2, 1", s.Entries(), s.Evicted())
	}
	if _, ok := s.Estimate("src", "b"); ok {
		t.Fatal("least recently used entry b survived eviction")
	}
	if _, ok := s.Estimate("src", "a"); !ok {
		t.Fatal("recently touched entry a was evicted")
	}
	if got := metrics.Default().Counter("stats.evicted").Value() - before; got != 1 {
		t.Fatalf("stats.evicted metric moved by %d, want 1", got)
	}
}

func TestStatsGeneration(t *testing.T) {
	s := NewStats()
	g0 := s.Generation()
	s.Record("src", "person", 4)
	if s.Generation() == g0 {
		t.Fatal("generation did not advance on a recorded value")
	}
	g1 := s.Generation()
	s.RecordLatency("src", time.Millisecond) // latency is not an estimate
	if s.Generation() != g1 {
		t.Fatal("generation advanced on a latency observation")
	}
}

// TestStatsSourceLatency: the per-source latency EWMA the adaptive
// orderer reads is exact over a constant series and absent when nothing
// was timed.
func TestStatsSourceLatency(t *testing.T) {
	s := NewStats()
	if _, ok := s.SourceLatency("fast"); ok {
		t.Fatal("unobserved source has a latency")
	}
	for i := 0; i < 4; i++ {
		s.RecordLatency("fast", time.Millisecond)
	}
	if lat, ok := s.SourceLatency("fast"); !ok || lat != time.Millisecond {
		t.Fatalf("fast latency %v, %v", lat, ok)
	}
}

// shapePattern extracts the pattern of a one-conjunct query.
func shapePattern(t *testing.T, query string) *msl.ObjectPattern {
	t.Helper()
	q, err := msl.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return q.Tail[0].(*msl.PatternConjunct).Pattern
}

func TestShapeOfConditionAware(t *testing.T) {
	withConst := ShapeOf(shapePattern(t, `X :- X:<person {<dept 'CS'> <name N>}>@w.`), nil)
	withoutConst := ShapeOf(shapePattern(t, `X :- X:<person {<dept D> <name N>}>@w.`), nil)
	if withConst == withoutConst {
		t.Fatalf("constant condition not visible in shape: %q", withConst)
	}
	// Member order must not split the key: the same conditions written
	// the other way around share the bucket.
	swapped := ShapeOf(shapePattern(t, `X :- X:<person {<name N> <dept 'CS'>}>@w.`), nil)
	if withConst != swapped {
		t.Fatalf("shape is order-sensitive: %q vs %q", withConst, swapped)
	}
	// A bound (parameterized) variable conditions the query like a
	// constant, but under its own marker: the per-parameter answer sizes
	// must not pool with full-extent fetches.
	bound := ShapeOf(shapePattern(t, `X :- X:<person {<dept D> <name N>}>@w.`), ShapeVars([]string{"D"}))
	if bound == withoutConst || bound == withConst {
		t.Fatalf("bound variable not distinguished: %q vs %q / %q", bound, withoutConst, withConst)
	}
}

func TestShapeOfLabelAndWildcard(t *testing.T) {
	labelled := ShapeOf(shapePattern(t, `X :- X:<person {<name N>}>@w.`), nil)
	varLabel := ShapeOf(shapePattern(t, `X :- X:<L {<name N>}>@w.`), nil)
	if labelled == varLabel {
		t.Fatal("label constant and label variable share a shape")
	}
	boundLabel := ShapeOf(shapePattern(t, `X :- X:<L {<name N>}>@w.`), ShapeVars([]string{"L"}))
	if boundLabel == varLabel {
		t.Fatal("bound label variable not distinguished from free one")
	}
}
