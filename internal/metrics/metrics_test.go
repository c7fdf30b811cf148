package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not stable for a repeated name")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(200 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(80 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0

	s := r.Snapshot().Histogram("lat")
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	wantSum := int64(200*time.Microsecond + 3*time.Millisecond + 80*time.Millisecond)
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 0 {
		t.Fatalf("Min = %d, want 0 (clamped observation)", s.Min)
	}
	if s.Max != int64(80*time.Millisecond) {
		t.Fatalf("Max = %d, want %d", s.Max, int64(80*time.Millisecond))
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.N
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
	// p100 bound must cover the largest observation.
	if q := s.Quantile(1); q < 80*time.Millisecond {
		t.Fatalf("Quantile(1) = %s, want >= 80ms", q)
	}
	if m := s.Mean(); m <= 0 {
		t.Fatalf("Mean = %s, want > 0", m)
	}
}

// TestHistogramMerge: merging two histograms equals observing both
// series on one.
func TestHistogramMerge(t *testing.T) {
	a, b, both := &Histogram{}, &Histogram{}, &Histogram{}
	for _, d := range []time.Duration{300 * time.Microsecond, 7 * time.Millisecond} {
		a.Observe(d)
		both.Observe(d)
	}
	for _, d := range []time.Duration{50 * time.Microsecond, 2 * time.Second} {
		b.Observe(d)
		both.Observe(d)
	}
	a.Merge(b)
	a.Merge(&Histogram{}) // empty: no change
	if got, want := a.Mean(), a.Snapshot().Mean(); got != want || got == 0 {
		t.Fatalf("Mean = %s, snapshot mean %s", got, want)
	}
	if got, want := a.Snapshot(), both.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
	empty := &Histogram{}
	empty.Merge(b)
	if got, want := empty.Snapshot(), b.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge into empty %+v, want %+v", got, want)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Minute) // beyond the last bound
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].LE != -1 {
		t.Fatalf("want a single +Inf bucket, got %+v", s.Buckets)
	}
	if q := s.Quantile(0.5); q != time.Minute {
		t.Fatalf("Quantile in +Inf bucket = %s, want the max %s", q, time.Minute)
	}
}

func TestSnapshotJSONAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(3)
	r.Histogram("lat").Observe(time.Millisecond)
	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counter("requests") != 3 || back.Histogram("lat").Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if s.String() == "" {
		t.Fatal("String is empty")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Two registries that saw the same metrics in different orders must
	// serialize to byte-identical snapshots.
	a, b := NewRegistry(), NewRegistry()
	names := []string{"zeta", "alpha", "mid", "engine.exchanges", "matview.hits"}
	for _, n := range names {
		a.Counter(n).Add(7)
		a.Histogram(n + ".lat").Observe(time.Millisecond)
	}
	for i := len(names) - 1; i >= 0; i-- {
		b.Counter(names[i]).Add(7)
		b.Histogram(names[i] + ".lat").Observe(time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	ja, err := json.Marshal(sa)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	jb, err := json.Marshal(sb)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ:\n%s\n%s", ja, jb)
	}
	if sa.String() != sb.String() {
		t.Fatalf("String differs:\n%s\n%s", sa.String(), sb.String())
	}
	for i := 1; i < len(sa.Counters); i++ {
		if sa.Counters[i-1].Name >= sa.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", sa.Counters[i-1].Name, sa.Counters[i].Name)
		}
	}
	for i := 1; i < len(sa.Histograms); i++ {
		if sa.Histograms[i-1].Name >= sa.Histograms[i].Name {
			t.Fatalf("histograms not sorted: %q before %q", sa.Histograms[i-1].Name, sa.Histograms[i].Name)
		}
	}
	// Round trip through JSON preserves lookups.
	var back Snapshot
	if err := json.Unmarshal(ja, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counter("alpha") != 7 || back.Histogram("alpha.lat").Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Counter("absent") != 0 || back.Histogram("absent").Count != 0 {
		t.Fatal("absent metrics must read as zero")
	}
}

func TestNilReceivers(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("y").Observe(time.Second)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(time.Second)
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Histogram("lat").Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("n"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := s.Histogram("lat"); got.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got.Count)
	}
	if got := s.Histogram("lat"); got.Min != 0 {
		t.Fatalf("min = %d, want 0", got.Min)
	}
	if want := int64(7 * 999 * int(time.Microsecond)); s.Histogram("lat").Max != want {
		t.Fatalf("max = %d, want %d", s.Histogram("lat").Max, want)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default registry must be a stable non-nil singleton")
	}
}
