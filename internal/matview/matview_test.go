package matview

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// staffSpec is a small mediated view over two sources plus a derived
// view over the mediator's own cs_person view, for dependency tracking.
const staffSpec = `
<cs_person {<name N> <dept D>}> :- <person {<name N> <dept D>}>@cs.
<whois_person {<name N>}> :- <person {<name N>}>@whois.
<cs_name {<name N>}> :- <cs_person {<name N>}>@med.
`

func spec(t *testing.T) *msl.Program {
	t.Helper()
	p, err := msl.ParseProgram(staffSpec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fakeBuild returns a BuildFunc serving a fixed answer and counting
// invocations.
func fakeBuild(calls *atomic.Int64, objs []*oem.Object, errs *atomic.Int64) BuildFunc {
	return func(ctx context.Context, fetch *msl.Rule) ([]*oem.Object, bool, error) {
		calls.Add(1)
		if errs != nil && errs.Load() > 0 {
			errs.Add(-1)
			return nil, false, errors.New("source down")
		}
		return objs, false, nil
	}
}

func person(gen *oem.IDGen, name string) *oem.Object {
	return oem.NewSet(gen.Next(), "cs_person", oem.New(gen.Next(), "name", name))
}

func newTestManager(t *testing.T, opts Options, build BuildFunc) *Manager {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	m, err := NewManager("med", spec(t), opts, build)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustQuery(t *testing.T, text string) *msl.Rule {
	t.Helper()
	q, err := msl.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewManagerValidation(t *testing.T) {
	build := fakeBuild(new(atomic.Int64), nil, nil)
	if _, err := NewManager("med", spec(t), Options{}, build); err == nil {
		t.Fatal("no views must be rejected")
	}
	if _, err := NewManager("med", spec(t), Options{Views: []View{{Label: "cs_person"}, {Label: "cs_person"}}}, build); err == nil {
		t.Fatal("duplicate view must be rejected")
	}
	if _, err := NewManager("med", spec(t), Options{Views: []View{{Label: "cs_person", Pattern: "<whois_person W>"}}}, build); err == nil {
		t.Fatal("pattern with a different label must be rejected")
	}
	if _, err := NewManager("med", spec(t), Options{Views: []View{{Label: "cs_person", Pattern: "<cs_person"}}}, build); err == nil {
		t.Fatal("unparseable pattern must be rejected")
	}
}

func TestServeHitAfterColdBuild(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}},
		fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, nil))

	q := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)
	rw := m.Rewrite(q)
	sv, out, err := m.Serve(context.Background(), rw)
	if err != nil || out != Hit {
		t.Fatalf("cold serve = %v, %v", out, err)
	}
	if !sv.Built {
		t.Fatal("cold hit must report Built")
	}
	if calls.Load() != 1 {
		t.Fatalf("builds = %d, want 1", calls.Load())
	}
	if len(sv.Extents) != 1 || len(sv.Extents[ExtentSource("cs_person")]) != 1 {
		t.Fatalf("extents = %+v", sv.Extents)
	}
	if views := rw.Views; len(views) != 1 || views[0] != "cs_person" {
		t.Fatalf("views = %v", views)
	}
	// The rewritten query must target the extent source.
	pc := rw.Query.Tail[0].(*msl.PatternConjunct)
	if pc.Source != ExtentSource("cs_person") {
		t.Fatalf("rewritten source = %q", pc.Source)
	}

	// Warm: same extent, no new build, not Built.
	sv, out, err = m.Serve(context.Background(), m.Rewrite(q))
	if err != nil || out != Hit || sv.Built {
		t.Fatalf("warm serve = %v built=%v err=%v", out, sv.Built, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("builds after warm = %d, want 1", calls.Load())
	}
	if s := m.Stats(); s.Hits != 2 || s.Misses != 0 || s.Refreshes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestServeMisses(t *testing.T) {
	var calls atomic.Int64
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}},
		fakeBuild(&calls, nil, nil))

	cases := []struct {
		name, q string
	}{
		{"unmaterialized label", `N :- <whois_person {<name N>}>@med.`},
		{"wildcard not contained", `V :- <%l V>@med.`},
		{"no mediator conjunct", `N :- <person {<name N>}>@cs.`},
	}
	for _, c := range cases {
		if _, out, err := m.Serve(context.Background(), m.Rewrite(mustQuery(t, c.q))); err != nil || out != Miss {
			t.Fatalf("%s: serve = %v, %v, want Miss", c.name, out, err)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("misses must not build; builds = %d", calls.Load())
	}
	if s := m.Stats(); s.Misses != int64(len(cases)) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestServeNarrowedPattern(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	m := newTestManager(t, Options{Views: []View{{
		Label: "cs_person", Pattern: `<cs_person {<dept 'CS'>}>`,
	}}}, fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, nil))

	// Narrower than the view: contained, a hit.
	q := mustQuery(t, `N :- <cs_person {<name N> <dept 'CS'>}>@med.`)
	if _, out, err := m.Serve(context.Background(), m.Rewrite(q)); err != nil || out != Hit {
		t.Fatalf("contained serve = %v, %v", out, err)
	}
	// Broader than the view: not contained, a miss.
	q = mustQuery(t, `N :- <cs_person {<name N>}>@med.`)
	if _, out, err := m.Serve(context.Background(), m.Rewrite(q)); err != nil || out != Miss {
		t.Fatalf("uncontained serve = %v, %v", out, err)
	}
}

func TestTTLExpiryGoesStaleThenRecovers(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	m := newTestManager(t, Options{
		Views: []View{{Label: "cs_person", TTL: time.Minute}},
		Clock: clock,
	}, fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, nil))

	q := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Hit {
		t.Fatalf("cold serve = %v", out)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Stale {
		t.Fatalf("expired serve = %v, want Stale", out)
	}
	m.Wait() // background rebuild
	if calls.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (cold + background)", calls.Load())
	}
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Hit {
		t.Fatalf("post-refresh serve = %v, want Hit", out)
	}
	if s := m.Stats(); s.Stale != 1 || s.Refreshes != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInvalidateSelectors(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}, {Label: "cs_name"}, {Label: "whois_person"}}},
		fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, nil))
	if err := m.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}

	// By source: cs feeds cs_person and (transitively) cs_name, not
	// whois_person.
	if n := m.Invalidate("cs"); n != 2 {
		t.Fatalf("Invalidate(cs) = %d, want 2", n)
	}
	// Already-stale views don't count again.
	if n := m.Invalidate("cs"); n != 0 {
		t.Fatalf("repeated Invalidate(cs) = %d, want 0", n)
	}
	if err := m.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	// By view label.
	if n := m.Invalidate("whois_person"); n != 1 {
		t.Fatalf("Invalidate(whois_person) = %d, want 1", n)
	}
	if err := m.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	// Everything.
	if n := m.Invalidate(""); n != 3 {
		t.Fatalf("Invalidate(\"\") = %d, want 3", n)
	}
	// An unknown name touches nothing.
	if err := m.Refresh(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if n := m.Invalidate("nosuch"); n != 0 {
		t.Fatalf("Invalidate(nosuch) = %d, want 0", n)
	}
}

func TestInvalidatedServeIsStale(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}},
		fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, nil))
	q := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Hit {
		t.Fatal("cold serve not a hit")
	}
	if n := m.Invalidate("cs"); n != 1 {
		t.Fatalf("Invalidate = %d", n)
	}
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Stale {
		t.Fatal("invalidated serve not Stale")
	}
	m.Wait()
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Hit {
		t.Fatal("refreshed serve not a Hit")
	}
}

func TestBuildFailureFallsBackAndKeepsOldExtent(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls, errs atomic.Int64
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}},
		fakeBuild(&calls, []*oem.Object{person(gen, "joe")}, &errs))
	q := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)

	// Cold build fails: Miss with an error, no extent.
	errs.Store(1)
	if _, out, err := m.Serve(context.Background(), m.Rewrite(q)); err == nil || out != Miss {
		t.Fatalf("failed cold serve = %v, err = %v", out, err)
	}
	// Next attempt succeeds.
	if _, out, err := m.Serve(context.Background(), m.Rewrite(q)); err != nil || out != Hit {
		t.Fatalf("recovery serve = %v, %v", out, err)
	}
	// A failed background refresh keeps the (stale) old extent: queries
	// keep falling back live, then a later refresh heals it.
	m.Invalidate("")
	errs.Store(1)
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Stale {
		t.Fatal("invalidated serve not Stale")
	}
	m.Wait()
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Stale {
		t.Fatal("serve after failed refresh must stay Stale")
	}
	m.Wait()
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(q)); out != Hit {
		t.Fatal("serve after successful retry not a Hit")
	}
	if s := m.Stats(); s.RefreshErrors != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRebuildSingleflight(t *testing.T) {
	gen := oem.NewIDGen("t")
	var calls atomic.Int64
	release := make(chan struct{})
	build := func(ctx context.Context, fetch *msl.Rule) ([]*oem.Object, bool, error) {
		calls.Add(1)
		<-release
		return []*oem.Object{person(gen, "joe")}, false, nil
	}
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}}, build)
	q := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)

	const callers = 8
	var wg sync.WaitGroup
	outs := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i], _ = m.Serve(context.Background(), m.Rewrite(q))
		}(i)
	}
	// Let the herd pile onto the single flight, then release it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", calls.Load())
	}
	for i, out := range outs {
		if out != Hit {
			t.Fatalf("caller %d outcome = %v, want Hit", i, out)
		}
	}
}

func TestRefreshUnknownView(t *testing.T) {
	m := newTestManager(t, Options{Views: []View{{Label: "cs_person"}}},
		fakeBuild(new(atomic.Int64), nil, nil))
	if err := m.Refresh(context.Background(), "nope"); err == nil {
		t.Fatal("unknown view must error")
	}
}

func TestMetricsRecorded(t *testing.T) {
	gen := oem.NewIDGen("t")
	reg := metrics.NewRegistry()
	m := newTestManager(t, Options{
		Views:   []View{{Label: "cs_person"}},
		Metrics: reg,
	}, fakeBuild(new(atomic.Int64), []*oem.Object{person(gen, "joe")}, nil))

	hit := mustQuery(t, `N :- <cs_person {<name N>}>@med.`)
	miss := mustQuery(t, `N :- <whois_person {<name N>}>@med.`)
	if _, out, err := m.Serve(context.Background(), m.Rewrite(hit)); err != nil || out != Hit {
		t.Fatalf("serve = %v, %v", out, err)
	}
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(miss)); out != Miss {
		t.Fatal("miss query served")
	}
	m.Invalidate("")
	if _, out, _ := m.Serve(context.Background(), m.Rewrite(hit)); out != Stale {
		t.Fatal("invalidated query not stale")
	}
	m.Wait()

	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"matview.hits":      1,
		"matview.misses":    1,
		"matview.stale":     1,
		"matview.refreshes": 2, // cold + background
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := s.Histogram("matview.refresh_latency"); h.Count != 2 {
		t.Errorf("refresh_latency observations = %d, want 2", h.Count)
	}
}

func TestSourceDeps(t *testing.T) {
	p := spec(t)
	for _, c := range []struct {
		label string
		want  []string
	}{
		{"cs_person", []string{"cs"}},
		{"whois_person", []string{"whois"}},
		{"cs_name", []string{"cs"}}, // through the mediator's own cs_person view
	} {
		deps, all := sourceDeps(p, "med", c.label)
		if all {
			t.Errorf("%s: allSources unexpectedly true", c.label)
		}
		got := fmt.Sprintf("%v", sortedKeys(deps))
		if want := fmt.Sprintf("%v", c.want); got != want {
			t.Errorf("%s deps = %s, want %s", c.label, got, want)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
