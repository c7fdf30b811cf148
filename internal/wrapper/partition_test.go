package wrapper_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// countingSource wraps a source counting Query calls, so tests can tell
// routing (one member touched) from scattering (all members touched).
type countingSource struct {
	wrapper.Source
	calls   int
	batches int
}

func (c *countingSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	c.calls++
	return c.Source.Query(q)
}

func (c *countingSource) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	c.batches++
	return wrapper.QueryBatchContext(ctx, c.Source, qs)
}

// failingSource always errors.
type failingSource struct{ name string }

func (f *failingSource) Name() string                       { return f.name }
func (f *failingSource) Capabilities() wrapper.Capabilities { return wrapper.FullCapabilities() }
func (f *failingSource) Query(*msl.Rule) ([]*oem.Object, error) {
	return nil, errors.New("shard down")
}

// notifyingSource records invalidation registrations.
type notifyingSource struct {
	wrapper.Source
	fns []func()
}

func (n *notifyingSource) OnInvalidate(fn func()) { n.fns = append(n.fns, fn) }

// partitionedPeople builds a partitioned "whois" over n members, placing
// each person in the member wrapper.ShardIndex selects for its name.
func partitionedPeople(t *testing.T, n, persons int) (*wrapper.Partitioned, []*countingSource) {
	t.Helper()
	members := make([]wrapper.Source, n)
	counters := make([]*countingSource, n)
	stores := make([]*oemstore.Source, n)
	for i := range stores {
		stores[i] = oemstore.New(fmt.Sprintf("whois%d", i))
	}
	gen := oem.NewIDGen("pp")
	for i := 0; i < persons; i++ {
		name := fmt.Sprintf("P%03d", i)
		obj := oem.NewSet(gen.Next(), "person",
			oem.New(gen.Next(), "name", name),
			oem.New(gen.Next(), "dept", "CS"),
		)
		if err := stores[wrapper.ShardIndex(name, n)].Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	for i := range members {
		counters[i] = &countingSource{Source: stores[i]}
		members[i] = counters[i]
	}
	p, err := wrapper.NewPartitioned("whois", "name", members...)
	if err != nil {
		t.Fatal(err)
	}
	return p, counters
}

func TestShardIndexStable(t *testing.T) {
	if wrapper.ShardIndex("anything", 1) != 0 {
		t.Fatal("single shard must map to 0")
	}
	hit := make([]int, 4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("K%03d", i)
		s := wrapper.ShardIndex(key, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardIndex(%q, 4) = %d out of range", key, s)
		}
		if s != wrapper.ShardIndex(key, 4) {
			t.Fatal("ShardIndex not deterministic")
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d got none of 200 keys: %v", s, hit)
		}
	}
}

func TestShardKeyExtraction(t *testing.T) {
	pat := func(text string) *msl.ObjectPattern {
		q := msl.MustParseRule(text)
		return q.Tail[0].(*msl.PatternConjunct).Pattern
	}
	if key, ok := wrapper.ShardKey(pat(`<out N> :- <person {<name 'Ann'> <dept D>}>@w.`), "name"); !ok || key != "Ann" {
		t.Fatalf("bound key = %q, %v", key, ok)
	}
	if _, ok := wrapper.ShardKey(pat(`<out N> :- <person {<name N>}>@w.`), "name"); ok {
		t.Fatal("variable key must not route")
	}
	if _, ok := wrapper.ShardKey(pat(`<out N> :- <person {<dept 'CS'>}>@w.`), "name"); ok {
		t.Fatal("absent key must not route")
	}
	if _, ok := wrapper.ShardKey(pat(`<out N> :- <person {<name 3>}>@w.`), "name"); ok {
		t.Fatal("non-string key constant must not route")
	}
}

func TestNewPartitionedRejectsBadConfig(t *testing.T) {
	m := oemstore.New("m")
	if _, err := wrapper.NewPartitioned("", "name", m); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := wrapper.NewPartitioned("p", "", m); err == nil {
		t.Fatal("empty key label accepted")
	}
	if _, err := wrapper.NewPartitioned("p", "name"); err == nil {
		t.Fatal("zero members accepted")
	}
	if _, err := wrapper.NewPartitioned("p", "name", m, oemstore.New("m")); err == nil {
		t.Fatal("duplicate member names accepted")
	}
	if _, err := wrapper.NewPartitioned("m", "name", m); err == nil {
		t.Fatal("member named like the composite accepted")
	}
}

func TestPartitionedCapabilities(t *testing.T) {
	full, err := wrapper.NewPartitioned("p", "name", oemstore.New("a"), oemstore.New("b"))
	if err != nil {
		t.Fatal(err)
	}
	caps := full.Capabilities()
	if !caps.ValueConditions || !caps.RestConstraints || !caps.Wildcards {
		t.Fatalf("full members lost capabilities: %+v", caps)
	}
	if caps.MultiPattern {
		t.Fatal("partitioned source must refuse multi-pattern queries (cross-shard joins)")
	}
	limited := &wrapper.Limited{Inner: oemstore.New("c"), Caps: wrapper.Capabilities{MultiPattern: true}}
	mixed, err := wrapper.NewPartitioned("p", "name", oemstore.New("a"), limited)
	if err != nil {
		t.Fatal(err)
	}
	if c := mixed.Capabilities(); c.ValueConditions || c.Wildcards {
		t.Fatalf("capabilities not intersected: %+v", c)
	}
}

func TestPartitionedRoutesBoundKey(t *testing.T) {
	p, counters := partitionedPeople(t, 4, 40)
	name := "P007"
	q := msl.MustParseRule(fmt.Sprintf(`<out X> :- X:<person {<name '%s'>}>@whois.`, name))
	shard, ok := p.ShardFor(q)
	if !ok || shard != wrapper.ShardIndex(name, 4) {
		t.Fatalf("ShardFor = %d, %v; want %d", shard, ok, wrapper.ShardIndex(name, 4))
	}
	objs, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("routed query returned %d objects", len(objs))
	}
	for i, c := range counters {
		want := 0
		if i == shard {
			want = 1
		}
		if c.calls != want {
			t.Fatalf("member %d queried %d times, want %d", i, c.calls, want)
		}
	}
}

func TestPartitionedScatterGathersUnion(t *testing.T) {
	p, counters := partitionedPeople(t, 4, 40)
	q := msl.MustParseRule(`<out X> :- X:<person {<dept 'CS'>}>@whois.`)
	if _, ok := p.ShardFor(q); ok {
		t.Fatal("unbound key must scatter")
	}
	objs, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 40 {
		t.Fatalf("scatter returned %d objects, want the whole extent (40)", len(objs))
	}
	for i, c := range counters {
		if c.calls != 1 {
			t.Fatalf("member %d queried %d times during scatter", i, c.calls)
		}
	}
}

func TestPartitionedShardErrorAttribution(t *testing.T) {
	good := oemstore.New("whois0")
	bad := &failingSource{name: "whois1"}
	p, err := wrapper.NewPartitioned("whois", "name", good, bad)
	if err != nil {
		t.Fatal(err)
	}
	q := msl.MustParseRule(`<out X> :- X:<person {<dept 'CS'>}>@whois.`)
	_, err = p.Query(q)
	var se *wrapper.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShardError, got %v", err)
	}
	if se.Source != "whois" || se.Member != "whois1" || se.Shard != 1 {
		t.Fatalf("misattributed failure: %+v", se)
	}
}

func TestPartitionedBatch(t *testing.T) {
	p, counters := partitionedPeople(t, 2, 20)
	qs := make([]*msl.Rule, 0, 6)
	for i := 0; i < 5; i++ {
		qs = append(qs, msl.MustParseRule(fmt.Sprintf(`<out X> :- X:<person {<name 'P%03d'>}>@whois.`, i)))
	}
	// One unroutable query scatters inside the same batch.
	qs = append(qs, msl.MustParseRule(`<out X> :- X:<person {<dept 'CS'>}>@whois.`))
	res, err := p.QueryBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("batch returned %d result sets for %d queries", len(res), len(qs))
	}
	for i := 0; i < 5; i++ {
		if len(res[i]) != 1 {
			t.Fatalf("point query %d returned %d objects", i, len(res[i]))
		}
	}
	if len(res[5]) != 20 {
		t.Fatalf("scattered batch member returned %d objects", len(res[5]))
	}
	// Point queries group into at most one batched exchange per member;
	// per-member Query traffic comes only from the one scatter.
	for i, c := range counters {
		if c.batches > 1 {
			t.Fatalf("member %d saw %d batched exchanges; batching did not group", i, c.batches)
		}
		if c.calls != 1 {
			t.Fatalf("member %d saw %d Query calls, want 1 (the scatter)", i, c.calls)
		}
	}
}

// laggingSource answers every query after delay and does not batch.
type laggingSource struct {
	wrapper.Source
	delay time.Duration
}

func (l *laggingSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	time.Sleep(l.delay)
	return l.Source.Query(q)
}

// TestPartitionedPerQueryTimeout: a member that does not batch answers
// its routed queries one call at a time, each under its own per-member
// timeout, so a slow but healthy member is not failed for the group's
// total time.
func TestPartitionedPerQueryTimeout(t *testing.T) {
	const delay = 20 * time.Millisecond
	_, counters := partitionedPeople(t, 2, 20)
	members := make([]wrapper.Source, len(counters))
	for i, c := range counters {
		members[i] = &laggingSource{Source: c.Source, delay: delay}
	}
	p, err := wrapper.NewPartitioned("whois", "name", members...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*msl.Rule, 0, 10)
	for i := 0; i < 10; i++ {
		qs = append(qs, msl.MustParseRule(fmt.Sprintf(`<out X> :- X:<person {<name 'P%03d'>}>@whois.`, i)))
	}
	ctx := wrapper.WithRunPolicy(context.Background(), 3*delay, nil)
	res, err := p.QueryBatchContext(ctx, qs)
	if err != nil {
		t.Fatalf("slow but healthy members failed a routed batch: %v", err)
	}
	for i, objs := range res {
		if len(objs) != 1 {
			t.Fatalf("point query %d returned %d objects", i, len(objs))
		}
	}
}

func TestPartitionedCountLabel(t *testing.T) {
	stores := make([]wrapper.Source, 3)
	gen := oem.NewIDGen("cl")
	for i := range stores {
		s := oemstore.New(fmt.Sprintf("w%d", i))
		stores[i] = s
		for j := 0; j < 10; j++ {
			name := fmt.Sprintf("C%d_%d", i, j)
			if err := s.Add(oem.NewSet(gen.Next(), "person", oem.New(gen.Next(), "name", name))); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := wrapper.NewPartitioned("p", "name", stores...)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := p.CountLabel("person"); !ok || n != 30 {
		t.Fatalf("CountLabel = %d, %v", n, ok)
	}
	mixed, err := wrapper.NewPartitioned("p", "name", oemstore.New("a"), &failingSource{name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mixed.CountLabel("person"); ok {
		t.Fatal("composite counted despite a countless member")
	}
}

func TestPartitionedForwardsInvalidation(t *testing.T) {
	a := &notifyingSource{Source: oemstore.New("a")}
	b := &notifyingSource{Source: oemstore.New("b")}
	p, err := wrapper.NewPartitioned("p", "name", a, b)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	p.OnInvalidate(func() { fired++ })
	if len(a.fns) != 1 || len(b.fns) != 1 {
		t.Fatalf("registration not forwarded: %d, %d", len(a.fns), len(b.fns))
	}
	a.fns[0]()
	b.fns[0]()
	if fired != 2 {
		t.Fatalf("callback fired %d times", fired)
	}
}

func TestGatherUnionDedups(t *testing.T) {
	gen := oem.NewIDGen("g")
	mk := func(name string) *oem.Object {
		return oem.NewSet(gen.Next(), "person", oem.New(gen.Next(), "name", name))
	}
	got := wrapper.GatherUnion([][]*oem.Object{
		{mk("a"), mk("b")},
		{mk("b"), mk("c")}, // structural duplicate of b across shards
	})
	if len(got) != 3 {
		t.Fatalf("gather kept %d objects, want 3 after cross-shard dedup", len(got))
	}
}

// TestPartitionedPartialAnswer: a failed member does not fail the call —
// the survivors' union comes back with a *PartialError naming the member,
// for single and batched queries, through the answer cache (which stores
// nothing partial), and a member the run has circuit-broken is skipped
// without being called but still named, so the cache stores nothing
// then either.
func TestPartitionedPartialAnswer(t *testing.T) {
	_, counters := partitionedPeople(t, 4, 40)
	const dead = 1
	members := make([]wrapper.Source, 4)
	for i, c := range counters {
		members[i] = c
	}
	members[dead] = &failingSource{name: "whois1"}
	live := 0
	for i, c := range counters {
		if i != dead {
			live += c.Source.(*oemstore.Source).Len()
		}
	}
	p, err := wrapper.NewPartitioned("whois", "name", members...)
	if err != nil {
		t.Fatal(err)
	}
	scan := msl.MustParseRule(`<out X> :- X:<person {<dept 'CS'>}>@whois.`)
	checkPartial := func(what string, objs []*oem.Object, err error) {
		t.Helper()
		var pe *wrapper.PartialError
		if !errors.As(err, &pe) || len(pe.Failed) != 1 || pe.Failed[0].Member != "whois1" || pe.Failed[0].Shard != dead {
			t.Fatalf("%s: error %v, want a partial answer without whois1", what, err)
		}
		if len(objs) != live {
			t.Fatalf("%s: %d objects, want the %d the live shards hold", what, len(objs), live)
		}
	}
	objs, err := p.Query(scan)
	checkPartial("scatter", objs, err)
	res, err := p.QueryBatchContext(context.Background(), []*msl.Rule{scan, scan})
	if len(res) != 2 {
		t.Fatalf("batch answered %d result sets", len(res))
	}
	checkPartial("batched scatter", res[1], err)

	cache := wrapper.NewCache(p, wrapper.CacheOptions{})
	for i := 0; i < 2; i++ {
		objs, err := cache.Query(scan)
		checkPartial("cached scatter", objs, err)
	}
	if s := cache.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("cache stored a partial answer: %+v", s)
	}

	down := func(member string) bool { return member == "whois1" }
	ctx := wrapper.WithRunPolicy(context.Background(), 0, down)
	for i := 0; i < 2; i++ {
		objs, err = cache.QueryContext(ctx, scan)
		checkPartial("circuit-broken member", objs, err)
		var pe *wrapper.PartialError
		if errors.As(err, &pe) && pe.Failed[0].Err.Error() == "shard down" {
			t.Fatalf("circuit-broken member was called: %v", err)
		}
	}
	if s := cache.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("cache stored an answer without a circuit-broken member: %+v", s)
	}
	// An inner run's zero policy masks the outer run's.
	objs, err = p.QueryContext(wrapper.WithRunPolicy(ctx, 0, nil), scan)
	checkPartial("masked run policy", objs, err)
}
