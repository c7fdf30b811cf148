package medmaker

// Replicated sources, end to end through the mediator: N answer-
// equivalent members behind one logical name must be indistinguishable
// from a single member, keep answering while any member is healthy, and
// — once the statistics store has observed exchange latencies — route
// exchanges away from a slow member.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// laggedSource adds a fixed latency to every query against the wrapped
// member — the injected-slow replica.
type laggedSource struct {
	inner Source
	delay time.Duration
}

func (d *laggedSource) Name() string               { return d.inner.Name() }
func (d *laggedSource) Capabilities() Capabilities { return d.inner.Capabilities() }
func (d *laggedSource) Query(q *msl.Rule) ([]*Object, error) {
	time.Sleep(d.delay)
	return d.inner.Query(q)
}

// replicaExtent builds one member store holding the shared persons
// extent; every member must answer identically.
func replicaExtent(t *testing.T, name string, persons int) *OEMSource {
	t.Helper()
	src := NewOEMSource(name)
	for i := 0; i < persons; i++ {
		if err := src.Add(oem.NewSet("", "person",
			oem.New("", "name", fmt.Sprintf("P%03d", i)),
			oem.New("", "dept", []string{"CS", "EE"}[i%2]))); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

func replicaMediator(t *testing.T, rep Source) *Mediator {
	t.Helper()
	med, err := New(Config{
		Name:    "med",
		Spec:    `<profile {<name N> <dept D>}> :- <person {<name N> <dept D>}>@rep.`,
		Sources: []Source{rep},
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

var replicaQueries = []string{
	`X :- X:<profile {<name N>}>@med.`,
	`X :- X:<profile {<dept 'CS'>}>@med.`,
	`X :- X:<profile {<name 'P003'>}>@med.`,
}

// TestReplicatedSourceMatchesSingleMember: the replicated composite is a
// pure availability/latency construct — answers must be byte-identical
// to a mediator over one member alone.
func TestReplicatedSourceMatchesSingleMember(t *testing.T) {
	rep, err := NewReplicatedSource("rep",
		replicaExtent(t, "r0", 12), replicaExtent(t, "r1", 12), replicaExtent(t, "r2", 12))
	if err != nil {
		t.Fatal(err)
	}
	replicated := replicaMediator(t, rep)
	single := replicaMediator(t, replicaExtent(t, "rep", 12))
	for _, q := range replicaQueries {
		want, err := single.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := replicated.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(canonicalize(got), canonicalize(want)) {
			t.Fatalf("%s: replicated answers diverge from single member", q)
		}
	}
}

// TestReplicatedFailoverKeepsAnswering: with the first member down hard,
// every exchange fails over to a healthy sibling — full answers, no
// error surfaced, and the failover counter moves.
func TestReplicatedFailoverKeepsAnswering(t *testing.T) {
	dead := &flakySource{inner: replicaExtent(t, "r0", 12), failures: 1 << 30}
	rep, err := NewReplicatedSource("rep", dead, replicaExtent(t, "r1", 12))
	if err != nil {
		t.Fatal(err)
	}
	med := replicaMediator(t, rep)
	single := replicaMediator(t, replicaExtent(t, "rep", 12))
	before := metrics.Default().Snapshot()
	for _, q := range replicaQueries {
		want, err := single.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := med.QueryString(q)
		if err != nil {
			t.Fatalf("%s: failover did not absorb the dead member: %v", q, err)
		}
		if !reflect.DeepEqual(canonicalize(got), canonicalize(want)) {
			t.Fatalf("%s: degraded answers", q)
		}
	}
	after := metrics.Default().Snapshot()
	if d := after.Counter("replica.failover") - before.Counter("replica.failover"); d <= 0 {
		t.Fatalf("failover counter moved by %d, want > 0", d)
	}
	if d := after.Counter("replica.routed.r0") - before.Counter("replica.routed.r0"); d != 0 {
		t.Fatalf("%d exchanges credited to the dead member", d)
	}
}

// TestReplicatedRoutingAvoidsSlow: after the first exchanges teach the
// composite each member's latency, it must send the bulk of the remaining
// traffic to the fast members — whatever the slow member's registration
// position, and with the answer cache in front of the composite.
func TestReplicatedRoutingAvoidsSlow(t *testing.T) {
	const queries = 30
	for _, input := range []struct {
		name      string
		slowFirst bool
		cache     *CacheOptions
	}{
		{"slow-second", false, nil},
		{"slow-first-cache", true, &CacheOptions{}},
	} {
		t.Run(input.name, func(t *testing.T) {
			slow := &laggedSource{inner: replicaExtent(t, "r1", queries), delay: 25 * time.Millisecond}
			members := []Source{replicaExtent(t, "r0", queries), slow, replicaExtent(t, "r2", queries)}
			if input.slowFirst {
				members[0], members[1] = members[1], members[0]
			}
			rep, err := NewReplicatedSource("rep", members...)
			if err != nil {
				t.Fatal(err)
			}
			med, err := New(Config{
				Name:    "med",
				Spec:    `<profile {<name N> <dept D>}> :- <person {<name N> <dept D>}>@rep.`,
				Sources: []Source{rep},
				Cache:   input.cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			before := metrics.Default().Snapshot()
			for i := 0; i < queries; i++ {
				q := fmt.Sprintf(`X :- X:<profile {<name 'P%03d'>}>@med.`, i)
				if objs, err := med.QueryString(q); err != nil || len(objs) != 1 {
					t.Fatalf("query %d: %d objects, %v", i, len(objs), err)
				}
			}
			after := metrics.Default().Snapshot()
			delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
			total := delta("replica.exchanges")
			toSlow := delta("replica.routed.r1")
			if total < queries {
				t.Fatalf("only %d exchanges recorded for %d queries", total, queries)
			}
			// Exploration legitimately sends the first exchange or two to the
			// slow member; after that its observed latency keeps it ranked last.
			if float64(toSlow) > 0.2*float64(total) {
				t.Fatalf("slow member served %d of %d exchanges", toSlow, total)
			}
			if delta("replica.routed.r0")+delta("replica.routed.r2") < total-toSlow {
				t.Fatalf("exchanges unaccounted for: r0=%d r1=%d r2=%d total=%d",
					delta("replica.routed.r0"), toSlow, delta("replica.routed.r2"), total)
			}
		})
	}
}

// TestHangingReplicaFailsOverWithFreshBudget: a first replica that never
// answers times out on its own per-member budget, and the failover gets
// a fresh one — the healthy replica answers in full, under the failing
// policy, although it finishes after the exchange's own timeout.
func TestHangingReplicaFailsOverWithFreshBudget(t *testing.T) {
	const timeout = 200 * time.Millisecond
	hanging := &slowSource{inner: replicaExtent(t, "r0", 12), delay: time.Hour}
	healthy := &slowSource{inner: replicaExtent(t, "r1", 12), delay: timeout / 4}
	rep, err := NewReplicatedSource("rep", hanging, healthy)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name:    "med",
		Spec:    `<profile {<name N> <dept D>}> :- <person {<name N> <dept D>}>@rep.`,
		Sources: []Source{rep},
		Policy:  ExecPolicy{PerSourceTimeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	objs, err := med.QueryString(`X :- X:<profile {<name N>}>@med.`)
	if err != nil {
		t.Fatalf("failover did not get a fresh budget: %v", err)
	}
	if len(objs) != 12 {
		t.Fatalf("failover answered %d objects, want 12", len(objs))
	}
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Fatalf("failover took %v", elapsed)
	}
}
