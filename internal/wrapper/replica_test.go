package wrapper_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// replicaMembers builds n answer-equivalent OEM stores r0..r(n-1), each
// holding the same persons extent.
func replicaMembers(t *testing.T, n, persons int) []wrapper.Source {
	t.Helper()
	out := make([]wrapper.Source, n)
	for i := range out {
		store := oemstore.New(fmt.Sprintf("r%d", i))
		gen := oem.NewIDGen(fmt.Sprintf("rm%d", i))
		for p := 0; p < persons; p++ {
			obj := oem.NewSet(gen.Next(), "person",
				oem.New(gen.Next(), "name", fmt.Sprintf("P%03d", p)))
			if err := store.Add(obj); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = store
	}
	return out
}

func mustParse(t *testing.T, text string) *msl.Rule {
	t.Helper()
	q, err := msl.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestReplicatedValidation(t *testing.T) {
	members := replicaMembers(t, 2, 1)
	if _, err := wrapper.NewReplicated("", members...); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := wrapper.NewReplicated("rep"); err == nil {
		t.Fatal("zero members accepted")
	}
	if _, err := wrapper.NewReplicated("r0", members...); err == nil {
		t.Fatal("composite named like a member accepted")
	}
	if _, err := wrapper.NewReplicated("rep", members[0], members[0]); err == nil {
		t.Fatal("duplicate member names accepted")
	}
	if _, err := wrapper.NewReplicated("rep", members...); err != nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

func TestReplicatedCapabilitiesIntersect(t *testing.T) {
	members := replicaMembers(t, 2, 1)
	limited := &wrapper.Limited{Inner: members[1], Caps: wrapper.Capabilities{ValueConditions: true}}
	rep, err := wrapper.NewReplicated("rep", members[0], limited)
	if err != nil {
		t.Fatal(err)
	}
	caps := rep.Capabilities()
	if !caps.ValueConditions || caps.Wildcards || caps.RestConstraints || caps.MultiPattern {
		t.Fatalf("capabilities not intersected: %+v", caps)
	}
}

func TestReplicatedFailoverOrder(t *testing.T) {
	members := replicaMembers(t, 1, 3)
	rep, err := wrapper.NewReplicated("rep", &failingSource{name: "bad"}, members[0])
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `X :- X:<person {<name N>}>@rep.`)
	objs, err := rep.Query(q)
	if err != nil {
		t.Fatalf("failover did not reach the healthy member: %v", err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects, want 3", len(objs))
	}
}

func TestReplicatedAllMembersFail(t *testing.T) {
	rep, err := wrapper.NewReplicated("rep",
		&failingSource{name: "bad0"}, &failingSource{name: "bad1"})
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `X :- X:<person {<name N>}>@rep.`)
	_, qerr := rep.Query(q)
	var rerr *wrapper.ReplicaError
	if !errors.As(qerr, &rerr) {
		t.Fatalf("error is %T, want *ReplicaError: %v", qerr, qerr)
	}
	if rerr.Source != "rep" || rerr.Member != "bad1" {
		t.Fatalf("error attributes the wrong member: %+v", rerr)
	}
}

// TestReplicatedAllMembersDown: when the run has circuit-broken every
// member, the empty answer comes with a *PartialError naming them all,
// single and batched, so an answer cache in front stores nothing.
func TestReplicatedAllMembersDown(t *testing.T) {
	rep, err := wrapper.NewReplicated("rep", replicaMembers(t, 2, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := wrapper.WithRunPolicy(context.Background(), 0, func(string) bool { return true })
	q := mustParse(t, `X :- X:<person {<name N>}>@rep.`)
	checkDown := func(what string, err error) {
		t.Helper()
		var pe *wrapper.PartialError
		if !errors.As(err, &pe) || len(pe.Failed) != 2 || pe.Failed[0].Member != "r0" || pe.Failed[1].Member != "r1" {
			t.Fatalf("%s: error %v, want a partial answer without r0 and r1", what, err)
		}
	}
	cache := wrapper.NewCache(rep, wrapper.CacheOptions{})
	for i := 0; i < 2; i++ {
		objs, err := cache.QueryContext(ctx, q)
		checkDown("single", err)
		if len(objs) != 0 {
			t.Fatalf("skipped every member yet answered %d objects", len(objs))
		}
	}
	res, err := rep.QueryBatchContext(ctx, []*msl.Rule{q, q})
	checkDown("batch", err)
	if len(res) != 2 {
		t.Fatalf("batch answered %d result sets for 2 queries", len(res))
	}
	if s := cache.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("cache stored an answer without any member: %+v", s)
	}
}

func TestReplicatedBatchFailover(t *testing.T) {
	members := replicaMembers(t, 1, 3)
	rep, err := wrapper.NewReplicated("rep", &failingSource{name: "bad"}, members[0])
	if err != nil {
		t.Fatal(err)
	}
	qs := []*msl.Rule{
		mustParse(t, `X :- X:<person {<name 'P000'>}>@rep.`),
		mustParse(t, `X :- X:<person {<name 'P002'>}>@rep.`),
	}
	res, err := rep.QueryBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0]) != 1 || len(res[1]) != 1 {
		t.Fatalf("batch answers wrong: %v", res)
	}
}

func TestReplicatedCountLabel(t *testing.T) {
	members := replicaMembers(t, 2, 5)
	rep, err := wrapper.NewReplicated("rep", members...)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := rep.CountLabel("person")
	if !ok || n != 5 {
		t.Fatalf("CountLabel = %d, %v; want 5, true", n, ok)
	}
}

// steeredMember is a replica whose latency and health the test steers;
// it counts the calls it receives.
type steeredMember struct {
	wrapper.Source
	delay time.Duration
	fail  bool
	calls int
}

func (m *steeredMember) Query(q *msl.Rule) ([]*oem.Object, error) {
	m.calls++
	time.Sleep(m.delay)
	if m.fail {
		return nil, errors.New("down")
	}
	return m.Source.Query(q)
}

// TestReplicatedRankingByLatencyAndErrors: Replicas ranks its members by
// its own latency and error-rate EWMAs — unobserved members first, then
// the faster, and a failing member behind a healthy one until successful
// calls decay its error rate again.
func TestReplicatedRankingByLatencyAndErrors(t *testing.T) {
	members := replicaMembers(t, 2, 3)
	slow := &steeredMember{Source: members[0], delay: 20 * time.Millisecond}
	fast := &steeredMember{Source: members[1]}
	rep, err := wrapper.NewReplicated("rep", slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `X :- X:<person {<name N>}>@rep.`)
	call := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if objs, err := rep.Query(q); err != nil || len(objs) != 3 {
				t.Fatalf("call answered %d objects, %v", len(objs), err)
			}
		}
	}
	// Registration order first, then the unobserved member is explored.
	call(2)
	if slow.calls != 1 || fast.calls != 1 {
		t.Fatalf("exploration: slow %d calls, fast %d; want 1 each", slow.calls, fast.calls)
	}
	// Observed latencies rank the fast member first.
	call(4)
	if slow.calls != 1 || fast.calls != 5 {
		t.Fatalf("latency ranking: slow %d calls, fast %d; want 1, 5", slow.calls, fast.calls)
	}
	// One failure ranks the fast member behind the slow one: the failing
	// call fails over, later calls go to the slow member directly.
	fast.fail = true
	call(4)
	if fast.calls != 6 || slow.calls != 5 {
		t.Fatalf("error ranking: slow %d calls, fast %d; want 5, 6", slow.calls, fast.calls)
	}
	// The fast member recovers; failures of the slow one send calls back
	// to it, and its successes decay its error rate below the slow one's.
	fast.fail, slow.fail = false, true
	call(4)
	slow.fail = false
	before := slow.calls
	call(2)
	if slow.calls != before {
		t.Fatalf("recovered member not ranked first: slow took %d more calls", slow.calls-before)
	}
}

// TestReplicatedConcurrentCalls: concurrent calls share the composite's
// ranking state and each answers in full.
func TestReplicatedConcurrentCalls(t *testing.T) {
	rep, err := wrapper.NewReplicated("rep", replicaMembers(t, 3, 5)...)
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `X :- X:<person {<name N>}>@rep.`)
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				objs, err := rep.Query(q)
				if err == nil && len(objs) != 5 {
					err = fmt.Errorf("answered %d objects, want 5", len(objs))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
