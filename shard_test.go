package medmaker

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/workload"
)

// Partitioned-source tests: the same staff population generated flat and
// hash-partitioned across 4 shards must answer every query identically,
// and a failed shard under a skipping policy must degrade to a partial
// answer attributed to that shard.

// shardedStaffMediator builds a mediator over the 4-shard partitioned cs
// and whois sources of s.
func shardedStaffMediator(t *testing.T, s *workload.ShardedStaff, mode execMode, policy ExecPolicy) *Mediator {
	t.Helper()
	csMembers := make([]Source, len(s.DBs))
	for i, db := range s.DBs {
		csMembers[i] = NewRelationalWrapper(fmt.Sprintf("cs%d", i), db)
	}
	csPart, err := NewPartitionedSource("cs", workload.CSShardKey, csMembers...)
	if err != nil {
		t.Fatal(err)
	}
	whoisMembers := make([]Source, len(s.Stores))
	for i, st := range s.Stores {
		whoisMembers[i] = NewRecordWrapper(fmt.Sprintf("whois%d", i), st)
	}
	whoisPart, err := NewPartitionedSource("whois", workload.WhoisShardKey, whoisMembers...)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name: "med", Spec: specMS1,
		Sources:     []Source{csPart, whoisPart},
		Parallelism: mode.parallel,
		QueryBatch:  mode.batch,
		Policy:      policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// TestShardedMediatorDifferential: a mediator over 4-shard partitioned
// sources answers byte-identically to the flat single-extent reference
// across every execution mode.
func TestShardedMediatorDifferential(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 160, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 9,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := tierQueries(s.Staff)

	flat, err := New(Config{
		Name: "med", Spec: specMS1,
		Sources: []Source{
			NewRelationalWrapper("cs", s.DB),
			NewRecordWrapper("whois", s.Store),
		},
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		objs, err := flat.QueryString(q)
		if err != nil {
			t.Fatalf("flat reference %q: %v", q, err)
		}
		if len(objs) == 0 {
			t.Fatalf("flat reference %q: empty answer, test is vacuous", q)
		}
		want[q] = fmt.Sprint(canonicalize(objs))
	}

	for _, mode := range engineModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			med := shardedStaffMediator(t, s, mode, ExecPolicy{})
			for _, q := range queries {
				objs, err := med.QueryString(q)
				if err != nil {
					t.Fatalf("sharded %q: %v", q, err)
				}
				if got := fmt.Sprint(canonicalize(objs)); got != want[q] {
					t.Fatalf("sharded answer diverged for %q:\n got %s\nwant %s", q, got, want[q])
				}
			}
		})
	}
}

// deadShard is the member of deadShardWhois that is down.
const deadShard = 2

// deadShardWhois builds the 4-shard partitioned whois of s with member
// whois2 down.
func deadShardWhois(t *testing.T, s *workload.ShardedStaff) *PartitionedSource {
	t.Helper()
	whoisMembers := make([]Source, len(s.Stores))
	for i, st := range s.Stores {
		if i == deadShard {
			whoisMembers[i] = &downSource{name: fmt.Sprintf("whois%d", i)}
			continue
		}
		whoisMembers[i] = NewRecordWrapper(fmt.Sprintf("whois%d", i), st)
	}
	whoisPart, err := NewPartitionedSource("whois", workload.WhoisShardKey, whoisMembers...)
	if err != nil {
		t.Fatal(err)
	}
	return whoisPart
}

// profileMediator integrates whois as profiles under a skipping policy,
// with the answer cache when cache is set.
func profileMediator(t *testing.T, whois Source, cache *CacheOptions) *Mediator {
	t.Helper()
	med, err := New(Config{
		Name:    "med",
		Spec:    `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		Sources: []Source{whois},
		Policy:  ExecPolicy{OnSourceError: OnSourceErrorSkip},
		Cache:   cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// TestShardFailurePartialAnswer: with one of 4 whois shards down and a
// skipping policy, a scatter query returns the surviving shards' union
// flagged Incomplete, the failure is attributed to the dead member in
// both the result and the statistics store, and the healthy shards'
// answers are a subset of the flat reference. The same holds with the
// answer cache in front of the partitioned source.
func TestShardFailurePartialAnswer(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 120, Departments: 1, Seed: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stores[deadShard].Len() == 0 {
		t.Fatalf("dead shard whois%d holds no records; the partial answer would prove nothing", deadShard)
	}
	for _, input := range []struct {
		name  string
		cache *CacheOptions
	}{
		{"direct", nil},
		{"cache", &CacheOptions{}},
	} {
		t.Run(input.name, func(t *testing.T) {
			med := profileMediator(t, deadShardWhois(t, s), input.cache)
			q, err := ParseQuery(`P :- P:<profile {<name N>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			res, err := med.QueryPolicy(context.Background(), q, med.Policy())
			if err != nil {
				t.Fatalf("skipping policy still failed the query: %v", err)
			}
			if !res.Incomplete {
				t.Fatal("answer with a dead shard not flagged Incomplete")
			}
			deadName := fmt.Sprintf("whois%d", deadShard)
			found := false
			for _, se := range res.SourceErrors {
				if se.Source == deadName {
					found = true
				}
			}
			if !found {
				t.Fatalf("failure not attributed to %s: %+v", deadName, res.SourceErrors)
			}
			// The partial answer is exactly the surviving shards' contribution.
			wantLive := 0
			for i, st := range s.Stores {
				if i != deadShard {
					wantLive += st.Len()
				}
			}
			if len(res.Objects) != wantLive {
				t.Fatalf("partial answer has %d objects, surviving shards hold %d", len(res.Objects), wantLive)
			}
			// A routed query to a healthy shard is unaffected.
			var liveName string
			for _, full := range s.Names {
				if workload.ShardOf(full, 4) != deadShard {
					liveName = full
					break
				}
			}
			objs, err := med.QueryString(fmt.Sprintf(`P :- P:<profile {<name %s>}>@med.`, oem.QuoteAtom(liveName)))
			if err != nil {
				t.Fatal(err)
			}
			if len(objs) != 1 {
				t.Fatalf("routed query to a healthy shard returned %d objects", len(objs))
			}
		})
	}
}

// TestShardFailureBehindServe: a partitioned source with a dead member,
// served over the wire, degrades exactly as when registered directly —
// the same objects, Incomplete flag and member-attributed SourceErrors.
func TestShardFailureBehindServe(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 120, Departments: 1, Seed: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, err := Serve(deadShardWhois(t, s), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialSource(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	direct := profileMediator(t, deadShardWhois(t, s), nil)
	served := profileMediator(t, client, nil)

	queries := []string{`P :- P:<profile {<name N>}>@med.`}
	var deadName, liveName string
	for _, full := range s.Names {
		if workload.ShardOf(full, 4) == deadShard {
			deadName = full
		} else {
			liveName = full
		}
	}
	for _, name := range []string{deadName, liveName} {
		queries = append(queries, fmt.Sprintf(`P :- P:<profile {<name %s>}>@med.`, oem.QuoteAtom(name)))
	}
	outcome := func(med *Mediator, text string) string {
		t.Helper()
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := med.QueryPolicy(context.Background(), q, med.Policy())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		errs := make([]string, len(res.SourceErrors))
		for i, se := range res.SourceErrors {
			errs[i] = se.Error()
		}
		return fmt.Sprintf("objects %v\nincomplete %v\nerrors %q", canonicalize(res.Objects), res.Incomplete, errs)
	}
	for _, q := range queries {
		want, got := outcome(direct, q), outcome(served, q)
		if got != want {
			t.Fatalf("%s: served partition degrades differently\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestHangingShardCostsOneTimeout: under Skip with a per-source timeout,
// a shard that never answers costs about one timeout per query, not one
// per exchange — the first exchange that reaches it times out and
// circuit-breaks the member, later exchanges skip it — in every
// execution mode.
func TestHangingShardCostsOneTimeout(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 640, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 9,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 100 * time.Millisecond
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			csMembers := make([]Source, len(s.DBs))
			for i, db := range s.DBs {
				csMembers[i] = NewRelationalWrapper(fmt.Sprintf("cs%d", i), db)
			}
			csMembers[deadShard] = &slowSource{inner: csMembers[deadShard], delay: time.Hour}
			csPart, err := NewPartitionedSource("cs", workload.CSShardKey, csMembers...)
			if err != nil {
				t.Fatal(err)
			}
			whoisMembers := make([]Source, len(s.Stores))
			for i, st := range s.Stores {
				whoisMembers[i] = NewRecordWrapper(fmt.Sprintf("whois%d", i), st)
			}
			whoisPart, err := NewPartitionedSource("whois", workload.WhoisShardKey, whoisMembers...)
			if err != nil {
				t.Fatal(err)
			}
			med, err := New(Config{
				Name: "med", Spec: specMS1,
				Sources:     []Source{csPart, whoisPart},
				Parallelism: mode.parallel,
				QueryBatch:  mode.batch,
				Policy:      ExecPolicy{PerSourceTimeout: timeout, OnSourceError: OnSourceErrorSkip},
			})
			if err != nil {
				t.Fatal(err)
			}
			q, err := ParseQuery(`P :- P:<cs_person {<name N>}>@med.`)
			if err != nil {
				t.Fatal(err)
			}
			cs0 := sourceExchanges("cs")
			start := time.Now()
			res, err := med.QueryPolicy(context.Background(), q, med.Policy())
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if n := sourceExchanges("cs") - cs0; n < 8 {
				t.Fatalf("cs saw %d exchanges; the test needs many", n)
			}
			if elapsed > 5*timeout {
				t.Fatalf("hanging shard cost %v, want about one %v timeout", elapsed, timeout)
			}
			if !res.Incomplete || len(res.Objects) == 0 {
				t.Fatalf("Incomplete=%v with %d objects, want a partial answer", res.Incomplete, len(res.Objects))
			}
			for _, se := range res.SourceErrors {
				if se.Source != "cs2" || !errors.Is(se, context.DeadlineExceeded) {
					t.Fatalf("unexpected source error %v", se)
				}
			}
		})
	}
}

// recoverableSource fails every query while down is set, then delegates.
type recoverableSource struct {
	Source
	down atomic.Bool
}

func (r *recoverableSource) Query(q *msl.Rule) ([]*Object, error) {
	if r.down.Load() {
		return nil, errors.New("source is down")
	}
	return r.Source.Query(q)
}

// TestShardFailureNotCachedAsComplete: under Skip with the answer cache,
// once a run has circuit-broken a dead cs shard, its later probes skip
// the member — and those answers lack the member's share, so the cache
// must not store them as complete. After the member recovers, the next
// run answers in full, identical to the flat reference, in every
// execution mode.
func TestShardFailureNotCachedAsComplete(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 160, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 9,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const query = `P :- P:<cs_person {<name N>}>@med.`
	flat, err := New(Config{
		Name: "med", Spec: specMS1,
		Sources: []Source{NewRelationalWrapper("cs", s.DB), NewRecordWrapper("whois", s.Store)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flat.QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canonicalize(ref))
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			csMembers := make([]Source, len(s.DBs))
			for i, db := range s.DBs {
				csMembers[i] = NewRelationalWrapper(fmt.Sprintf("cs%d", i), db)
			}
			dead := &recoverableSource{Source: csMembers[deadShard]}
			dead.down.Store(true)
			csMembers[deadShard] = dead
			csPart, err := NewPartitionedSource("cs", workload.CSShardKey, csMembers...)
			if err != nil {
				t.Fatal(err)
			}
			whoisMembers := make([]Source, len(s.Stores))
			for i, st := range s.Stores {
				whoisMembers[i] = NewRecordWrapper(fmt.Sprintf("whois%d", i), st)
			}
			whoisPart, err := NewPartitionedSource("whois", workload.WhoisShardKey, whoisMembers...)
			if err != nil {
				t.Fatal(err)
			}
			med, err := New(Config{
				Name: "med", Spec: specMS1,
				Sources:     []Source{csPart, whoisPart},
				Parallelism: mode.parallel,
				QueryBatch:  mode.batch,
				Policy:      ExecPolicy{OnSourceError: OnSourceErrorSkip},
				Cache:       &CacheOptions{},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := med.QueryPolicy(context.Background(), q, med.Policy())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Incomplete || fmt.Sprint(canonicalize(res.Objects)) == want {
				t.Fatalf("with cs%d down: Incomplete=%v, %d objects; want a partial answer", deadShard, res.Incomplete, len(res.Objects))
			}
			dead.down.Store(false)
			res, err = med.QueryPolicy(context.Background(), q, med.Policy())
			if err != nil {
				t.Fatal(err)
			}
			if res.Incomplete || len(res.SourceErrors) > 0 {
				t.Fatalf("after recovery: Incomplete=%v, errors %v", res.Incomplete, res.SourceErrors)
			}
			if got := fmt.Sprint(canonicalize(res.Objects)); got != want {
				t.Fatalf("after recovery the cache served degraded answers: %d objects, want %d", len(res.Objects), len(ref))
			}
		})
	}
}
