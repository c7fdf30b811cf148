package medmaker

import (
	"context"
	"fmt"
	"testing"

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

// TestShardFailurePartialAnswer: with one of 4 whois shards down and a
// skipping policy, a scatter query returns the surviving shards' union
// flagged Incomplete, the failure is attributed to the dead member in
// both the result and the statistics store, and the healthy shards'
// answers are a subset of the flat reference.
func TestShardFailurePartialAnswer(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 120, Departments: 1, Seed: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const deadShard = 2
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
	med, err := New(Config{
		Name:    "med",
		Spec:    `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		Sources: []Source{whoisPart},
		Policy:  ExecPolicy{OnSourceError: OnSourceErrorSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if n := med.QueryStats().SourceErrorCount(deadName); n == 0 {
		t.Fatalf("statistics store has no error for %s", deadName)
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
}
