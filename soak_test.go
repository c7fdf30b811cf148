package medmaker

import (
	"fmt"
	"sync"
	"testing"

	"medmaker/internal/workload"
)

// soakQueries is the mixed workload one soak client cycles through:
// zipfian-hot point lookups, a broad full-view scan, and a predicate
// filter, so plan-cache hits, misses, and answer-cache traffic all
// interleave under load.
func soakQueries(staff *workload.Staff) []string {
	gen := workload.NewQueryGen(workload.QueryGenConfig{
		Names: staff.Names, Distinct: 40, Seed: 17,
	})
	qs := make([]string, 0, 10)
	for i := 0; i < 8; i++ {
		qs = append(qs, gen.Next())
	}
	qs = append(qs,
		`P :- P:<cs_person {<name N>}>@med.`,
		`S :- S:<cs_person {<year 3>}>@med.`,
	)
	return qs
}

// TestSoakSharedMediator hammers one shared mediator — plan cache and
// answer cache on — from concurrent clients in each execution mode and
// checks every concurrent answer against a single-client reference run.
// Run under -race this is the serving tier's thread-safety argument.
func TestSoakSharedMediator(t *testing.T) {
	staff, err := workload.GenStaff(workload.StaffConfig{
		Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkMed := func(mode execMode) *Mediator {
		med, err := New(Config{
			Name: "med", Spec: specMS1,
			Sources: []Source{
				NewRelationalWrapper("cs", staff.DB),
				NewRecordWrapper("whois", staff.Store),
			},
			PlanCache:   &PlanCacheOptions{MaxEntries: 64},
			Cache:       &CacheOptions{},
			Parallelism: mode.parallel,
			QueryBatch:  mode.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return med
	}
	queries := soakQueries(staff)

	// Single-client reference answers, computed on a serial mediator.
	ref := mkMed(engineModes[0])
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		objs, err := ref.QueryString(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = fmt.Sprint(canonicalize(objs))
	}

	const clients = 8
	const iters = 25
	for _, mode := range engineModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			med := mkMed(mode)
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						// Per-client offset so clients collide on some
						// queries and diverge on others at any instant.
						q := queries[(c+i)%len(queries)]
						objs, err := med.QueryString(q)
						if err != nil {
							errs <- fmt.Errorf("%s client %d iter %d: %w", mode.name, c, i, err)
							return
						}
						if got := fmt.Sprint(canonicalize(objs)); got != want[q] {
							errs <- fmt.Errorf("%s client %d iter %d: answer diverged for %q:\n got %s\nwant %s",
								mode.name, c, i, q, got, want[q])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if st := med.PlanCacheStats(); st.Hits == 0 {
				t.Errorf("%s: soak never hit the plan cache: %+v", mode.name, st)
			}
		})
	}
}

// TestSoakShardedTopology hammers a mediator whose cs and whois sources
// are 4-shard partitions from concurrent clients, in each execution
// mode, checking every answer against the flat single-extent reference.
// Under -race this is the scatter/gather path's thread-safety argument:
// routed point queries and full scatters interleave from many clients at
// once.
func TestSoakShardedTopology(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := soakQueries(s.Staff)

	// Reference answers from the flat extent on a serial mediator.
	ref, err := New(Config{
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
		objs, err := ref.QueryString(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = fmt.Sprint(canonicalize(objs))
	}

	const clients = 8
	const iters = 15
	for _, mode := range engineModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			med := shardedStaffMediator(t, s, mode, ExecPolicy{})
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						q := queries[(c+i)%len(queries)]
						objs, err := med.QueryString(q)
						if err != nil {
							errs <- fmt.Errorf("%s client %d iter %d: %w", mode.name, c, i, err)
							return
						}
						if got := fmt.Sprint(canonicalize(objs)); got != want[q] {
							errs <- fmt.Errorf("%s client %d iter %d: sharded answer diverged for %q:\n got %s\nwant %s",
								mode.name, c, i, q, got, want[q])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
