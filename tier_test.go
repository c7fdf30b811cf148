package medmaker

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"medmaker/internal/workload"
	"medmaker/internal/wrapper"
)

// Tiered mediation tests: a mediator is a Source, so a tier-1 mediator
// can integrate a tier-2 mediator exactly like a wrapper. The composed
// deployment must be indistinguishable from the flat one — same answers
// in every execution mode — and cross-tier plumbing (deadlines downward,
// invalidation upward) must hold.

// passthroughSpec re-exports the lower tier's cs_person view unchanged.
const passthroughSpec = `<cs_person {<name N> | R}> :- <cs_person {<name N> | R}>@sub.`

// tierQueries exercises point lookups, scans, and filters through the
// tiers.
func tierQueries(staff *workload.Staff) []string {
	qs := []string{
		`P :- P:<cs_person {<name N>}>@med.`,
		`S :- S:<cs_person {<year 3>}>@med.`,
		`E :- E:<cs_person {<relation 'employee'>}>@med.`,
	}
	for i := 0; i < 4 && i < len(staff.Names); i++ {
		qs = append(qs, fmt.Sprintf(`X :- X:<cs_person {<name '%s'>}>@med.`, staff.Names[i*8]))
	}
	return qs
}

// TestTwoTierMediatorDifferential: tier-2 integrates cs+whois under MS1,
// tier-1 re-exports it; answers through the stack are byte-identical to
// the flat single-mediator reference in every mode, on both tiers'
// executors.
func TestTwoTierMediatorDifferential(t *testing.T) {
	staff, err := workload.GenStaff(workload.StaffConfig{
		Persons: 150, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := tierQueries(staff)

	flat, err := New(Config{
		Name: "med", Spec: specMS1,
		Sources: []Source{
			NewRelationalWrapper("cs", staff.DB),
			NewRecordWrapper("whois", staff.Store),
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
			sub, err := New(Config{
				Name: "sub", Spec: specMS1,
				Sources: []Source{
					NewRelationalWrapper("cs", staff.DB),
					NewRecordWrapper("whois", staff.Store),
				},
				Parallelism: mode.parallel,
				QueryBatch:  mode.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			top, err := New(Config{
				Name: "med", Spec: passthroughSpec,
				Sources:     []Source{sub},
				Parallelism: mode.parallel,
				QueryBatch:  mode.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				objs, err := top.QueryString(q)
				if err != nil {
					t.Fatalf("two-tier %q: %v", q, err)
				}
				if got := fmt.Sprint(canonicalize(objs)); got != want[q] {
					t.Fatalf("two-tier answer diverged for %q:\n got %s\nwant %s", q, got, want[q])
				}
			}
		})
	}
}

// TestTierDeadlinePropagates: an expired deadline on the tier-1 query
// surfaces as DeadlineExceeded — the ContextSource chain carries the
// context down through the mediator tier instead of letting the lower
// tier run to completion.
func TestTierDeadlinePropagates(t *testing.T) {
	staff, err := workload.GenStaff(workload.StaffConfig{Persons: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := New(Config{
		Name: "sub", Spec: specMS1,
		Sources: []Source{
			NewRelationalWrapper("cs", staff.DB),
			NewRecordWrapper("whois", staff.Store),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := New(Config{Name: "med", Spec: passthroughSpec, Sources: []Source{sub}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := top.QueryStringContext(ctx, `P :- P:<cs_person {<name N>}>@med.`); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded through the tier, got %v", err)
	}
	// The stack is healthy afterwards.
	if _, err := top.QueryString(`P :- P:<cs_person {<name N>}>@med.`); err != nil {
		t.Fatalf("tier broken after expired deadline: %v", err)
	}
}

// TestTierTransitiveInvalidation: Invalidate on the tier-2 mediator
// propagates to a tier-1 mediator that registered it as a source,
// dropping the tier-1 plan cache and marking its materialized views
// stale.
func TestTierTransitiveInvalidation(t *testing.T) {
	staff, err := workload.GenStaff(workload.StaffConfig{Persons: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := New(Config{
		Name: "sub", Spec: specMS1,
		Sources: []Source{
			NewRelationalWrapper("cs", staff.DB),
			NewRecordWrapper("whois", staff.Store),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := New(Config{
		Name: "med", Spec: passthroughSpec,
		Sources:     []Source{sub},
		PlanCache:   &PlanCacheOptions{MaxEntries: 16},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "cs_person"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := `P :- P:<cs_person {<name N>}>@med.`
	for i := 0; i < 2; i++ {
		if _, err := top.QueryString(q); err != nil {
			t.Fatal(err)
		}
	}
	top.WaitMatViews()
	if st := top.MatViewStats(); st.Hits == 0 {
		t.Fatalf("matview never warmed: %+v", st)
	}
	before := top.PlanCacheStats()
	if before.Entries == 0 {
		t.Fatalf("plan cache never populated: %+v", before)
	}

	// Tier-2 invalidation, tier-1 consequences.
	sub.Invalidate("whois")
	after := top.PlanCacheStats()
	if after.Invalidated <= before.Invalidated {
		t.Fatalf("tier-1 plan cache survived tier-2 invalidation: %+v -> %+v", before, after)
	}
	matBefore := top.MatViewStats().Stale
	if _, err := top.QueryString(q); err != nil {
		t.Fatal(err)
	}
	top.WaitMatViews()
	if got := top.MatViewStats().Stale; got <= matBefore {
		t.Fatalf("tier-1 matview extent not marked stale by tier-2 invalidation: %d -> %d", matBefore, got)
	}
}

// TestTierForwardsDegradation: a tier whose 4-shard whois lost a member
// under Skip answers its upper tier with the survivors and a partial
// error, so the upper tier — also under Skip — reports its run
// Incomplete with the dead member named, instead of a complete answer.
// With the answer cache on the upper tier the degraded answer is not
// stored, so a second run is not served complete from it. A batch to the
// lower tier keeps every query's surviving answer.
func TestTierForwardsDegradation(t *testing.T) {
	s, err := workload.GenStaffSharded(workload.StaffConfig{
		Persons: 120, Departments: 1, Seed: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := 0
	for i, st := range s.Stores {
		if i != deadShard {
			wantLive += st.Len()
		}
	}
	deadName := fmt.Sprintf("whois%d", deadShard)
	skip := ExecPolicy{OnSourceError: OnSourceErrorSkip}
	q, err := ParseQuery(`P :- P:<profile {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []struct {
		name  string
		cache *CacheOptions
	}{
		{"direct", nil},
		{"cache", &CacheOptions{}},
	} {
		t.Run(input.name, func(t *testing.T) {
			sub, err := New(Config{
				Name:    "sub",
				Spec:    `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
				Sources: []Source{deadShardWhois(t, s)},
				Policy:  skip,
			})
			if err != nil {
				t.Fatal(err)
			}
			top, err := New(Config{
				Name:    "med",
				Spec:    `<profile {<name N> | R}> :- <profile {<name N> | R}>@sub.`,
				Sources: []Source{sub},
				Policy:  skip,
				Cache:   input.cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				res, err := top.QueryPolicy(context.Background(), q, top.Policy())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !res.Incomplete {
					t.Fatalf("run %d: upper tier reported %d objects complete; the lower tier lost %s", run, len(res.Objects), deadName)
				}
				named := false
				for _, se := range res.SourceErrors {
					named = named || se.Source == deadName
				}
				if !named {
					t.Fatalf("run %d: SourceErrors %v do not name %s", run, res.SourceErrors, deadName)
				}
				if len(res.Objects) != wantLive {
					t.Fatalf("run %d: %d objects, surviving shards hold %d", run, len(res.Objects), wantLive)
				}
			}
		})
	}

	sub, err := New(Config{
		Name:    "sub",
		Spec:    `<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		Sources: []Source{deadShardWhois(t, s)},
		Policy:  skip,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ParseQuery(`P :- P:<profile {<name N>}>@sub.`)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := sub.QueryBatchContext(context.Background(), []*Rule{scan, scan})
	var pe *wrapper.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("degraded batch: error %v, want a partial error", err)
	}
	if len(pe.Failed) != 2 || pe.Failed[0].Member != deadName || pe.Failed[1].Member != deadName {
		t.Fatalf("partial error %v, want %s once per query", pe, deadName)
	}
	if len(answers) != 2 || len(answers[0]) != wantLive || len(answers[1]) != wantLive {
		t.Fatalf("degraded batch kept %d answers, want 2 of %d objects", len(answers), wantLive)
	}
}
