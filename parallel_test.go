package medmaker

import (
	"fmt"
	"strings"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// TestParallelMatchesSequential checks that parallel execution returns
// exactly the sequential results, in the same order, for every plan
// variant.
func TestParallelMatchesSequential(t *testing.T) {
	queries := []string{
		`P :- P:<cs_person {<name N>}>@med.`,
		`S :- S:<cs_person {<year 3>}>@med.`,
	}
	variants := []PlanOptions{
		{Order: OrderHeuristic, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: OrderHeuristic, PushConditions: true, Parameterize: false, DupElim: true},
		{Order: OrderReversed, PushConditions: false, Parameterize: true, DupElim: true},
	}
	cs, whois, _ := scaledSources(t, 80)
	for vi, opts := range variants {
		o := opts
		seq, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}, Plan: &o, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}, Plan: &o, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			a, err := seq.QueryString(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.QueryString(q)
			if err != nil {
				t.Fatalf("variant %d query %d parallel: %v", vi, qi, err)
			}
			if len(a) != len(b) {
				t.Fatalf("variant %d query %d: sequential %d objects, parallel %d", vi, qi, len(a), len(b))
			}
			for i := range a {
				if !a[i].StructuralEqual(b[i]) {
					t.Fatalf("variant %d query %d: result %d differs:\n%s\nvs\n%s",
						vi, qi, i, oem.Format(a[i]), oem.Format(b[i]))
				}
			}
		}
	}
}

// TestExecutionModesMatchSequential is the differential check for the
// batched/cached/parallel executor: for every plan variant and every
// combination of the new knobs, results must be structurally identical to
// the plain sequential per-tuple path, in the same order. Each cached
// mediator runs its queries twice so the second pass exercises cache hits.
func TestExecutionModesMatchSequential(t *testing.T) {
	queries := []string{
		`P :- P:<cs_person {<name N>}>@med.`,
		`S :- S:<cs_person {<year 3>}>@med.`,
	}
	variants := []PlanOptions{
		{Order: OrderHeuristic, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: OrderHeuristic, PushConditions: true, Parameterize: false, DupElim: true},
		{Order: OrderReversed, PushConditions: false, Parameterize: true, DupElim: true},
	}
	modes := []struct {
		name string
		mk   func(o *PlanOptions) Config
	}{
		{"batched", func(o *PlanOptions) Config {
			return Config{Plan: o} // QueryBatch 0 -> DefaultQueryBatch
		}},
		{"batched+cached", func(o *PlanOptions) Config {
			return Config{Plan: o, Cache: &CacheOptions{}}
		}},
		{"per-tuple+parallel", func(o *PlanOptions) Config {
			return Config{Plan: o, QueryBatch: 1, Parallelism: 8}
		}},
		{"batched+cached+parallel", func(o *PlanOptions) Config {
			return Config{Plan: o, Cache: &CacheOptions{}, Parallelism: 8}
		}},
	}
	cs, whois, _ := scaledSources(t, 80)
	for vi, opts := range variants {
		o := opts
		seq, err := New(Config{
			Name: "med", Spec: specMS1, Sources: []Source{cs, whois},
			Plan: &o, QueryBatch: 1, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			cfg := mode.mk(&o)
			cfg.Name, cfg.Spec, cfg.Sources = "med", specMS1, []Source{cs, whois}
			med, err := New(cfg)
			if err != nil {
				t.Fatalf("variant %d mode %s: %v", vi, mode.name, err)
			}
			for qi, q := range queries {
				want, err := seq.QueryString(q)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := med.QueryString(q)
					if err != nil {
						t.Fatalf("variant %d mode %s query %d pass %d: %v", vi, mode.name, qi, pass, err)
					}
					if len(want) != len(got) {
						t.Fatalf("variant %d mode %s query %d pass %d: sequential %d objects, %s %d",
							vi, mode.name, qi, pass, len(want), mode.name, len(got))
					}
					for i := range want {
						if !want[i].StructuralEqual(got[i]) {
							t.Fatalf("variant %d mode %s query %d pass %d: result %d differs:\n%s\nvs\n%s",
								vi, mode.name, qi, pass, i, oem.Format(want[i]), oem.Format(got[i]))
						}
					}
				}
			}
		}
	}
}

// failingSource errors on every query.
type failingSource struct{ name string }

func (f *failingSource) Name() string               { return f.name }
func (f *failingSource) Capabilities() Capabilities { return FullCapabilities() }
func (f *failingSource) Query(*msl.Rule) ([]*Object, error) {
	return nil, fmt.Errorf("source %s is down", f.name)
}

// TestParallelErrorPropagation: a failing source fails the whole parallel
// run rather than hanging or dropping rows.
func TestParallelErrorPropagation(t *testing.T) {
	cs, whois, _ := scaledSources(t, 20)
	med, err := New(Config{
		Name: "med",
		Spec: `<out {<name N> <fn FN>}> :-
		    <person {<name N> <relation R>}>@whois AND <R {<first_name FN>}>@broken.`,
		Sources:     []Source{cs, whois, &failingSource{name: "broken"}},
		Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.QueryString(`X :- X:<out {<name N>}>@med.`); err == nil ||
		!strings.Contains(err.Error(), "is down") {
		t.Fatalf("failing source error: %v", err)
	}
}

// BenchmarkRemoteParallelism measures the fan-out win over TCP wrappers,
// where per-tuple parameterized queries are latency-bound: the pooled
// remote client lets the engine keep several queries in flight.
func BenchmarkRemoteParallelism(b *testing.B) {
	cs, whois, _ := scaledSources(b, 200)
	csAddr, csSrv, err := Serve(cs, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer csSrv.Close()
	whoisAddr, whoisSrv, err := Serve(whois, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer whoisSrv.Close()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			csR, err := DialSource(csAddr, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer csR.Close()
			whoisR, err := DialSource(whoisAddr, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer whoisR.Close()
			med, err := New(Config{
				Name: "med", Spec: specMS1,
				Sources:     []Source{csR, whoisR},
				Parallelism: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := `P :- P:<cs_person {<name N>}>@med.`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}

// BenchmarkParallelism measures the fan-out win on the full-view query,
// whose inner parameterized queries are independent per person.
func BenchmarkParallelism(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cs, whois, _ := scaledSources(b, 400)
			med, err := New(Config{
				Name: "med", Spec: specMS1,
				Sources:     []Source{cs, whois},
				Parallelism: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := `P :- P:<cs_person {<name N>}>@med.`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}
