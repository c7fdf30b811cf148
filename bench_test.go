package medmaker

// The benchmark harness regenerates every figure-level artifact and
// performance claim of the paper, per the experiment index in DESIGN.md:
//
//	F2.2/F2.3  wrapper export cost            BenchmarkWrapperExport*
//	F2.4       integrated query (Q1)          BenchmarkIntegrationQuery
//	F2.5       MSI pipeline stage costs       BenchmarkPipelineStages
//	F3.6       datamerge graph execution      BenchmarkDatamergeGraph
//	F1.1       distributed deployment         BenchmarkRemoteQuery
//	Q1/R2      view expansion                 BenchmarkViewExpansion
//	E-PUSH     selection pushdown ablation    BenchmarkPushdown
//	E-JOIN     join order + param queries     BenchmarkJoinOrder, BenchmarkParamQueryVsCross
//	E-CAP      capability-limited sources     BenchmarkCapabilities
//	E-WILD     wildcard search cost           BenchmarkWildcard
//	E-EVOL     rest-variable overhead         BenchmarkRestOverhead
//	E-HAND     declarative vs hand-coded      BenchmarkDeclarativeVsHandcoded
//	E-DUP      duplicate elimination          BenchmarkDupElim
//	E-STATS    statistics-driven ordering     BenchmarkStatsWarmup
//
// Absolute numbers depend on the host; EXPERIMENTS.md records the shapes
// these benchmarks are expected to (and do) exhibit.

import (
	"fmt"
	"testing"
	"time"

	"medmaker/internal/handcoded"
	"medmaker/internal/oem"
	"medmaker/internal/workload"
)

// scaledSources builds a staff population of the given size behind the cs
// and whois wrappers.
func scaledSources(tb testing.TB, persons int) (cs *RelationalWrapper, whois *RecordWrapper, staff *workload.Staff) {
	tb.Helper()
	s, err := workload.GenStaff(workload.StaffConfig{
		Persons:          persons,
		Departments:      4,
		EmployeeFraction: 0.5,
		Irregularity:     0.3,
		Seed:             1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return NewRelationalWrapper("cs", s.DB), NewRecordWrapper("whois", s.Store), s
}

func scaledMediator(tb testing.TB, persons int, opts *PlanOptions) (*Mediator, *workload.Staff) {
	tb.Helper()
	cs, whois, staff := scaledSources(tb, persons)
	med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}, Plan: opts})
	if err != nil {
		tb.Fatal(err)
	}
	return med, staff
}

// csName returns the k'th generated person who is in department CS (the
// departments cycle with period 4 in scaledSources populations).
func csName(staff *workload.Staff, k int) string {
	return staff.Names[4*k]
}

func mustQuery(tb testing.TB, med *Mediator, q string, wantAtLeast int) []*Object {
	tb.Helper()
	objs, err := med.QueryString(q)
	if err != nil {
		tb.Fatal(err)
	}
	if len(objs) < wantAtLeast {
		tb.Fatalf("query %q returned %d objects, want >= %d", q, len(objs), wantAtLeast)
	}
	return objs
}

// --- F2.2 / F2.3: wrapper exports ---

func BenchmarkWrapperExportCS(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			cs, _, _ := scaledSources(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := cs.Export(); len(got) != n {
					b.Fatalf("exported %d", len(got))
				}
			}
		})
	}
}

func BenchmarkWrapperExportWhois(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			// The wrapper converts every record when it is built, so
			// the measurement is wrapper construction over a fresh
			// store; generating the store is excluded from the timer.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := workload.GenStaff(workload.StaffConfig{
					Persons: n, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				w := NewRecordWrapper("whois", s.Store)
				if got := w.Export(); len(got) != n {
					b.Fatalf("exported %d", len(got))
				}
			}
		})
	}
}

// --- F2.4: the integration query Q1 at scale ---

func BenchmarkIntegrationQuery(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("persons=%d", n), func(b *testing.B) {
			med, staff := scaledMediator(b, n, nil)
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(csName(staff, n/8)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}

// --- F2.5: per-stage pipeline costs ---

func BenchmarkPipelineStages(b *testing.B) {
	med, staff := scaledMediator(b, 200, nil)
	qText := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
	rule, err := ParseQuery(qText)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseQuery(qText); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("expand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := med.Expand(rule); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := med.Plan(rule); err != nil {
				b.Fatal(err)
			}
		}
	})
	physical, _, err := med.Plan(rule)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := med.Execute(physical); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- F3.6: datamerge graph execution (the year query) ---

func BenchmarkDatamergeGraph(b *testing.B) {
	med, _ := scaledMediator(b, 200, nil)
	rule, err := ParseQuery(`S :- S:<cs_person {<year 3>}>@med.`)
	if err != nil {
		b.Fatal(err)
	}
	physical, _, err := med.Plan(rule)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.Execute(physical); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Q1/R2: view expansion alone ---

func BenchmarkViewExpansion(b *testing.B) {
	med, _ := scaledMediator(b, 10, nil)
	rule, err := ParseQuery(`JC :- JC:<cs_person {<name 'F0001 L0001'>}>@med.`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.Expand(rule); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-PUSH: selection pushdown on vs off ---

func BenchmarkPushdown(b *testing.B) {
	for _, n := range []int{200, 1000} {
		for _, push := range []bool{true, false} {
			name := fmt.Sprintf("persons=%d/push=%v", n, push)
			b.Run(name, func(b *testing.B) {
				opts := PlanOptions{PushConditions: push, Parameterize: push, DupElim: true}
				med, staff := scaledMediator(b, n, &opts)
				q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustQuery(b, med, q, 1)
				}
			})
		}
	}
}

// --- E-JOIN: join order heuristic vs reversed vs stats-driven ---

func BenchmarkJoinOrder(b *testing.B) {
	modes := []struct {
		name string
		opts PlanOptions
		warm bool
	}{
		{"heuristic", PlanOptions{Order: 0, PushConditions: true, Parameterize: true, DupElim: true}, false},
		{"reversed", PlanOptions{Order: 3, PushConditions: true, Parameterize: true, DupElim: true}, false},
		{"stats", PlanOptions{Order: 1, PushConditions: true, Parameterize: true, DupElim: true}, true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			opts := m.opts
			med, staff := scaledMediator(b, 300, &opts)
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(csName(staff, 1)))
			if m.warm {
				mustQuery(b, med, q, 1) // populate the statistics store
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}

// BenchmarkParamQueryVsCross compares the parameterized-query chain with
// the independent-fetch + hash-join baseline on the full-view query.
func BenchmarkParamQueryVsCross(b *testing.B) {
	for _, n := range []int{100, 300} {
		for _, param := range []bool{true, false} {
			name := fmt.Sprintf("persons=%d/parameterized=%v", n, param)
			b.Run(name, func(b *testing.B) {
				opts := PlanOptions{PushConditions: true, Parameterize: param, DupElim: true}
				med, _ := scaledMediator(b, n, &opts)
				q := `P :- P:<cs_person {<name N>}>@med.`
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustQuery(b, med, q, 1)
				}
			})
		}
	}
}

// --- E-CAP: capable vs capability-poor sources ---

func BenchmarkCapabilities(b *testing.B) {
	for _, limited := range []bool{false, true} {
		name := "full"
		if limited {
			name = "limited"
		}
		b.Run(name, func(b *testing.B) {
			cs, whois, staff := scaledSources(b, 300)
			sources := []Source{cs, whois}
			if limited {
				sources = []Source{
					&LimitedSource{Inner: cs, Caps: Capabilities{MultiPattern: true}},
					&LimitedSource{Inner: whois, Caps: Capabilities{MultiPattern: true}},
				}
			}
			med, err := New(Config{Name: "med", Spec: specMS1, Sources: sources})
			if err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}

// --- E-WILD: wildcard search vs explicit path as depth grows ---

func BenchmarkWildcard(b *testing.B) {
	for _, depth := range []int{2, 4, 6} {
		lib := workload.GenDeepLibrary(3, depth)
		src, err := NewOEMSource("lib"), error(nil)
		if err := src.Add(lib); err != nil {
			b.Fatal(err)
		}
		med, err := New(Config{
			Name:    "med",
			Spec:    `<found T> :- <%title T>@lib.`,
			Sources: []Source{src},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("wildcard/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, `X :- X:<found T>@med.`, 1)
			}
		})
		// Explicit-path baseline: match only the top level (constant
		// work regardless of tree depth below).
		flat, err := New(Config{
			Name:    "med",
			Spec:    `<found L> :- <library {<L V>}>@lib.`,
			Sources: []Source{src},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("toplevel/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, flat, `X :- X:<found L>@med.`, 1)
			}
		})
	}
}

// --- E-EVOL: rest-variable overhead under irregularity ---

func BenchmarkRestOverhead(b *testing.B) {
	for _, irr := range []float64{0, 0.5} {
		b.Run(fmt.Sprintf("irregularity=%.1f", irr), func(b *testing.B) {
			s, err := workload.GenStaff(workload.StaffConfig{
				Persons: 300, Departments: 4, EmployeeFraction: 0.5, Irregularity: irr, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			med, err := New(Config{
				Name:    "med",
				Spec:    specMS1,
				Sources: []Source{NewRelationalWrapper("cs", s.DB), NewRecordWrapper("whois", s.Store)},
			})
			if err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(s.Names[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, med, q, 1)
			}
		})
	}
}

// --- E-HAND: declarative interpretation vs hand-coded integration ---

func BenchmarkDeclarativeVsHandcoded(b *testing.B) {
	cs, whois, staff := scaledSources(b, 300)
	target := staff.Names[0]
	b.Run("declarative", func(b *testing.B) {
		med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}})
		if err != nil {
			b.Fatal(err)
		}
		q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(target))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
	b.Run("handcoded", func(b *testing.B) {
		hc := handcoded.New(cs, whois)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := hc.CSPersonByName(target)
			if err != nil || len(got) < 1 {
				b.Fatalf("handcoded: %v (%d objects)", err, len(got))
			}
		}
	})
}

// --- E-DUP: duplicate elimination cost and effect ---

func BenchmarkDupElim(b *testing.B) {
	for _, dup := range []bool{true, false} {
		b.Run(fmt.Sprintf("dupelim=%v", dup), func(b *testing.B) {
			opts := PlanOptions{PushConditions: true, Parameterize: true, DupElim: dup}
			med, _ := scaledMediator(b, 300, &opts)
			// The year query derives answers through both τ1 and τ2, so
			// dup-elim has real work to do.
			q := `S :- S:<cs_person {<year 3>}>@med.`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := med.QueryString(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-STATS: plans improve after the statistics store warms up ---

func BenchmarkStatsWarmup(b *testing.B) {
	// A skewed scenario the condition-count heuristic gets wrong: the
	// pattern with more conditions is the big one.
	mkMed := func(b *testing.B, order OrderMode) *Mediator {
		big := NewOEMSource("big")
		for i := 0; i < 2000; i++ {
			big.Add(oem.NewSet("", "reading",
				oem.New("", "city", "Palo Alto"),
				oem.New("", "sensor", fmt.Sprintf("s%d", i%7)),
				oem.New("", "value", i),
			))
		}
		small := NewOEMSource("small")
		for i := 0; i < 7; i++ {
			small.Add(oem.NewSet("", "sensor_info",
				oem.New("", "sensor", fmt.Sprintf("s%d", i)),
				oem.New("", "owner", "lab"),
			))
		}
		opts := PlanOptions{Order: order, PushConditions: true, Parameterize: true, DupElim: true}
		med, err := New(Config{
			Name: "med",
			Spec: `<temp {<sensor S> <value V>}> :-
			    <reading {<city 'Palo Alto'> <sensor S> <value V>}>@big
			    AND <sensor_info {<sensor S> <owner 'lab'>}>@small.`,
			Sources: []Source{big, small},
			Plan:    &opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		return med
	}
	q := `X :- X:<temp {<sensor 's3'>}>@med.`
	b.Run("heuristic", func(b *testing.B) {
		med := mkMed(b, OrderHeuristic)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
	b.Run("stats-warm", func(b *testing.B) {
		med := mkMed(b, OrderStats)
		mustQuery(b, med, q, 1) // warm the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
}

// --- E-FUSE: the price of fused-view query evaluation ---

// BenchmarkFusedViewQuery compares a selective query against an ordinary
// view (per-rule expansion with pushdown) with the same query against a
// fusion view (full materialization then filtering) at the same scale —
// the documented cost of cross-fragment query correctness.
func BenchmarkFusedViewQuery(b *testing.B) {
	mk := func(b *testing.B, skolem bool) *Mediator {
		pay := NewOEMSource("payroll")
		fac := NewOEMSource("facilities")
		for i := 0; i < 300; i++ {
			who := fmt.Sprintf("P%03d", i)
			pay.Add(oem.NewSet("", "pay",
				oem.New("", "who", who), oem.New("", "salary", 50000+i)))
			fac.Add(oem.NewSet("", "office",
				oem.New("", "occupant", who), oem.New("", "room", fmt.Sprintf("G%03d", i))))
		}
		oid := ""
		if skolem {
			oid = "person(N) "
		}
		med, err := New(Config{
			Name: "staff",
			Spec: fmt.Sprintf(`
			<%srec {<name N> <salary S>}> :- <pay {<who N> <salary S>}>@payroll.
			<%srec {<name N> <room R>}> :- <office {<occupant N> <room R>}>@facilities.`, oid, oid),
			Sources: []Source{pay, fac},
		})
		if err != nil {
			b.Fatal(err)
		}
		return med
	}
	b.Run("plain-view", func(b *testing.B) {
		med := mk(b, false)
		q := `X :- X:<rec {<name 'P005'>}>@staff.`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
	b.Run("fused-view", func(b *testing.B) {
		med := mk(b, true)
		q := `X :- X:<rec {<name 'P005'>}>@staff.`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
}

// --- F1.1: the distributed deployment (remote wrappers over TCP) ---

func BenchmarkRemoteQuery(b *testing.B) {
	cs, whois, staff := scaledSources(b, 100)
	q := fmt.Sprintf(`JC :- JC:<cs_person {<name %s>}>@med.`, oem.QuoteAtom(staff.Names[0]))
	b.Run("local", func(b *testing.B) {
		med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{cs, whois}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
	b.Run("remote", func(b *testing.B) {
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
		csR, err := DialSource(csAddr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer csR.Close()
		whoisR, err := DialSource(whoisAddr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer whoisR.Close()
		med, err := New(Config{Name: "med", Spec: specMS1, Sources: []Source{csR, whoisR}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, med, q, 1)
		}
	})
}
