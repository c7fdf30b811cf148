package medmaker

// Differential testing: a brute-force reference evaluator for logical
// datamerge programs is compared against the full MSI pipeline (view
// expansion → cost-based planning → datamerge execution) under every
// optimizer configuration, over randomized source populations. Any
// divergence is a bug in the planner or engine (or in the reference,
// which is simple enough to audit).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"medmaker/internal/build"
	"medmaker/internal/extfn"
	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/veao"
	"medmaker/internal/wrapper"
)

// referenceEval evaluates a logical program the slow, obviously-correct
// way: every pattern conjunct is matched against the full export of its
// source, conjuncts join left to right, predicates evaluate at the first
// position where their implementations apply, bindings project and dedup
// on the head variables, and heads construct. No pushdown, no ordering,
// no parameterized queries.
func referenceEval(t *testing.T, prog *veao.Program, exports map[string][]*oem.Object, tbl *extfn.Table) []*oem.Object {
	t.Helper()
	gen := oem.NewIDGen("ref")
	var out []*oem.Object
	for _, rule := range prog.Rules {
		envs := []match.Env{nil}
		pending := make([]msl.Conjunct, len(rule.Tail))
		copy(pending, rule.Tail)
		for len(pending) > 0 {
			// Pick the first evaluable conjunct: any positive pattern, or
			// a predicate whose adornment fits the bound variables;
			// negated patterns only when nothing else remains (safe
			// stratification).
			picked := -1
			for pass := 0; pass < 2 && picked < 0; pass++ {
				for i, c := range pending {
					if pc, ok := c.(*msl.PatternConjunct); ok {
						if pc.Negated && pass == 0 {
							continue
						}
						picked = i
						break
					}
					pr := c.(*msl.PredicateConjunct)
					bound := map[string]bool{}
					if len(envs) > 0 {
						for name := range envs[0] {
							bound[name] = true
						}
					}
					if tbl.CanEval(pr, bound) {
						picked = i
						break
					}
				}
			}
			if picked < 0 {
				t.Fatalf("reference: no evaluable conjunct among %v", pending)
			}
			c := pending[picked]
			pending = append(pending[:picked], pending[picked+1:]...)
			var next []match.Env
			switch conj := c.(type) {
			case *msl.PatternConjunct:
				tops := exports[conj.Source]
				for _, env := range envs {
					got, err := match.Tops(conj.Pattern, conj.ObjVar, tops, env)
					if err != nil {
						t.Fatal(err)
					}
					if conj.Negated {
						if len(got) == 0 {
							next = append(next, env)
						}
						continue
					}
					next = append(next, got...)
				}
			case *msl.PredicateConjunct:
				for _, env := range envs {
					got, err := tbl.Eval(conj, env)
					if err != nil {
						t.Fatal(err)
					}
					next = append(next, got...)
				}
			}
			envs = next
			if len(envs) == 0 {
				break
			}
		}
		envs = match.DedupEnvs(envs, rule.HeadVars())
		for _, env := range envs {
			objs, err := build.Head(rule.Head, env, gen)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, objs...)
		}
	}
	return dedupObjects(out)
}

func dedupObjects(objs []*oem.Object) []*oem.Object {
	byHash := map[uint64][]*oem.Object{}
	out := objs[:0:0]
outer:
	for _, o := range objs {
		h := o.StructuralHash()
		for _, prev := range byHash[h] {
			if prev.StructuralEqual(o) {
				continue outer
			}
		}
		byHash[h] = append(byHash[h], o)
		out = append(out, o)
	}
	return out
}

// canonicalize renders objects as sorted structural fingerprints so two
// result sets compare independent of order and oids.
func canonicalize(objs []*oem.Object) []string {
	keys := make([]string, len(objs))
	for i, o := range objs {
		c := o.Clone()
		c.Walk(func(obj *oem.Object, _ int) bool {
			obj.OID = oem.NilOID
			return true
		})
		sortSubobjects(c)
		keys[i] = oem.Format(c)
	}
	sort.Strings(keys)
	return keys
}

func sortSubobjects(o *oem.Object) {
	subs := o.Subobjects()
	for _, s := range subs {
		sortSubobjects(s)
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Label != subs[j].Label {
			return subs[i].Label < subs[j].Label
		}
		return fmt.Sprint(subs[i].Value) < fmt.Sprint(subs[j].Value)
	})
}

// randomPeople builds a randomized irregular population.
func randomPeople(r *rand.Rand, n int) []*oem.Object {
	gen := oem.NewIDGen("rp")
	depts := []string{"CS", "EE", "ME"}
	rels := []string{"employee", "student"}
	out := make([]*oem.Object, n)
	for i := range out {
		subs := oem.Set{
			oem.New(gen.Next(), "name", fmt.Sprintf("P%03d Q%03d", i, i)),
			oem.New(gen.Next(), "dept", depts[r.Intn(len(depts))]),
			oem.New(gen.Next(), "relation", rels[r.Intn(len(rels))]),
		}
		if r.Intn(2) == 0 {
			subs = append(subs, oem.New(gen.Next(), "year", 1+r.Intn(5)))
		}
		if r.Intn(3) == 0 {
			subs = append(subs, oem.New(gen.Next(), "e_mail", fmt.Sprintf("p%d@x", i)))
		}
		if r.Intn(4) == 0 {
			subs = append(subs, oem.New(gen.Next(), "office", fmt.Sprintf("G%d", r.Intn(50))))
		}
		out[i] = &oem.Object{OID: gen.Next(), Label: "person", Value: subs}
	}
	return out
}

// randomRelations builds employee/student objects aligned with the people
// by index parity, mimicking the relational side.
func randomRelations(r *rand.Rand, n int) []*oem.Object {
	gen := oem.NewIDGen("rr")
	out := make([]*oem.Object, 0, n)
	for i := 0; i < n; i++ {
		label := "employee"
		if r.Intn(2) == 0 {
			label = "student"
		}
		subs := oem.Set{
			oem.New(gen.Next(), "first_name", fmt.Sprintf("P%03d", i)),
			oem.New(gen.Next(), "last_name", fmt.Sprintf("Q%03d", i)),
		}
		if label == "student" {
			subs = append(subs, oem.New(gen.Next(), "year", 1+r.Intn(5)))
		} else if r.Intn(2) == 0 {
			subs = append(subs, oem.New(gen.Next(), "title", "staff"))
		}
		out = append(out, &oem.Object{OID: gen.Next(), Label: label, Value: subs})
	}
	return out
}

// servedSources serves each source over TCP with Serve and returns the
// clients DialSource connects to them, closed when the test ends.
func servedSources(t *testing.T, srcs []Source) []Source {
	t.Helper()
	out := make([]Source, len(srcs))
	for i, src := range srcs {
		addr, srv, err := Serve(src, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		client, err := DialSource(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		out[i] = client
	}
	return out
}

// TestDifferentialAgainstReference cross-checks the planned execution
// against the reference evaluator for a matrix of specs, queries, plan
// options, and random seeds, over the sources in process and over the same
// sources served through the remote wire protocol.
func TestDifferentialAgainstReference(t *testing.T) {
	specs := []string{
		// The paper's MS1.
		specMS1,
		// Single-source view with rests.
		`<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		// Label variable + join on it.
		`<linked {<rel R> <fn FN>}> :- <person {<relation R>}>@whois AND <R {<first_name FN>}>@cs.`,
		// Predicate filter (builtin).
		`<senior {<name N> <year Y>}> :- <person {<name N> <year Y>}>@whois AND ge(Y, 3).`,
		// Two rules (union view).
		`<anyone {<who N>}> :- <person {<name N>}>@whois.
		 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
		// Negation: persons whose relation has no same-named table rows.
		`<lonely {<name N>}> :-
		    <person {<name N> <relation R>}>@whois
		    AND NOT <R {<first_name FN>}>@cs.`,
		// Structural builtins over a rest variable.
		`<nomail {<name N>}> :- <person {<name N> | R}>@whois AND lacks(R, 'e_mail').
		 <mail {<name N>}> :- <person {<name N> | R}>@whois AND has(R, 'e_mail').`,
		// The XML wrapper serving the profile view.
		`<profile {<name N> | R}> :- <person {<name N> | R}>@xml.`,
		// The stream log unioned with the relational side.
		`<anyone {<who N>}> :- <person {<name N>}>@stream.
		 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
	}
	queries := []string{
		`X :- X:<cs_person {<name 'P004 Q004'>}>@med.`,
		`X :- X:<cs_person {<year 3>}>@med.`,
		`X :- X:<profile {<name N>}>@med.`,
		`X :- X:<profile {<e_mail E>}>@med.`,
		`<pair R FN> :- <linked {<rel R> <fn FN>}>@med.`,
		`X :- X:<senior {<year 5>}>@med.`,
		`X :- X:<anyone {<who W>}>@med.`,
		`X :- X:<lonely {<name N>}>@med.`,
		`X :- X:<nomail {<name N>}>@med.`,
	}
	variants := []PlanOptions{
		{Order: OrderHeuristic, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: OrderReversed, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: OrderAsWritten, PushConditions: false, Parameterize: true, DupElim: true},
		{Order: OrderHeuristic, PushConditions: true, Parameterize: false, DupElim: true},
		{Order: OrderStats, PushConditions: false, Parameterize: false, DupElim: true},
	}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		people := randomPeople(r, 30)
		relations := randomRelations(r, 30)
		whoisSrc, err := NewOEMSource("whois"), error(nil)
		if err := whoisSrc.Add(people...); err != nil {
			t.Fatal(err)
		}
		csSrc := NewOEMSource("cs")
		if err = csSrc.Add(relations...); err != nil {
			t.Fatal(err)
		}
		xmlSrc, streamSrc := heteroSources(t, people)
		exports := map[string][]*oem.Object{
			"whois":  people,
			"cs":     relations,
			"xml":    xmlSrc.Export(),
			"stream": streamSrc.Export(),
		}
		local := []Source{csSrc, whoisSrc, xmlSrc, streamSrc}
		sourceSets := [][]Source{local, servedSources(t, local)}
		for si, spec := range specs {
			prog, err := ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := extfn.NewTable(extfn.NewRegistry(), prog.Decls)
			if err != nil {
				t.Fatal(err)
			}
			for qi, qText := range queries {
				q, err := ParseQuery(qText)
				if err != nil {
					t.Fatal(err)
				}
				// Skip queries that do not apply to this spec (empty
				// expansion is fine and still compared).
				expander := veao.NewExpander(prog, "med", ExpandOptions{})
				logical, err := expander.Expand(q)
				if err != nil {
					continue // unsupported combination (e.g. missing view)
				}
				want := canonicalize(referenceEval(t, logical, exports, tbl))
				for ssi, sources := range sourceSets {
					for vi, opts := range variants {
						o := opts
						med, err := New(Config{
							Name: "med", Spec: spec,
							Sources: sources,
							Plan:    &o,
							// Exhaustive expansion on one variant: the extra
							// rest-push rules must add no wrong answers.
							Expand: ExpandOptions{Exhaustive: vi == 1},
						})
						if err != nil {
							t.Fatal(err)
						}
						objs, err := med.Query(q)
						if err != nil {
							t.Fatalf("seed=%d sources=%d spec=%d query=%d variant=%d: %v", seed, ssi, si, qi, vi, err)
						}
						got := canonicalize(objs)
						if len(got) != len(want) {
							t.Fatalf("seed=%d sources=%d spec=%d query=%d variant=%d: %d objects, reference has %d\nquery: %s\ngot: %v\nwant: %v",
								seed, ssi, si, qi, vi, len(got), len(want), qText, got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("seed=%d sources=%d spec=%d query=%d variant=%d: result %d differs\nquery: %s\ngot:  %s\nwant: %s",
									seed, ssi, si, qi, vi, i, qText, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

var _ = wrapper.FullCapabilities // keep the import for future variants
