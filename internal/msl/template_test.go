package msl_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"medmaker"
	"medmaker/internal/engine"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// corpusSpecs and corpusQueries are the differential corpus
// (differential_test.go at the module root): the views and queries whose
// plans the answer-identity suites run.
var corpusSpecs = []string{
	`<cs_person {<name N> <relation R> Rest1 Rest2}> :-
	    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
	    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
	    AND decomp(N, LN, FN).
	decomp(bound, free, free) by name_to_lnfn.
	decomp(free, bound, bound) by lnfn_to_name.`,
	`<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
	`<linked {<rel R> <fn FN>}> :- <person {<relation R>}>@whois AND <R {<first_name FN>}>@cs.`,
	`<senior {<name N> <year Y>}> :- <person {<name N> <year Y>}>@whois AND ge(Y, 3).`,
	`<anyone {<who N>}> :- <person {<name N>}>@whois.
	 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
	`<lonely {<name N>}> :-
	    <person {<name N> <relation R>}>@whois
	    AND NOT <R {<first_name FN>}>@cs.`,
	`<nomail {<name N>}> :- <person {<name N> | R}>@whois AND lacks(R, 'e_mail').
	 <mail {<name N>}> :- <person {<name N> | R}>@whois AND has(R, 'e_mail').`,
	`<profile {<name N> | R}> :- <person {<name N> | R}>@xml.`,
	`<anyone {<who N>}> :- <person {<name N>}>@stream.
	 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
}

var corpusQueries = []string{
	`X :- X:<cs_person {<name 'P004 Q004'>}>@med.`,
	`X :- X:<cs_person {<year 3>}>@med.`,
	`X :- X:<profile {<name N>}>@med.`,
	`X :- X:<profile {<e_mail E>}>@med.`,
	`<pair R FN> :- <linked {<rel R> <fn FN>}>@med.`,
	`X :- X:<senior {<year 5>}>@med.`,
	`X :- X:<anyone {<who W>}>@med.`,
	`X :- X:<lonely {<name N>}>@med.`,
	`X :- X:<nomail {<name N>}>@med.`,
	// The full-view scan: one parameterized cs probe per person.
	`P :- P:<cs_person {<name N>}>@med.`,
}

// corpusSends plans every corpus query under every plan variant and
// returns the distinct parameterized Send rules with their slot
// variables.
func corpusSends(t *testing.T) []*engine.QueryNode {
	t.Helper()
	person := func(name, rel string) *oem.Object {
		return oem.NewSet("", "person", oem.New("", "name", name), oem.New("", "dept", "CS"),
			oem.New("", "relation", rel), oem.New("", "year", 3))
	}
	newSrc := func(name string, objs ...*oem.Object) medmaker.Source {
		src := medmaker.NewOEMSource(name)
		if err := src.Add(objs...); err != nil {
			t.Fatal(err)
		}
		return src
	}
	people := func() []*oem.Object {
		return []*oem.Object{person("P001 Q001", "employee"), person("P002 Q002", "student")}
	}
	sources := []medmaker.Source{
		newSrc("whois", people()...),
		newSrc("xml", people()...),
		newSrc("stream", people()...),
		newSrc("cs",
			oem.NewSet("", "employee", oem.New("", "first_name", "P001"), oem.New("", "last_name", "Q001")),
			oem.NewSet("", "student", oem.New("", "first_name", "P002"), oem.New("", "last_name", "Q002"),
				oem.New("", "year", 2))),
	}
	variants := []medmaker.PlanOptions{
		{Order: medmaker.OrderHeuristic, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: medmaker.OrderReversed, PushConditions: true, Parameterize: true, DupElim: true},
		{Order: medmaker.OrderAsWritten, PushConditions: true, Parameterize: true, DupElim: true},
	}
	seen := map[string]bool{}
	var out []*engine.QueryNode
	var walk func(n engine.Node)
	walk = func(n engine.Node) {
		if qn, ok := n.(*engine.QueryNode); ok && len(qn.ParamVars) > 0 {
			key := qn.Send.String() + strings.Join(qn.ParamVars, ",")
			if !seen[key] {
				seen[key] = true
				out = append(out, qn)
			}
		}
		for _, k := range n.Kids() {
			walk(k)
		}
	}
	for _, spec := range corpusSpecs {
		for _, opts := range variants {
			o := opts
			med, err := medmaker.New(medmaker.Config{Name: "med", Spec: spec, Sources: sources, Plan: &o})
			if err != nil {
				t.Fatal(err)
			}
			for _, qText := range corpusQueries {
				p, _, err := med.Plan(msl.MustParseRule(qText))
				if err != nil {
					continue // the query names a view this spec lacks
				}
				walk(p.Root)
			}
		}
	}
	if len(out) < 3 {
		t.Fatalf("the corpus planned only %d parameterized templates", len(out))
	}
	return out
}

// randomAtom draws a value from the atoms that stress printing and
// equality: quotes, backslashes and key delimiters in strings, negative
// integers, signed zeros, infinities and NaN, booleans and bytes.
func randomAtom(r *rand.Rand) oem.Value {
	switch r.Intn(6) {
	case 0:
		parts := []string{"x", "'", `\`, ";", "=", "B=s:y", " ", "Joe", ""}
		var sb strings.Builder
		for i := r.Intn(4); i >= 0; i-- {
			sb.WriteString(parts[r.Intn(len(parts))])
		}
		return oem.String(sb.String())
	case 1:
		return oem.Int(r.Int63n(2000) - 1000)
	case 2:
		fs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, 3, -2.5, 1e300}
		return oem.Float(fs[r.Intn(len(fs))])
	case 3:
		return oem.Bool(r.Intn(2) == 0)
	case 4:
		b := make([]byte, r.Intn(4))
		r.Read(b)
		return oem.Bytes(b)
	}
	return oem.String("employee")
}

// TestTemplateBindMatchesBindVars is the property that licenses the
// template: for every parameterized Send rule the corpus plans, over the
// planner's slots and over every variable of the rule (rest and object
// variables included), and for random tuples with absent slots, Bind
// prints byte-identically to the reference BindVars — or both fail.
func TestTemplateBindMatchesBindVars(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, qn := range corpusSends(t) {
		for _, slots := range [][]string{qn.ParamVars, qn.Send.Vars()} {
			tmpl, err := msl.Compile(qn.Send, slots)
			if err != nil {
				t.Fatal(err)
			}
			before := tmpl.Text()
			for i := 0; i < 1000; i++ {
				tuple := make([]oem.Value, len(slots))
				vals := map[string]oem.Value{}
				for s, name := range slots {
					if r.Intn(3) == 0 {
						continue // absent: the variable stays free
					}
					tuple[s] = randomAtom(r)
					if r.Intn(2) == 0 {
						tuple[s] = oem.String(slots[r.Intn(len(slots))]) // label-safe
					}
					vals[name] = tuple[s]
				}
				got, gerr := tmpl.Bind(tuple)
				want, werr := msl.BindVars(qn.Send, vals)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("%s with %v: Bind error %v, BindVars error %v", before, vals, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if got.String() != want.String() {
					t.Fatalf("%s with %v:\nBind     %s\nBindVars %s", before, vals, got, want)
				}
				if origin, tup, ok := got.Origin(); !ok || origin != tmpl || len(tup) != len(tuple) {
					t.Fatalf("bound rule lost its origin")
				}
			}
			// Shared subtrees were never written.
			if tmpl.Text() != before || tmpl.Rule().String() != before || qn.Send.String() != before {
				t.Fatalf("1000 binds changed the template:\nbefore %s\nafter  %s", before, tmpl.Rule())
			}
		}
	}
}

// TestTemplateBindSharesUnboundSubtrees checks what Bind copies: the
// path to each bound slot, and nothing that holds no bound slot.
func TestTemplateBindSharesUnboundSubtrees(t *testing.T) {
	r := msl.MustParseRule(`O :- O:<R {<last_name LN> <first_name FN>}>@cs AND <t {<a X>}>@s.`)
	tmpl, err := msl.Compile(r, []string{"LN", "X"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tmpl.Bind([]oem.Value{oem.String("Chung"), nil})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tail[1] != r.Tail[1] {
		t.Error("conjunct without a bound slot was copied")
	}
	if got.Tail[0] == r.Tail[0] {
		t.Error("conjunct with a bound slot was shared")
	}
	gotSet := got.Tail[0].(*msl.PatternConjunct).Pattern.Value.(*msl.SetPattern)
	wantSet := r.Tail[0].(*msl.PatternConjunct).Pattern.Value.(*msl.SetPattern)
	if gotSet.Elems[1] != wantSet.Elems[1] {
		t.Error("set element without a bound slot was copied")
	}
	if want := `O :- O:<R {<last_name 'Chung'> <first_name FN>}>@cs AND <t {<a X>}>@s.`; got.String() != want {
		t.Errorf("bound %s, want %s", got, want)
	}
	if tmpl.String() != `O :- O:<R {<last_name $LN> <first_name FN>}>@cs AND <t {<a $X>}>@s.` {
		t.Errorf("template renders %s", tmpl)
	}
	// A struct copy of a bound rule, which may then be edited, does not
	// carry the origin.
	cp := *got
	if _, _, ok := cp.Origin(); ok {
		t.Error("a copied rule kept its origin")
	}
	if _, err := tmpl.Bind([]oem.Value{nil}); err == nil {
		t.Error("a short tuple was accepted")
	}
	if _, err := msl.Compile(r, []string{"LN", "LN"}); err == nil {
		t.Error("a duplicate slot was accepted")
	}
}

// The cs probe of the MS1 full-view scan, as the planner sends it.
const csProbe = `_O :- _O:<R_0_1 {<first_name FN_0_1> <last_name LN_0_1> | Rest2_0_1}>@cs.`

var csSlots = []string{"FN_0_1", "LN_0_1", "R_0_1"}

// BenchmarkProbeBind compares instantiating one cs probe by the reference
// clone-and-substitute (BindVars) with a compiled template's Bind, and
// prices the text round trip a probe used to make over the wire.
func BenchmarkProbeBind(b *testing.B) {
	rule := msl.MustParseRule(csProbe)
	tuple := []oem.Value{oem.String("Joe"), oem.String("Chung"), oem.String("employee")}
	vals := map[string]oem.Value{"FN_0_1": tuple[0], "LN_0_1": tuple[1], "R_0_1": tuple[2]}
	b.Run("BindVars", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := msl.BindVars(rule, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	tmpl, err := msl.Compile(rule, csSlots)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Template.Bind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tmpl.Bind(tuple); err != nil {
				b.Fatal(err)
			}
		}
	})
	bound, _ := tmpl.Bind(tuple)
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bound.String()
		}
	})
	text := bound.String()
	b.Run("ParseQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := msl.ParseQuery(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
