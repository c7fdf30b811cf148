package wrapper

import (
	"errors"
	"reflect"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

func whoisTops() []*oem.Object {
	return oem.MustParse(`
<&p1, person, set, {&n1, &d1, &rel1, &elm1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
  <&elm1, e_mail, string, 'chung@cs'>
<&p2, person, set, {&n2, &d2, &rel2, &y2}>
  <&n2, name, string, 'Nick Naive'>
  <&d2, dept, string, 'CS'>
  <&rel2, relation, string, 'student'>
  <&y2, year, integer, 3>
;`)
}

// TestEvalQw evaluates the paper's wrapper query Qw and checks the shape
// of the returned bind_for_whois objects (Section 3.1 step 1).
func TestEvalQw(t *testing.T) {
	q := msl.MustParseRule(`
	    <bind_for_whois {<bind_for_N N> <bind_for_R R> <bind_for_Rest1 Rest1>}> :-
	        <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois.`)
	got, err := Eval(q, whoisTops(), oem.NewIDGen("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Qw returned %d objects, want 2", len(got))
	}
	first := got[0]
	if first.Label != "bind_for_whois" {
		t.Fatalf("label %q", first.Label)
	}
	if v, _ := first.Sub("bind_for_N").AtomString(); v != "Joe Chung" {
		t.Fatalf("bind_for_N = %q", v)
	}
	if v, _ := first.Sub("bind_for_R").AtomString(); v != "employee" {
		t.Fatalf("bind_for_R = %q", v)
	}
	rest := first.Sub("bind_for_Rest1")
	if rest == nil || len(rest.Subobjects()) != 1 || rest.Subobjects()[0].Label != "e_mail" {
		t.Fatalf("bind_for_Rest1 = %s", oem.Format(rest))
	}
}

func TestEvalJoinAcrossConjuncts(t *testing.T) {
	tops := oem.MustParse(`
	    <emp, set, {<name, 'a'>, <boss, 'b'>}>
	    <emp, set, {<name, 'b'>, <boss, 'c'>}>
	    <emp, set, {<name, 'c'>, <boss, 'a'>}>`)
	// Who is the boss of a boss of 'a'? Join on B.
	q := msl.MustParseRule(`<answer BB> :-
	    <emp {<name 'a'> <boss B>}>@s AND <emp {<name B> <boss BB>}>@s.`)
	got, err := Eval(q, tops, oem.NewIDGen("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("join returned %d objects", len(got))
	}
	if v, _ := got[0].AtomString(); v != "c" {
		t.Fatalf("answer = %q", v)
	}
}

func TestEvalDuplicateElimination(t *testing.T) {
	// Two people in CS; projecting only the dept must give ONE result.
	q := msl.MustParseRule(`<dept_seen D> :- <person {<dept D>}>@whois.`)
	got, err := Eval(q, whoisTops(), oem.NewIDGen("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("duplicates not eliminated: %d objects", len(got))
	}
}

func TestEvalEmptyResult(t *testing.T) {
	q := msl.MustParseRule(`<out N> :- <person {<name N> <dept 'EE'>}>@whois.`)
	got, err := Eval(q, whoisTops(), oem.NewIDGen("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
}

func TestEvalRejectsPredicates(t *testing.T) {
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois AND decomp(N, L, F).`)
	if _, err := Eval(q, whoisTops(), oem.NewIDGen("x")); err == nil {
		t.Fatal("predicate conjunct evaluated at a source")
	}
}

func TestCheckCapabilities(t *testing.T) {
	full := FullCapabilities()
	none := Capabilities{}
	cases := []struct {
		src     string
		caps    Capabilities
		feature string // "" = allowed
	}{
		{`<out {X}> :- <person {X}>@s.`, none, ""},
		{`<out N> :- <person {<name N> <dept 'CS'>}>@s.`, none, "value conditions"},
		{`<out N> :- <person {<name N> <dept 'CS'>}>@s.`, full, ""},
		{`<out N> :- <person {<name N>} >@s, <emp {<name N>}>@s.`, Capabilities{}, "multi-pattern queries"},
		{`<out N> :- <person {<name N>}>@s, <emp {<name N>}>@s.`, full, ""},
		{`<out T> :- <%title T>@s.`, Capabilities{ValueConditions: true}, "wildcard patterns"},
		{`<out R> :- <person {| R:{<year 3>}}>@s.`, Capabilities{ValueConditions: true}, "rest-variable constraints"},
		{`<out R> :- <person {| R:{<year 3>}}>@s.`, full, ""},
		{`<out N> :- <person {<name N>}>@s AND lt(N, 3).`, full, "external predicates"},
		{`<out V> :- <&p1 person V>@s.`, none, "oid conditions"},
		{`<out V> :- <&p1 person V>@s.`, full, ""},
		{`<out T> :- <book {<%title T>}>@s.`, Capabilities{ValueConditions: true}, "wildcard patterns"},
		// A constant top-level label alone is not a "value condition".
		{`<out {X}> :- <person {X}>@s.`, none, ""},
	}
	for _, c := range cases {
		q := msl.MustParseRule(c.src)
		err := CheckCapabilities(q, c.caps, "s")
		if c.feature == "" {
			if err != nil {
				t.Errorf("%s with %+v: unexpected %v", c.src, c.caps, err)
			}
			continue
		}
		var ue *UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("%s with %+v: want UnsupportedError, got %v", c.src, c.caps, err)
			continue
		}
		if ue.Feature != c.feature {
			t.Errorf("%s: feature %q, want %q", c.src, ue.Feature, c.feature)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a := &fakeSource{name: "alpha"}
	b := &fakeSource{name: "beta"}
	r.Add(a, b)
	if got, ok := r.Lookup("alpha"); !ok || got != Source(a) {
		t.Fatal("Lookup alpha failed")
	}
	if _, ok := r.Lookup("gamma"); ok {
		t.Fatal("Lookup of absent source succeeded")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Names = %v", got)
	}
	// Replacement.
	a2 := &fakeSource{name: "alpha"}
	r.Add(a2)
	if got, _ := r.Lookup("alpha"); got != Source(a2) {
		t.Fatal("re-registration did not replace")
	}
}

type fakeSource struct {
	name    string
	queries []*msl.Rule
}

func (f *fakeSource) Name() string               { return f.name }
func (f *fakeSource) Capabilities() Capabilities { return FullCapabilities() }
func (f *fakeSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	f.queries = append(f.queries, q)
	return Eval(q, whoisTops(), oem.NewIDGen("f"))
}

func TestLimitedSource(t *testing.T) {
	inner := &fakeSource{name: "whois"}
	lim := &Limited{Inner: inner, Caps: Capabilities{MultiPattern: true}}
	if lim.Name() != "whois" {
		t.Fatal("Limited name")
	}
	// Condition query rejected without reaching the inner source.
	q := msl.MustParseRule(`<out N> :- <person {<name N> <dept 'CS'>}>@whois.`)
	_, err := lim.Query(q)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnsupportedError, got %v", err)
	}
	if len(inner.queries) != 0 {
		t.Fatal("rejected query still reached the inner source")
	}
	// Condition-free query passes through.
	free := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	got, err := lim.Query(free)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("limited source returned %d objects", len(got))
	}
	// A batch is checked query by query: one unsupported query rejects it
	// with its index before anything reaches the inner source, and a
	// supported batch is answered in order.
	_, err = lim.QueryBatch([]*msl.Rule{free, q})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Index != 1 || qe.Source != "whois" || !errors.As(err, &ue) {
		t.Fatalf("batch with an unsupported second query: %v, want *QueryError index 1 over an UnsupportedError", err)
	}
	if len(inner.queries) != 1 {
		t.Fatalf("the inner source saw %d queries after a rejected batch, want the 1 before it", len(inner.queries))
	}
	answers, err := lim.QueryBatch([]*msl.Rule{free, free})
	if err != nil || len(answers) != 2 || len(answers[0]) != 2 || len(answers[1]) != 2 {
		t.Fatalf("supported batch: %d answers, %v", len(answers), err)
	}
}

func TestEvalObjVar(t *testing.T) {
	q := msl.MustParseRule(`P :- P:<person {<dept 'CS'>}>@whois.`)
	got, err := Eval(q, whoisTops(), oem.NewIDGen("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("objvar query returned %d objects", len(got))
	}
	for _, o := range got {
		if o.Label != "person" {
			t.Fatalf("materialized %q", o.Label)
		}
	}
}
