package medmaker

import (
	"strings"
	"testing"

	"medmaker/internal/oem"
)

// TestDifferenceView: people in whois with no matching row in cs — the
// set-difference view negation enables.
func TestDifferenceView(t *testing.T) {
	cs, _ := newPaperSources(t)
	store := NewRecordStore()
	store.MustAdd(
		Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: "Joe Chung"}, {Name: "dept", Value: "CS"},
		}},
		Record{Kind: "person", Fields: []RecordField{
			{Name: "name", Value: "Wanda Whoisonly"}, {Name: "dept", Value: "CS"},
		}},
	)
	med, err := New(Config{
		Name: "med",
		Spec: `
		<unregistered {<name N>}> :-
		    <person {<name N> <dept 'CS'>}>@whois
		    AND decomp(N, LN, FN)
		    AND NOT <employee {<last_name LN> <first_name FN>}>@cs
		    AND NOT <student {<last_name LN> <first_name FN>}>@cs.
		decomp(bound, free, free) by name_to_lnfn.`,
		Sources: []Source{cs, NewRecordWrapper("whois", store)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := med.QueryString(`X :- X:<unregistered {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	// Joe is an employee in cs; only Wanda is unregistered.
	if len(got) != 1 {
		t.Fatalf("difference view has %d objects:\n%s", len(got), oem.Format(got...))
	}
	if v, _ := got[0].Sub("name").AtomString(); v != "Wanda Whoisonly" {
		t.Fatalf("found %q", v)
	}
}

// TestNegationPlanShape: the anti node runs after the positives and shows
// in the explain output.
func TestNegationPlanShape(t *testing.T) {
	cs, whois := newPaperSources(t)
	med, err := New(Config{
		Name: "med",
		Spec: `<lonely {<name N>}> :-
		    <person {<name N>}>@whois AND NOT <employee {<title T>}>@cs.`,
		Sources: []Source{cs, whois},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := med.Explain(`X :- X:<lonely {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "anti-param-query(cs)") && !strings.Contains(out, "anti-query(cs)") {
		t.Fatalf("anti node missing from plan:\n%s", out)
	}
	if !strings.Contains(out, "NOT <employee") {
		t.Fatalf("negation lost in logical program:\n%s", out)
	}
}

// TestNegationSharedVariables: the negated pattern joins on variables
// bound by the positive part.
func TestNegationSharedVariables(t *testing.T) {
	people, err := NewOEMSourceFromText("people", `
	    <person, set, {<name, 'a'>, <dept, 'CS'>}>
	    <person, set, {<name, 'b'>, <dept, 'EE'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	banned, err := NewOEMSourceFromText("banned", `
	    <ban, set, {<dept, 'EE'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		Name: "med",
		Spec: `<ok {<name N>}> :-
		    <person {<name N> <dept D>}>@people AND NOT <ban {<dept D>}>@banned.`,
		Sources: []Source{people, banned},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := med.QueryString(`X :- X:<ok {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d objects:\n%s", len(got), oem.Format(got...))
	}
	if v, _ := got[0].Sub("name").AtomString(); v != "a" {
		t.Fatalf("kept %q", v)
	}
}

// TestNegatedViewCondition: negation over the mediator's own view goes
// through the materialized-view strategy.
func TestNegatedViewCondition(t *testing.T) {
	med := newMed(t, nil) // the paper's med over cs/whois
	// Raw whois persons with no cs_person view object of the same name:
	// nobody, since both Joe and Nick appear in the view.
	got, err := med.QueryString(`P :-
	    P:<person {<name N>}>@whois AND NOT <cs_person {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty difference, got %d:\n%s", len(got), oem.Format(got...))
	}
	// Flip it: persons whose view object lacks an e_mail... via negation
	// on a condition pattern.
	got2, err := med.QueryString(`<nomail N> :-
	    <person {<name N>}>@whois AND NOT <cs_person {<name N> <e_mail E>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 {
		t.Fatalf("nomail: %d objects:\n%s", len(got2), oem.Format(got2...))
	}
	if v, _ := got2[0].AtomString(); v != "Nick Naive" {
		t.Fatalf("nomail found %q", v)
	}
}

// TestExplainNegatedViewCondition: Explain takes the same strategy as
// Query, so a query Query answers through the materialized view also
// explains: the note, the plan fetching the view, and the query's plan
// scanning it.
func TestExplainNegatedViewCondition(t *testing.T) {
	med := newMed(t, nil)
	const q = `P :- P:<person {<name N>}>@whois AND NOT <cs_person {<name N>}>@med.`
	if _, err := med.QueryString(q); err != nil {
		t.Fatal(err)
	}
	out, err := med.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-- note:",
		"param-query(cs)",                // the fetch plan
		"@_fusedview",                    // the rewritten query
		"anti-param-matscan(_fusedview)", // its plan over the view
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestLacksBuiltin: "people without an e_mail" via the structural
// builtin over a rest variable — negation of subobject existence within
// one object.
func TestLacksBuiltin(t *testing.T) {
	_, whois := newPaperSources(t)
	med, err := New(Config{
		Name: "med",
		Spec: `<nomail {<name N>}> :-
		    <person {<name N> | R}>@whois AND lacks(R, 'e_mail').`,
		Sources: []Source{whois},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := med.QueryString(`X :- X:<nomail {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("nomail view: %d objects:\n%s", len(got), oem.Format(got...))
	}
	if v, _ := got[0].Sub("name").AtomString(); v != "Nick Naive" {
		t.Fatalf("found %q", v)
	}
	// has() is the positive form.
	med2, err := New(Config{
		Name: "med",
		Spec: `<mail {<name N>}> :-
		    <person {<name N> | R}>@whois AND has(R, 'e_mail').`,
		Sources: []Source{whois},
	})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := med2.QueryString(`X :- X:<mail {<name N>}>@med.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 {
		t.Fatalf("mail view: %d objects", len(got2))
	}
}

// TestNegationParseErrors covers the parser restrictions.
func TestNegationParseErrors(t *testing.T) {
	bad := []string{
		`<a {X}> :- NOT lt(X, 3).`,      // negated predicate
		`<a {X}> :- NOT V:<p {X}>@s.`,   // objvar on negated
		`<a {X}> :- NOT NOT <p {X}>@s.`, // double negation
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", src)
		}
	}
	// Printing round-trips.
	r, err := ParseQuery(`<a {X}> :- <p {X}>@s AND NOT <q {X}>@s.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "NOT <q {X}>@s") {
		t.Fatalf("printer lost negation: %s", r)
	}
	if _, err := ParseQuery(r.String()); err != nil {
		t.Fatalf("negation round trip: %v", err)
	}
}

// TestUnsafeNegatedSpec: head variables bound only in negated conjuncts
// are rejected.
func TestUnsafeNegatedSpec(t *testing.T) {
	_, whois := newPaperSources(t)
	_, err := New(Config{
		Name: "m",
		Spec: `<out {<name N> <bad B>}> :-
		    <person {<name N>}>@whois AND NOT <x {<b B>}>@whois.`,
		Sources: []Source{whois},
	})
	if err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe negated spec: %v", err)
	}
}
