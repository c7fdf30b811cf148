package veao

import (
	"strings"
	"testing"

	"medmaker/internal/msl"
)

// expandOne is a helper expanding a query against a one-rule spec.
func expandOne(t *testing.T, spec, query string) (*Program, error) {
	t.Helper()
	prog, err := msl.ParseProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	q, err := msl.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return NewExpander(prog, "med", Options{}).Expand(q)
}

func mustExpand(t *testing.T, spec, query string) *Program {
	t.Helper()
	p, err := expandOne(t, spec, query)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnifyAtomicHeadForms(t *testing.T) {
	spec := `<status {<code 200> <msg M>}> :- <log {<msg M>}>@src.`
	// Constant condition against a constant head element.
	if p := mustExpand(t, spec, `X :- X:<status {<code 200>}>@med.`); len(p.Rules) != 1 {
		t.Fatalf("matching constant: %s", p)
	}
	if p := mustExpand(t, spec, `X :- X:<status {<code 404>}>@med.`); len(p.Rules) != 0 {
		t.Fatalf("mismatching constant produced rules: %s", p)
	}
	// Variable condition binds to the head constant.
	p := mustExpand(t, spec, `<out C> :- <status {<code C>}>@med.`)
	if len(p.Rules) != 1 || !strings.Contains(p.Rules[0].String(), "<out 200>") {
		t.Fatalf("variable against constant head: %s", p)
	}
	// A set condition never matches an atomic head element.
	if p := mustExpand(t, spec, `X :- X:<status {<code {<x 1>}>}>@med.`); len(p.Rules) != 0 {
		t.Fatalf("set against atomic head produced rules: %s", p)
	}
	// An atomic condition never matches a set-valued head element.
	spec2 := `<rec {<kids {<a A>}>}> :- <src {<a A>}>@s.`
	if p := mustExpand(t, spec2, `X :- X:<rec {<kids 3>}>@med.`); len(p.Rules) != 0 {
		t.Fatalf("atom against set head produced rules: %s", p)
	}
}

func TestUnifyValueVariableAgainstForms(t *testing.T) {
	// Head with no value field: the view objects carry empty sets.
	spec := `<marker> :- <src {<a A>}>@s.`
	p := mustExpand(t, spec, `<out V> :- <marker V>@med.`)
	if len(p.Rules) != 1 {
		t.Fatalf("value var against empty head: %s", p)
	}
	if !strings.Contains(p.Rules[0].String(), "<out {}>") {
		t.Fatalf("V should be defined as the empty set: %s", p)
	}
	// Value variable against a set-pattern head: defined as the set.
	spec2 := `<rec {<a A> <b B>}> :- <src {<a A> <b B>}>@s.`
	p2 := mustExpand(t, spec2, `<out V> :- <rec V>@med.`)
	if len(p2.Rules) != 1 || !strings.Contains(p2.Rules[0].String(), "<out {<a A") {
		t.Fatalf("value var against set head: %s", p2)
	}
}

func TestUnifyLabelVariableQuery(t *testing.T) {
	spec := `<temp {<c C>}> :- <r {<c C>}>@s.
	         <wind {<w W>}> :- <r {<w W>}>@s.`
	p := mustExpand(t, spec, `<seen L> :- <L {}>@med.`)
	// The label variable matches both rule heads.
	if len(p.Rules) != 2 {
		t.Fatalf("label variable matched %d rules:\n%s", len(p.Rules), p)
	}
	s := p.String()
	if !strings.Contains(s, "<seen 'temp'>") && !strings.Contains(s, "<seen temp>") {
		t.Fatalf("label binding lost:\n%s", s)
	}
}

func TestCheckTypeAgainstTypedVarHead(t *testing.T) {
	// The head declares its variable's type: a matching type condition is
	// accepted, a mismatching one rejected.
	spec := `<rec {<year integer Y>}> :- <src {<year Y>}>@s.`
	if _, err := expandOne(t, spec, `X :- X:<rec {<year integer V>}>@med.`); err != nil {
		t.Fatalf("matching type condition rejected: %v", err)
	}
	p := mustExpand(t, spec, `X :- X:<rec {<year string V>}>@med.`)
	// The type mismatch rules out the pairing with the explicit element;
	// with no rest/set variables to push into, no rules result.
	if len(p.Rules) != 0 {
		t.Fatalf("mismatching type produced rules: %s", p)
	}
}

func TestProgramString(t *testing.T) {
	p := mustExpand(t, `<a {X}> :- <b {X}>@s. p(bound) by lower.`, `Q :- Q:<a {Y}>@med.`)
	s := p.String()
	if !strings.Contains(s, "@s") || !strings.Contains(s, "p(bound) by lower.") {
		t.Fatalf("Program.String: %s", s)
	}
}

func TestRestConstraintInQueryAgainstView(t *testing.T) {
	// A query rest-constraint is treated as a pushable condition.
	spec := `<prof {<name N> | R}> :- <person {<name N> | R}>@hr.`
	p := mustExpand(t, spec, `X :- X:<prof {<name N> | Q:{<year 3>}}>@med.`)
	if len(p.Rules) != 1 {
		t.Fatalf("rest-constraint query: %d rules\n%s", len(p.Rules), p)
	}
	if !strings.Contains(p.Rules[0].String(), "<year 3>") {
		t.Fatalf("constraint lost:\n%s", p)
	}
}

func TestObjVarConditionAndOtherConjunct(t *testing.T) {
	// The expanded conjunct's object variable is defined; a second,
	// pass-through conjunct keeps its own object variable.
	spec := `<v {<a A>}> :- <s {<a A>}>@s1.`
	p := mustExpand(t, spec, `X Y :- X:<v {<a A>}>@med AND Y:<t {<b A>}>@s2.`)
	if len(p.Rules) != 1 {
		t.Fatalf("rules: %s", p)
	}
	r := p.Rules[0]
	if len(r.Head) != 2 {
		t.Fatalf("head terms: %v", r.Head)
	}
	if _, ok := r.Head[0].(*msl.ObjectPattern); !ok {
		t.Fatalf("X should be defined: %v", r.Head[0])
	}
	if v, ok := r.Head[1].(*msl.Var); !ok || !strings.HasSuffix(v.Name, "_q") {
		t.Fatalf("Y should remain a variable: %v", r.Head[1])
	}
}

func TestExpandErrorsSurfaceInsideSets(t *testing.T) {
	spec := `<v {<a A>}> :- <s {<a A>}>@s1.`
	// Unsubstituted parameter inside a query against the view.
	if _, err := expandOne(t, spec, `X :- X:<v {<a $P>}>@med.`); err == nil {
		t.Fatal("parameter in query value accepted")
	}
}

func TestNegatedMediatorConditionRejected(t *testing.T) {
	spec := `<v {<a A>}> :- <s {<a A>}>@s1.`
	if _, err := expandOne(t, spec, `<out X> :- <s {<a X>}>@s1 AND NOT <v {<a X>}>@med.`); err == nil {
		t.Fatal("negated mediator condition expanded (should be routed to materialization by the caller)")
	}
	// Negated source conditions pass through expansion untouched.
	p := mustExpand(t, spec, `X :- X:<v {<a A>}>@med AND NOT <t {<a A>}>@s2.`)
	if len(p.Rules) != 1 {
		t.Fatalf("rules: %s", p)
	}
	found := false
	for _, c := range p.Rules[0].Tail {
		if pc, ok := c.(*msl.PatternConjunct); ok && pc.Negated && pc.Source == "s2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("negated pass-through lost:\n%s", p)
	}
}

func TestMaxDepthDefault(t *testing.T) {
	e := NewExpander(&msl.Program{}, "med", Options{})
	if e.opts.MaxDepth != 32 {
		t.Fatalf("default MaxDepth = %d", e.opts.MaxDepth)
	}
}
