package msl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"medmaker/internal/oem"
)

func TestParams(t *testing.T) {
	r := MustParseRule(`<bind_for_Rest2 Rest2> :-
	    <$R {<last_name $LN> <first_name $FN> | Rest2}>@cs AND p($Z, X).`)
	want := []string{"FN", "LN", "R", "Z"}
	if got := Params(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("Params = %v, want %v", got, want)
	}
	noParams := MustParseRule(`<a {X}> :- <b {X}>@s.`)
	if got := Params(noParams); len(got) != 0 {
		t.Fatalf("Params on param-free rule: %v", got)
	}
}

// TestSubstituteParamsQcs turns the paper's Qcs template into Qc2.
func TestSubstituteParamsQcs(t *testing.T) {
	template := MustParseRule(`<bind_for_Rest2 Rest2> :-
	    <$R {<last_name $LN> <first_name $FN> | Rest2}>@cs.`)
	qc2, err := SubstituteParams(template, map[string]oem.Value{
		"R":  oem.String("employee"),
		"LN": oem.String("Chung"),
		"FN": oem.String("Joe"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MustParseRule(`<bind_for_Rest2 Rest2> :-
	    <employee {<last_name 'Chung'> <first_name 'Joe'> | Rest2}>@cs.`)
	if qc2.String() != want.String() {
		t.Fatalf("Qc2 = %s\nwant  %s", qc2, want)
	}
	// The template is untouched.
	if !strings.Contains(template.String(), "$R") {
		t.Fatal("SubstituteParams mutated the template")
	}
}

func TestSubstituteParamsErrors(t *testing.T) {
	template := MustParseRule(`<out X> :- <$R {<a X>}>@s.`)
	if _, err := SubstituteParams(template, nil); err == nil {
		t.Fatal("missing parameter accepted")
	}
	// A non-string value in label position is rejected.
	if _, err := SubstituteParams(template, map[string]oem.Value{"R": oem.Int(3)}); err == nil {
		t.Fatal("integer label parameter accepted")
	}
	// Unused values are fine.
	if _, err := SubstituteParams(template, map[string]oem.Value{
		"R": oem.String("t"), "Unused": oem.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstituteParamsInPredicatesAndHead(t *testing.T) {
	r := MustParseRule(`<out {<v $P>}> :- <t {<a X>}>@s AND lt(X, $P).`)
	got, err := SubstituteParams(r, map[string]oem.Value{"P": oem.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	s := got.String()
	if strings.Contains(s, "$P") || !strings.Contains(s, "lt(X, 7)") || !strings.Contains(s, "<v 7>") {
		t.Fatalf("substitution incomplete: %s", s)
	}
}

func TestBindVars(t *testing.T) {
	r := MustParseRule(`O :- O:<R {<last_name LN> <first_name FN> | Rest2}>@cs.`)
	s := bindBoth(t, r, map[string]oem.Value{
		"R":  oem.String("employee"),
		"LN": oem.String("Chung"),
	})
	if !strings.Contains(s, "<employee {") {
		t.Fatalf("label variable not bound: %s", s)
	}
	if !strings.Contains(s, "<last_name 'Chung'>") {
		t.Fatalf("value variable not bound: %s", s)
	}
	if !strings.Contains(s, "<first_name FN>") {
		t.Fatalf("unbound variable should stay free: %s", s)
	}
	// Rest variables and object variables are never bound to constants.
	if !strings.Contains(s, "| Rest2") {
		t.Fatalf("rest variable disturbed: %s", s)
	}
	if !strings.HasPrefix(s, "O :- O:") {
		t.Fatalf("object variable disturbed: %s", s)
	}
	// The original is untouched.
	if !strings.Contains(r.String(), "<R {") {
		t.Fatal("binding mutated the input rule")
	}
}

func TestBindVarsRestNameCollision(t *testing.T) {
	// A value supplied under a rest variable's name must not turn the
	// rest into a constant.
	r := MustParseRule(`<out {| R}> :- <t {<a X> | R}>@s.`)
	got := bindBoth(t, r, map[string]oem.Value{"R": oem.String("boom"), "X": oem.Int(1)})
	if !strings.Contains(got, "| R") {
		t.Fatalf("rest variable replaced: %s", got)
	}
	if !strings.Contains(got, "<a 1>") {
		t.Fatalf("ordinary variable not replaced: %s", got)
	}
}

func TestBindVarsInRestConstraints(t *testing.T) {
	r := MustParseRule(`<out {| R}> :- <t {| R:{<year Y>}}>@s.`)
	got := bindBoth(t, r, map[string]oem.Value{"Y": oem.Int(3)})
	if !strings.Contains(got, "R:{<year 3>}") {
		t.Fatalf("constraint variable not bound: %s", got)
	}
}

// bindBoth instantiates r for vals through BindVars and through a
// Template over the same variables, fails unless both print alike, and
// returns the text.
func bindBoth(t *testing.T, r *Rule, vals map[string]oem.Value) string {
	t.Helper()
	want, err := BindVars(r, vals)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]string, 0, len(vals))
	tuple := make([]oem.Value, 0, len(vals))
	for _, name := range r.Vars() {
		if v, ok := vals[name]; ok {
			slots = append(slots, name)
			tuple = append(tuple, v)
		}
	}
	tmpl, err := Compile(r, slots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tmpl.Bind(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Template.Bind = %s\nBindVars      = %s", got, want)
	}
	return got.String()
}

// The reference instantiation the datamerge engine used before
// templates: clone the rule, mark the chosen variables as parameters,
// substitute. Template.Bind must print identically (TestBindVars and the
// property test in template_test.go hold it to that).

// SubstituteParams returns a copy of the rule with every $parameter
// replaced by the corresponding constant — the step that turns a
// parameterized query template (the paper's Qcs) into a concrete query
// (Qc1, Qc2) for one tuple of the datamerge engine's input table. Missing
// parameters are an error; unused values are ignored.
func SubstituteParams(r *Rule, vals map[string]oem.Value) (*Rule, error) {
	s := &paramSubst{vals: vals}
	out := &Rule{}
	for _, h := range r.Head {
		switch t := h.(type) {
		case *Var:
			out.Head = append(out.Head, t)
		case *ObjectPattern:
			p, err := s.term(t)
			if err != nil {
				return nil, err
			}
			out.Head = append(out.Head, p.(*ObjectPattern))
		}
	}
	for _, c := range r.Tail {
		nc, err := s.conjunct(c)
		if err != nil {
			return nil, err
		}
		out.Tail = append(out.Tail, nc)
	}
	return out, nil
}

// BindVars returns a copy of the rule with every variable named in vals
// replaced by the corresponding constant. The datamerge engine uses this
// to instantiate a parameterized query from one input tuple: variables the
// current row binds to atomic values become constants, and the rest stay
// free. Variables in label positions must be bound to strings.
func BindVars(r *Rule, vals map[string]oem.Value) (*Rule, error) {
	// Reuse the parameter machinery: rewrite the chosen variables to
	// parameters, then substitute.
	marked := r.RenameVars(func(s string) string { return s })
	rewriteVarsToParams(marked, vals)
	return SubstituteParams(marked, vals)
}

func rewriteVarsToParams(r *Rule, vals map[string]oem.Value) {
	var walkTerm func(t Term) Term
	walkTerm = func(t Term) Term {
		switch x := t.(type) {
		case *Var:
			if _, ok := vals[x.Name]; ok {
				return &Param{Name: x.Name}
			}
			return x
		case *Skolem:
			for i, a := range x.Args {
				x.Args[i] = walkTerm(a)
			}
		case *SetPattern:
			for i, e := range x.Elems {
				x.Elems[i] = walkTerm(e)
			}
			// Rest variables bind sets, never parameter constants.
			for i, c := range x.RestConstraints {
				x.RestConstraints[i] = walkTerm(c).(*ObjectPattern)
			}
		case *ObjectPattern:
			if x.OID != nil {
				x.OID = walkTerm(x.OID)
			}
			x.Label = walkTerm(x.Label)
			if x.Value != nil {
				x.Value = walkTerm(x.Value)
			}
		}
		return t
	}
	for i, h := range r.Head {
		if p, ok := h.(*ObjectPattern); ok {
			r.Head[i] = walkTerm(p).(*ObjectPattern)
		}
	}
	for _, c := range r.Tail {
		switch t := c.(type) {
		case *PatternConjunct:
			t.Pattern = walkTerm(t.Pattern).(*ObjectPattern)
		case *PredicateConjunct:
			for i, a := range t.Args {
				t.Args[i] = walkTerm(a)
			}
		}
	}
}

type paramSubst struct {
	vals map[string]oem.Value
}

func (s *paramSubst) lookup(name string) (Term, error) {
	v, ok := s.vals[name]
	if !ok {
		return nil, fmt.Errorf("msl: no value supplied for parameter $%s", name)
	}
	return &Const{Value: v}, nil
}

func (s *paramSubst) conjunct(c Conjunct) (Conjunct, error) {
	switch t := c.(type) {
	case *PatternConjunct:
		p, err := s.term(t.Pattern)
		if err != nil {
			return nil, err
		}
		return &PatternConjunct{ObjVar: t.ObjVar, Pattern: p.(*ObjectPattern), Source: t.Source}, nil
	case *PredicateConjunct:
		out := &PredicateConjunct{Name: t.Name, Args: make([]Term, len(t.Args))}
		for i, a := range t.Args {
			na, err := s.term(a)
			if err != nil {
				return nil, err
			}
			out.Args[i] = na
		}
		return out, nil
	}
	return c, nil
}

func (s *paramSubst) term(t Term) (Term, error) {
	switch x := t.(type) {
	case nil:
		return nil, nil
	case *Param:
		return s.lookup(x.Name)
	case *Var, *Const:
		return x, nil
	case *Skolem:
		out := &Skolem{Functor: x.Functor, Args: make([]Term, len(x.Args))}
		for i, a := range x.Args {
			na, err := s.term(a)
			if err != nil {
				return nil, err
			}
			out.Args[i] = na
		}
		return out, nil
	case *SetPattern:
		out := &SetPattern{Rest: x.Rest}
		for _, e := range x.Elems {
			ne, err := s.term(e)
			if err != nil {
				return nil, err
			}
			out.Elems = append(out.Elems, ne)
		}
		for _, c := range x.RestConstraints {
			nc, err := s.term(c)
			if err != nil {
				return nil, err
			}
			out.RestConstraints = append(out.RestConstraints, nc.(*ObjectPattern))
		}
		return out, nil
	case *ObjectPattern:
		out := &ObjectPattern{Wildcard: x.Wildcard, Type: x.Type}
		var err error
		if x.OID != nil {
			if out.OID, err = s.term(x.OID); err != nil {
				return nil, err
			}
		}
		if out.Label, err = s.term(x.Label); err != nil {
			return nil, err
		}
		if lc, ok := out.Label.(*Const); ok {
			if _, isStr := lc.Value.(oem.String); !isStr {
				return nil, fmt.Errorf("msl: parameter in label position must be a string, got %s", lc.Value)
			}
		}
		if x.Value != nil {
			if out.Value, err = s.term(x.Value); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("msl: unsupported term %T in parameter substitution", t)
}
