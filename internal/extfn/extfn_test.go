package extfn

import (
	"errors"
	"testing"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

const decompDecls = `
decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
decomp(bound, bound, bound) by check3.
`

// check3 adapts check_name_lnfn to the all-bound decomp direction.
func check3(bound []oem.Value) ([][]oem.Value, error) {
	return CheckNameLnFn(bound)
}

func newTable(t testing.TB) *Table {
	t.Helper()
	reg := NewRegistry()
	reg.Register("check3", check3)
	prog := msl.MustParseProgram(decompDecls)
	tbl, err := NewTable(reg, prog.Decls)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func pred(t testing.TB, src string) *msl.PredicateConjunct {
	t.Helper()
	r, err := msl.ParseRule("X :- X:<p>@s AND " + src + ".")
	if err != nil {
		t.Fatal(err)
	}
	return r.Tail[1].(*msl.PredicateConjunct)
}

func env(t *testing.T, pairs ...any) match.Env {
	t.Helper()
	var e match.Env
	for i := 0; i < len(pairs); i += 2 {
		var ok bool
		e, ok = e.Extend(pairs[i].(string), match.BindVal(oem.Atom(pairs[i+1])))
		if !ok {
			t.Fatal("bad test env")
		}
	}
	return e
}

// TestDecompForward reproduces the paper's step 2: calling name_to_lnfn
// with N = 'Joe Chung' obtains LN = 'Chung' and FN = 'Joe'.
func TestDecompForward(t *testing.T) {
	tbl := newTable(t)
	envs, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"), env(t, "N", "Joe Chung"))
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("got %d envs", len(envs))
	}
	if b, _ := envs[0].Lookup("LN"); !b.Val.Equal(oem.String("Chung")) {
		t.Fatalf("LN = %v", b)
	}
	if b, _ := envs[0].Lookup("FN"); !b.Val.Equal(oem.String("Joe")) {
		t.Fatalf("FN = %v", b)
	}
}

func TestDecompBackward(t *testing.T) {
	tbl := newTable(t)
	envs, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"), env(t, "LN", "Chung", "FN", "Joe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("got %d envs", len(envs))
	}
	if b, _ := envs[0].Lookup("N"); !b.Val.Equal(oem.String("Joe Chung")) {
		t.Fatalf("N = %v", b)
	}
}

func TestDecompAllBoundCheck(t *testing.T) {
	tbl := newTable(t)
	// With all three bound, the first applicable impl is name_to_lnfn:
	// outputs must unify with the bound LN/FN values.
	good, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"),
		env(t, "N", "Joe Chung", "LN", "Chung", "FN", "Joe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 1 {
		t.Fatalf("valid decomposition rejected")
	}
	bad, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"),
		env(t, "N", "Joe Chung", "LN", "Smith", "FN", "Joe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("invalid decomposition accepted")
	}
}

func TestDecompWithConstants(t *testing.T) {
	tbl := newTable(t)
	envs, err := tbl.Eval(pred(t, "decomp('Joe Chung', LN, FN)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("got %d envs", len(envs))
	}
	// Constants in output positions act as checks.
	ok, err := tbl.Eval(pred(t, "decomp('Joe Chung', 'Chung', FN)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 {
		t.Fatal("matching output constant rejected")
	}
	no, err := tbl.Eval(pred(t, "decomp('Joe Chung', 'Smith', FN)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(no) != 0 {
		t.Fatal("mismatching output constant accepted")
	}
}

func TestNoApplicableImplementation(t *testing.T) {
	tbl := newTable(t)
	_, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"), env(t, "FN", "Joe"))
	if err == nil {
		t.Fatal("expected no-applicable-implementation error")
	}
}

func TestUndeclaredPredicate(t *testing.T) {
	tbl := newTable(t)
	if _, err := tbl.Eval(pred(t, "mystery(X)"), env(t, "X", 1)); err == nil {
		t.Fatal("undeclared predicate evaluated")
	}
	if tbl.Knows("mystery") {
		t.Fatal("Knows(mystery)")
	}
	if !tbl.Knows("decomp") || !tbl.Knows("lt") {
		t.Fatal("Knows(decomp/lt) should be true")
	}
}

func TestCanEval(t *testing.T) {
	tbl := newTable(t)
	p := pred(t, "decomp(N, LN, FN)")
	if tbl.CanEval(p, map[string]bool{}) {
		t.Fatal("decomp with nothing bound should not be evaluable")
	}
	if !tbl.CanEval(p, map[string]bool{"N": true}) {
		t.Fatal("decomp with N bound should be evaluable")
	}
	if !tbl.CanEval(p, map[string]bool{"LN": true, "FN": true}) {
		t.Fatal("decomp with LN,FN bound should be evaluable")
	}
	cmp := pred(t, "lt(X, 3)")
	if tbl.CanEval(cmp, map[string]bool{}) {
		t.Fatal("lt with X unbound should not be evaluable")
	}
	if !tbl.CanEval(cmp, map[string]bool{"X": true}) {
		t.Fatal("lt with X bound should be evaluable")
	}
}

func TestBuiltinComparisons(t *testing.T) {
	tbl := newTable(t)
	cases := []struct {
		src  string
		x    any
		want int
	}{
		{"lt(X, 3)", 2, 1},
		{"lt(X, 3)", 3, 0},
		{"le(X, 3)", 3, 1},
		{"gt(X, 3)", 4, 1},
		{"gt(X, 3)", 3, 0},
		{"ge(X, 3)", 3, 1},
		{"eq(X, 3)", 3, 1},
		{"eq(X, 3)", 4, 0},
		{"ne(X, 3)", 4, 1},
		{"ne(X, 3)", 3, 0},
		{"lt(X, 'm')", "a", 1},
		{"lt(X, 'm')", "z", 0},
		{"eq(X, 3)", "three", 0}, // incomparable: fails quietly
		{"ne(X, 3)", "three", 1}, // incomparable but unequal: holds
		{"lt(X, 3)", "three", 0}, // incomparable ordering: fails
		{"eq(X, 3.0)", 3, 1},     // numeric cross-kind
	}
	for _, c := range cases {
		envs, err := tbl.Eval(pred(t, c.src), env(t, "X", c.x))
		if err != nil {
			t.Errorf("%s with X=%v: %v", c.src, c.x, err)
			continue
		}
		if len(envs) != c.want {
			t.Errorf("%s with X=%v: %d envs, want %d", c.src, c.x, len(envs), c.want)
		}
	}
	if _, err := tbl.Eval(pred(t, "lt(X, 1, 2)"), env(t, "X", 1)); err == nil {
		t.Error("ternary lt accepted")
	}
	if _, err := tbl.Eval(pred(t, "lt(X, 3)"), nil); err == nil {
		t.Error("lt with unbound X should error")
	}
}

func TestStructuralBuiltins(t *testing.T) {
	tbl := newTable(t)
	rest := oem.Set{
		oem.New("", "e_mail", "a@x"),
		oem.New("", "year", 3),
	}
	e, _ := match.Env(nil).Extend("R", match.BindVal(rest))
	check := func(src string, want int) {
		t.Helper()
		envs, err := tbl.Eval(pred(t, src), e)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(envs) != want {
			t.Errorf("%s: %d envs, want %d", src, len(envs), want)
		}
	}
	check(`has(R, 'e_mail')`, 1)
	check(`has(R, 'phone')`, 0)
	check(`lacks(R, 'phone')`, 1)
	check(`lacks(R, 'year')`, 0)
	// Errors: non-set first arg, non-string label, wrong arity, unbound.
	atomEnv, _ := match.Env(nil).Extend("R", match.BindVal(oem.Int(3)))
	if _, err := tbl.Eval(pred(t, `has(R, 'x')`), atomEnv); err == nil {
		t.Error("atomic set argument accepted")
	}
	if _, err := tbl.Eval(pred(t, `has(R, 3)`), e); err == nil {
		t.Error("integer label accepted")
	}
	if _, err := tbl.Eval(pred(t, `has(R)`), e); err == nil {
		t.Error("unary has accepted")
	}
	if _, err := tbl.Eval(pred(t, `lacks(Z, 'x')`), e); err == nil {
		t.Error("unbound set accepted")
	}
	if !tbl.Knows("has") || !tbl.Knows("lacks") {
		t.Error("structural builtins unknown")
	}
	if !tbl.CanEval(pred(t, `has(R, 'x')`), map[string]bool{"R": true}) {
		t.Error("CanEval(has) with R bound")
	}
	if tbl.CanEval(pred(t, `has(R, 'x')`), nil) {
		t.Error("CanEval(has) with R unbound")
	}
}

func TestMultivaluedFunction(t *testing.T) {
	reg := NewRegistry()
	reg.Register("aliases", func(bound []oem.Value) ([][]oem.Value, error) {
		return [][]oem.Value{{oem.String("Bob")}, {oem.String("Rob")}}, nil
	})
	prog := msl.MustParseProgram(`alias(bound, free) by aliases.`)
	tbl, err := NewTable(reg, prog.Decls)
	if err != nil {
		t.Fatal(err)
	}
	envs, err := tbl.Eval(pred(t, "alias(N, A)"), env(t, "N", "Robert"))
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("multivalued function produced %d envs, want 2", len(envs))
	}
}

func TestFunctionErrorPropagates(t *testing.T) {
	reg := NewRegistry()
	boom := errors.New("boom")
	reg.Register("bad", func([]oem.Value) ([][]oem.Value, error) { return nil, boom })
	prog := msl.MustParseProgram(`bad(bound) by bad.`)
	tbl, _ := NewTable(reg, prog.Decls)
	_, err := tbl.Eval(pred(t, "bad(X)"), env(t, "X", 1))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewTableErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := NewTable(reg, msl.MustParseProgram(`p(bound) by nosuch.`).Decls); err == nil {
		t.Fatal("unregistered function accepted")
	}
	reg.Register("f1", func([]oem.Value) ([][]oem.Value, error) { return nil, nil })
	bad := msl.MustParseProgram(`p(bound) by f1. p(bound, free) by f1.`)
	if _, err := NewTable(reg, bad.Decls); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestArityMismatchAtCall(t *testing.T) {
	tbl := newTable(t)
	if _, err := tbl.Eval(pred(t, "decomp(N, LN)"), env(t, "N", "Joe Chung")); err == nil {
		t.Fatal("wrong arity call accepted")
	}
}

func TestObjectBoundArgumentRejected(t *testing.T) {
	tbl := newTable(t)
	e, _ := match.Env(nil).Extend("N", match.BindObj(oem.New("", "name", "x")))
	if _, err := tbl.Eval(pred(t, "decomp(N, LN, FN)"), e); err == nil {
		t.Fatal("object-bound argument accepted as value")
	}
}

func TestStdlibFunctions(t *testing.T) {
	reg := NewRegistry()
	call := func(name string, args ...any) ([][]oem.Value, error) {
		fn, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("stdlib missing %s", name)
		}
		vals := make([]oem.Value, len(args))
		for i, a := range args {
			vals[i] = oem.Atom(a)
		}
		return fn(vals)
	}
	if out, _ := call("name_to_lnfn", "Mary Jo Chung"); string(out[0][0].(oem.String)) != "Chung" ||
		string(out[0][1].(oem.String)) != "Mary Jo" {
		t.Errorf("name_to_lnfn multiword: %v", out)
	}
	if out, _ := call("name_to_lnfn", "Plato"); string(out[0][0].(oem.String)) != "Plato" ||
		string(out[0][1].(oem.String)) != "" {
		t.Errorf("name_to_lnfn single token: %v", out)
	}
	if out, _ := call("name_to_lnfn", "   "); len(out) != 0 {
		t.Errorf("name_to_lnfn empty: %v", out)
	}
	if out, _ := call("lnfn_to_name", "Chung", "Joe"); string(out[0][0].(oem.String)) != "Joe Chung" {
		t.Errorf("lnfn_to_name: %v", out)
	}
	if out, _ := call("lower", "ABC"); string(out[0][0].(oem.String)) != "abc" {
		t.Errorf("lower: %v", out)
	}
	if out, _ := call("upper", "abc"); string(out[0][0].(oem.String)) != "ABC" {
		t.Errorf("upper: %v", out)
	}
	if out, _ := call("concat", "a", "b"); string(out[0][0].(oem.String)) != "ab" {
		t.Errorf("concat: %v", out)
	}
	if out, _ := call("normalize_author", "Joe Chung"); string(out[0][0].(oem.String)) != "Chung, Joe" {
		t.Errorf("normalize_author from First Last: %v", out)
	}
	if out, _ := call("normalize_author", "Chung,Joe"); string(out[0][0].(oem.String)) != "Chung, Joe" {
		t.Errorf("normalize_author from Last,First: %v", out)
	}
	if _, err := call("name_to_lnfn", 3); err == nil {
		t.Error("name_to_lnfn accepted an integer")
	}
	if out, _ := call("check_name_lnfn", "Joe Chung", "Chung", "Joe"); len(out) != 1 {
		t.Errorf("check_name_lnfn valid: %v", out)
	}
	if out, _ := call("check_name_lnfn", "Joe Chung", "Smith", "Joe"); len(out) != 0 {
		t.Errorf("check_name_lnfn invalid: %v", out)
	}
}

func TestRegistryNames(t *testing.T) {
	reg := NewRegistry()
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("stdlib not registered")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
	reg.Register("zzz_custom", func([]oem.Value) ([][]oem.Value, error) { return nil, nil })
	if _, ok := reg.Lookup("zzz_custom"); !ok {
		t.Fatal("custom registration lost")
	}
}

// BenchmarkEvalRow measures one row through a declared predicate with
// free outputs and through a builtin check, as the engine's external
// predicate node calls them.
func BenchmarkEvalRow(b *testing.B) {
	tbl := newTable(b)
	row := match.Env{"N": match.BindString("Joe Chung"), "Y": match.BindVal(oem.Int(3))}
	for _, src := range []string{"decomp(N, LN, FN)", "lt(Y, 4)"} {
		p := pred(b, src)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tbl.EvalRow(p, row, func([]VarBinding) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
