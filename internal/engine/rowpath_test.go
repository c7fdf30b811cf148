package engine

import (
	"fmt"
	"strings"
	"testing"

	"medmaker/internal/extfn"
	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// The operators read input rows in place and write only their output
// columns. These tests hold them to the environment-at-a-time semantics
// they replaced: extfn.Table.Eval for external predicates, match.Tops
// plus Env.Project for extraction.

// envText renders an environment with each binding's dynamic type, so
// Equal-but-different bindings (Int 3, Float 3.0) tell apart.
func envText(e match.Env) string {
	var sb strings.Builder
	for _, name := range e.Names() {
		b := e[name]
		if b.Obj != nil {
			fmt.Fprintf(&sb, "%s=obj(%s) ", name, b.Obj)
		} else {
			fmt.Fprintf(&sb, "%s=%T(%s) ", name, b.Val, b.Val)
		}
	}
	return sb.String()
}

// checkRows compares a table's rows with reference environments.
func checkRows(t *testing.T, what string, got *Table, want []match.Env) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, reference %d:\n%v\nvs\n%v", what, got.Len(), len(want), got.Envs(), want)
	}
	for i, w := range want {
		if g := envText(got.Row(i)); g != envText(w) {
			t.Fatalf("%s: row %d = %s, reference %s", what, i, g, envText(w))
		}
	}
}

func projected(e match.Env, needed []string) match.Env {
	if len(needed) == 0 {
		return e
	}
	return e.Project(needed)
}

func TestExtPredRowsMatchEval(t *testing.T) {
	reg := extfn.NewRegistry()
	reg.Register("tofloat", func(in []oem.Value) ([][]oem.Value, error) {
		if i, ok := in[0].(oem.Int); ok {
			return [][]oem.Value{{oem.Float(i)}}, nil
		}
		return nil, nil
	})
	reg.Register("twins", func(in []oem.Value) ([][]oem.Value, error) {
		return [][]oem.Value{{in[0], in[0]}, {in[0], oem.String("other")}}, nil
	})
	decls := msl.MustParseProgram(`
		conv(bound, free) by tofloat.
		pair(bound, free, free) by twins.
		decomp(bound, free, free) by name_to_lnfn.`).Decls
	fns, err := extfn.NewTable(reg, decls)
	if err != nil {
		t.Fatal(err)
	}
	email := oem.Set{oem.New("", "e_mail", "a@b")}
	in := NewTable(nil, []match.Env{
		{"X": match.BindVal(oem.Int(3)), "Y": match.BindVal(oem.Int(3)), "S": match.BindVal(email), "N": match.BindString("Joe Chung")},
		{"X": match.BindVal(oem.Int(4)), "S": match.BindVal(oem.Set{}), "N": match.BindString("Nick Naive")},
		{"X": match.BindVal(oem.Int(5)), "Y": match.BindString("z"), "S": match.BindVal(email), "N": match.BindString("Ann")},
		{"X": match.BindString("other"), "Y": match.BindVal(oem.Float(2)), "S": match.BindVal(oem.Set{}), "N": match.BindString("Zed Zeta")},
	})
	preds := []string{
		"conv(X, Y)",    // Y bound: Float 3.0 agrees with Int 3, which stands
		"conv(X, Z)",    // a new free variable
		"conv(X, 3.0)",  // a constant in a free position
		"pair(X, Z, Z)", // a repeated free variable
		"pair(X, Y, Z)",
		"decomp(N, LN, FN)",
		"lt(X, 4)", "eq(X, 3.0)", "ne(X, 'other')", "ge(X, Y)",
		"has(S, 'e_mail')", "lacks(S, 'e_mail')",
		"nosuch(X)",     // undeclared
		"conv(W, X)",    // no implementation applicable
		"lt(X, W)",      // builtin over an unbound variable
		"has(X, 'a')",   // builtin over a non-set
		"conv(X, Y, Z)", // wrong arity
	}
	for _, text := range preds {
		p := msl.MustParseRule(`Q :- <q>@s AND ` + text + `.`).Tail[1].(*msl.PredicateConjunct)
		for _, needed := range [][]string{nil, {"X", "Y", "Z"}} {
			for _, par := range []int{1, 4} {
				what := fmt.Sprintf("%s needed=%v par=%d", text, needed, par)
				ex := &Executor{Extfn: fns, Parallelism: par, MorselRows: 1}
				got, gotErr := ex.Run(&ExtPredNode{Child: &tableNode{in}, Pred: p, Needed: needed})
				// At any width the run reports the first failing row's
				// error, as the serial loop does.
				var want []match.Env
				var wantErrs []string
				for i := 0; i < in.Len(); i++ {
					envs, err := fns.Eval(p, in.Row(i))
					if err != nil {
						wantErrs = append(wantErrs, "external-pred("+p.Name+"): "+err.Error())
						continue
					}
					for _, e := range envs {
						want = append(want, projected(e, needed))
					}
				}
				if len(wantErrs) > 0 || gotErr != nil {
					if len(wantErrs) == 0 || gotErr == nil || gotErr.Error() != wantErrs[0] {
						t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErrs)
					}
					continue
				}
				checkRows(t, what, got, want)
			}
		}
	}
	// The reference itself keeps a bound variable's own binding.
	envs, err := fns.Eval(msl.MustParseRule(`Q :- <q>@s AND conv(X, Y).`).Tail[1].(*msl.PredicateConjunct), in.Row(0))
	if err != nil || len(envs) != 1 {
		t.Fatalf("conv(X, Y) on row 0: %v, %v", envs, err)
	}
	if y := envs[0]["Y"].Val; y != oem.Int(3) {
		t.Fatalf("conv(X, Y) rebound Y to %T(%v), want the row's Int 3", y, y)
	}
}

func TestExtractionMatchesTopsProject(t *testing.T) {
	store, err := oemstore.FromText("whois", `
	    <person, set, {<name, 'Joe Chung'>, <dept, 'CS'>, <addr, set, {<city, 'Palo Alto'>, <zip, 94305>}>, <e_mail, 'chung@cs'>}>
	    <person, set, {<name, 'Nick Naive'>, <dept, 'EE'>, <year, 3>}>
	    <person, set, {<name, 'Ann Alpha'>, <dept, 'CS'>, <addr, set, {<city, 'Menlo Park'>}>}>`)
	if err != nil {
		t.Fatal(err)
	}
	reg := wrapper.NewRegistry()
	reg.Add(store)
	send := msl.MustParseRule(`O :- O:<person>@whois.`)
	objs, err := store.Query(send)
	if err != nil {
		t.Fatal(err)
	}
	in := NewTable(nil, []match.Env{
		{"N": match.BindString("Joe Chung"), "K": match.BindVal(oem.Int(1))},
		{"N": match.BindString("Nick Naive"), "K": match.BindVal(oem.Int(2))},
		{"N": match.BindString("Zed"), "K": match.BindVal(oem.Int(3))},
		{"K": match.BindVal(oem.Int(4))},
	})
	cases := []struct {
		conj    string
		negated bool
		needed  []string
	}{
		{conj: `<%city C>@whois`, needed: []string{"N", "C"}},                             // wildcard
		{conj: `P:<person {<name N>}>@whois`, needed: []string{"N", "P", "K"}},            // object variable
		{conj: `<person {<name N> | R}>@whois`, needed: []string{"N", "R"}},               // rest variable
		{conj: `<person {<%zip Z> <name N> | R}>@whois`, needed: []string{"Z", "N", "R"}}, // wildcard element and rest
		{conj: `<person {<dept 'EE'> <name N>}>@whois`, negated: true, needed: []string{"N", "K"}},
		{conj: `<person {<name N> <dept D>}>@whois`}, // keep all
		{conj: `<person {<dept 'EE'> <name N>}>@whois`, negated: true},
	}
	for _, c := range cases {
		conj := pc(t, c.conj)
		reference := func(rows []match.Env) []match.Env {
			var want []match.Env
			for _, row := range rows {
				envs, err := match.Tops(conj.Pattern, conj.ObjVar, objs, row)
				if err != nil {
					t.Fatal(err)
				}
				if c.negated {
					if len(envs) == 0 {
						want = append(want, projected(row, c.needed))
					}
					continue
				}
				for _, e := range envs {
					want = append(want, projected(e, c.needed))
				}
			}
			return want
		}
		node := func(child Node) QueryNode {
			return QueryNode{Child: child, Source: "whois", Send: send, Extract: conj.Pattern,
				ExtractObjVar: conj.ObjVar, Negated: c.negated, Needed: c.needed}
		}
		for _, batch := range []int{1, 16} {
			what := fmt.Sprintf("%s negated=%v needed=%v batch=%d", c.conj, c.negated, c.needed, batch)
			ex := &Executor{Sources: reg, IDGen: oem.NewIDGen("t"), QueryBatch: batch, MorselRows: 2}
			leaf := node(nil)
			got, err := ex.Run(&leaf)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, what+" leaf", got, reference([]match.Env{nil}))
			param := node(&tableNode{in})
			if got, err = ex.Run(&param); err != nil {
				t.Fatal(err)
			}
			checkRows(t, what+" per row", got, reference(in.Envs()))
			scan := &MatScanNode{QueryNode: node(&tableNode{in}), View: "v"}
			ex.Extents = Extents{"whois": objs}
			if got, err = ex.Run(scan); err != nil {
				t.Fatal(err)
			}
			checkRows(t, what+" matscan", got, reference(in.Envs()))
		}
	}
}
