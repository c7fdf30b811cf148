package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// TestExtentScanMatchesSource is the reference for a MatScanNode's fetch:
// for random patterns, the node over a bound extent and a QueryNode over
// an OEM source holding the same objects give the same rows, as
// multisets, at QueryBatch 1 and 16, leaf and parameterized. The
// patterns draw on negation (anti-joins), wildcards, label variables,
// rest variables with constraints and object variables; one object is
// added twice and one structural copy once, so the scan must eliminate
// duplicates as a source's answer does.
func TestExtentScanMatchesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"a", "b", "c"}
	members := []string{"name", "year", "tag"}
	atoms := []any{"x", "y", 1, 2}
	consts := []string{`'x'`, `'y'`, `1`, `2`}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var object func(depth int) *oem.Object
	object = func(depth int) *oem.Object {
		o := oem.NewSet("", pick(labels))
		for n := rng.Intn(4); n > 0; n-- {
			sub := oem.New("", pick(members), atoms[rng.Intn(len(atoms))])
			if depth < 2 && rng.Intn(4) == 0 {
				sub = object(depth + 1)
			}
			o.Value = append(o.Value.(oem.Set), sub)
		}
		return o
	}
	// member renders one set element: a constant or variable member
	// label (M) with a constant or variable value (N, Y).
	member := func() string {
		label := pick(members)
		if rng.Intn(5) == 0 {
			label = "M"
		}
		value := pick(consts)
		if rng.Intn(2) == 0 {
			value = pick([]string{"N", "Y"})
		}
		return "<" + label + " " + value + ">"
	}
	pattern := func() string {
		var sb strings.Builder
		if rng.Intn(3) == 0 {
			sb.WriteString("X:")
		}
		sb.WriteString("<")
		if rng.Intn(4) == 0 {
			sb.WriteString("%")
		}
		if rng.Intn(4) == 0 {
			sb.WriteString("L")
		} else {
			sb.WriteString(pick(labels))
		}
		sb.WriteString(" {")
		for n := rng.Intn(3); n > 0; n-- {
			sb.WriteString(member() + " ")
		}
		if rng.Intn(3) == 0 {
			sb.WriteString("| R")
			if rng.Intn(2) == 0 {
				sb.WriteString(":{" + member() + "}")
			}
		}
		sb.WriteString("}>@src")
		return sb.String()
	}
	input := func() *Table {
		var rows []match.Env
		for n := rng.Intn(7); n > 0; n-- {
			row := match.Env{}
			for _, v := range []string{"N", "Y"} {
				if rng.Intn(3) > 0 {
					row[v] = match.BindVal(oem.Atom(atoms[rng.Intn(len(atoms))]))
				}
			}
			rows = append(rows, row)
		}
		return NewTable([]string{"N", "Y"}, rows)
	}

	for trial := 0; trial < 300; trial++ {
		objs := make([]*oem.Object, 2+rng.Intn(8))
		for i := range objs {
			objs[i] = object(0)
		}
		objs = append(objs, objs[0], objs[1].Clone())
		src := oemstore.New("src")
		if err := src.Add(objs...); err != nil {
			t.Fatal(err)
		}
		reg := wrapper.NewRegistry()
		reg.Add(src)

		conj := pc(t, pattern())
		ov := conj.ObjVar
		if ov == nil {
			ov = &msl.Var{Name: "_O"}
		}
		node := QueryNode{
			Source: "src",
			Send: &msl.Rule{
				Head: []msl.HeadTerm{ov},
				Tail: []msl.Conjunct{&msl.PatternConjunct{ObjVar: ov, Pattern: conj.Pattern, Source: "src"}},
			},
			Extract:       conj.Pattern,
			ExtractObjVar: conj.ObjVar,
			Negated:       rng.Intn(4) == 0,
		}
		if rng.Intn(3) > 0 {
			node.Child = &tableNode{input()}
			vars := (&msl.Rule{Tail: []msl.Conjunct{conj}}).Vars()
			for _, v := range []string{"N", "Y"} {
				if slices.Contains(vars, v) {
					node.ParamVars = append(node.ParamVars, v)
				}
			}
		}
		for _, batch := range []int{1, 16} {
			ex := &Executor{Sources: reg, Extents: Extents{"src": objs}, QueryBatch: batch}
			query := node
			want, err := ex.Run(&query)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, node.Detail(), err)
			}
			got, err := ex.Run(&MatScanNode{QueryNode: node, View: "v"})
			if err != nil {
				t.Fatalf("trial %d: %s: matscan: %v", trial, node.Detail(), err)
			}
			if w, g := rowStrings(want), rowStrings(got); !slices.Equal(w, g) {
				t.Fatalf("trial %d, batch %d, negated %v, params %v: %s\nsource rows %v\nmatscan rows %v\nobjects:\n%s",
					trial, batch, node.Negated, node.ParamVars, node.Detail(), w, g, oem.Format(objs...))
			}
		}
	}
}

// rowStrings renders a table's rows, sorted: its row multiset.
func rowStrings(t *Table) []string {
	out := make([]string, t.Len())
	for i := range out {
		out[i] = fmt.Sprint(t.Row(i))
	}
	slices.Sort(out)
	return out
}
