package engine

import (
	"math"
	"sort"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// echoSource answers every query with one object that echoes the
// constants the query's set elements carry: <r {<a 'x'> <b 'y'>}> for
// a query binding a to 'x' and b to 'y'. Distinct instantiations thus
// get distinct answers.
type echoSource struct{ queries []string }

func (s *echoSource) Name() string                       { return "echo" }
func (s *echoSource) Capabilities() wrapper.Capabilities { return wrapper.FullCapabilities() }
func (s *echoSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	s.queries = append(s.queries, q.String())
	var subs []*oem.Object
	set := q.Tail[0].(*msl.PatternConjunct).Pattern.Value.(*msl.SetPattern)
	for _, e := range set.Elems {
		if p, ok := e.(*msl.ObjectPattern); ok {
			if c, ok := p.Value.(*msl.Const); ok {
				subs = append(subs, oem.New("", p.LabelName(), c.Value))
			}
		}
	}
	return []*oem.Object{oem.NewSet("", "r", subs...)}, nil
}

// TestProbeDedupKeysOnTheTuple runs two rows whose bindings a delimited
// string key would confuse — {A: 'x;B=s:y', B: a set} and {A: 'x',
// B: 'y'} — through a parameterized query node and a parameterized
// matscan: they instantiate different queries, so each row must get its
// own query's answer.
func TestProbeDedupKeysOnTheTuple(t *testing.T) {
	in, err := oemstore.FromText("in", `
	    <in, set, {<a, 'x;B=s:y'>, <b, set, {<z, 1>}>}>
	    <in, set, {<a, 'x'>, <b, 'y'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	echo := &echoSource{}
	reg := wrapper.NewRegistry()
	reg.Add(in, echo)
	ex := &Executor{Sources: reg, IDGen: oem.NewIDGen("t"), QueryBatch: 16}

	node := func() QueryNode {
		probe := pc(t, `<r {<a A> <b B>}>@echo`)
		return QueryNode{
			Child:  leafQuery(t, "in", `<in {<a A> <b B>}>@in`, "A", "B"),
			Source: "echo",
			Send: &msl.Rule{
				Head: []msl.HeadTerm{&msl.Var{Name: "_O"}},
				Tail: []msl.Conjunct{&msl.PatternConjunct{ObjVar: &msl.Var{Name: "_O"}, Pattern: probe.Pattern, Source: "echo"}},
			},
			ParamVars: []string{"A", "B"},
			Extract:   pc(t, `<r {<a A>}>@echo`).Pattern,
			Needed:    []string{"A"},
		}
	}
	extent, err := oem.Parse(`
	    <r, set, {<a, 'x;B=s:y'>, <b, set, {<z, 1>}>}>
	    <r, set, {<a, 'x'>, <b, 'y'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	ex.Extents = Extents{"echo": extent}
	qn, scan := node(), node()
	scan.View = "v"
	for _, n := range []Node{&qn, &scan} {
		out, err := ex.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range out.Envs() {
			b, _ := row.Lookup("A")
			got = append(got, b.String())
		}
		sort.Strings(got)
		if len(got) != 2 || got[0] != `'x'` || got[1] != `'x;B=s:y'` {
			t.Errorf("%s: rows %v, want one per input row: ['x' 'x;B=s:y']", n.Label(), got)
		}
	}
	want := []string{
		`_O :- _O:<r {<a 'x;B=s:y'> <b B>}>@echo.`,
		`_O :- _O:<r {<a 'x'> <b 'y'>}>@echo.`,
	}
	if len(echo.queries) != 2 || echo.queries[0] != want[0] || echo.queries[1] != want[1] {
		t.Errorf("echo saw %q, want %q", echo.queries, want)
	}
}

// TestSameTupleIsExact checks the probe key's equality: equal presence,
// kind and value bits, and nothing looser — Int 3 and Float 3.0, or 0.0
// and -0.0, print differently and must not share a probe.
func TestSameTupleIsExact(t *testing.T) {
	nan := oem.Float(math.NaN())
	same := [][2]oem.Value{
		{oem.String("a"), oem.String("a")},
		{oem.Int(-3), oem.Int(-3)},
		{nan, nan},
		{oem.Bytes{1, 2}, oem.Bytes{1, 2}},
		{nil, nil},
	}
	for _, p := range same {
		if !sameTuple([]oem.Value{p[0]}, []oem.Value{p[1]}) {
			t.Errorf("%v and %v should share a probe", p[0], p[1])
		}
	}
	differ := [][2]oem.Value{
		{oem.Int(3), oem.Float(3)},
		{oem.Float(0), oem.Float(math.Copysign(0, -1))},
		{oem.String("3"), oem.Int(3)},
		{oem.String(""), nil},
		{oem.Bool(true), oem.Bool(false)},
		{oem.Bytes{1}, oem.Bytes{1, 0}},
	}
	for _, p := range differ {
		if sameTuple([]oem.Value{p[0]}, []oem.Value{p[1]}) {
			t.Errorf("%v and %v must not share a probe", p[0], p[1])
		}
	}
}
