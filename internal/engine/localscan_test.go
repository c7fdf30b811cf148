package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/relational"
	"medmaker/internal/semistruct"
	"medmaker/internal/wrapper"
)

// scanGen draws the random populations, patterns and input rows of the
// local-scan property tests. flat restricts them to what a relational
// source holds and answers: rows of the tables a and b with the columns
// name, year and tag, and no wildcards.
type scanGen struct {
	rng  *rand.Rand
	flat bool
}

var (
	scanLabels  = []string{"a", "b", "c"}
	scanMembers = []string{"name", "year", "tag"}
	scanConsts  = []string{`'x'`, `'y'`, `1`, `2`}
)

func (g *scanGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// atom draws a member's value; a flat row's year is an int and its other
// columns strings.
func (g *scanGen) atom(member string) any {
	if g.flat {
		if member == "year" {
			return 1 + g.rng.Intn(2)
		}
		return []string{"x", "y"}[g.rng.Intn(2)]
	}
	return []any{"x", "y", 1, 2}[g.rng.Intn(4)]
}

// object draws a set object with up to three members, some of them
// nested objects.
func (g *scanGen) object(depth int) *oem.Object {
	o := oem.NewSet("", g.pick(scanLabels))
	for n := g.rng.Intn(4); n > 0; n-- {
		m := g.pick(scanMembers)
		sub := oem.New("", m, g.atom(m))
		if depth < 2 && g.rng.Intn(4) == 0 {
			sub = g.object(depth + 1)
		}
		o.Value = append(o.Value.(oem.Set), sub)
	}
	return o
}

// member renders one set element: a constant or variable member label
// (M) with a constant or variable value (N, Y, _O), or now and then,
// where elem allows, an element variable (E).
func (g *scanGen) member(elem bool) string {
	if elem && g.rng.Intn(10) == 0 {
		return "E"
	}
	label := g.pick(scanMembers)
	if g.rng.Intn(5) == 0 {
		label = "M"
	}
	value := g.pick(scanConsts)
	switch g.rng.Intn(12) {
	case 0, 1, 2, 3, 4:
		value = g.pick([]string{"N", "Y"})
	case 5:
		value = "_O" // the name of the sent query's object variable
	}
	return "<" + label + " " + value + ">"
}

// pattern draws a conjunct on source src: an optional object variable X,
// oid variable I and, where allowed, wildcard, a constant or variable (L)
// label, members, and an optional rest variable R with a constraint.
func (g *scanGen) pattern(src string, wildcard bool) string {
	var sb strings.Builder
	if g.rng.Intn(3) == 0 {
		sb.WriteString("X:")
	}
	sb.WriteString("<")
	if g.rng.Intn(4) == 0 {
		sb.WriteString("I ")
	}
	if wildcard && g.rng.Intn(4) == 0 {
		sb.WriteString("%")
	}
	if g.rng.Intn(4) == 0 {
		sb.WriteString("L")
	} else {
		sb.WriteString(g.pick(scanLabels))
	}
	sb.WriteString(" {")
	for n := g.rng.Intn(3); n > 0; n-- {
		sb.WriteString(g.member(true) + " ")
	}
	if g.rng.Intn(3) == 0 {
		sb.WriteString("| R")
		if g.rng.Intn(2) == 0 {
			sb.WriteString(":{" + g.member(false) + "}")
		}
	}
	sb.WriteString("}>@" + src)
	return sb.String()
}

// input draws up to six rows binding N and Y to atoms and, now and then,
// N to the members of one of objs, I to the oid of one of objs, X to one
// of objs itself, R to the members of one of objs, L to a label, and E
// to a member of one of objs.
func (g *scanGen) input(objs []*oem.Object) *Table {
	var rows []match.Env
	for n := g.rng.Intn(7); n > 0; n-- {
		row := match.Env{}
		for _, v := range []string{"N", "Y"} {
			if g.rng.Intn(3) > 0 {
				row[v] = match.BindVal(oem.Atom(g.atom(g.pick(scanMembers))))
			}
		}
		if g.rng.Intn(8) == 0 {
			row["N"] = match.BindVal(objs[g.rng.Intn(len(objs))].Value)
		}
		if g.rng.Intn(4) == 0 {
			row["I"] = match.BindString(string(objs[g.rng.Intn(len(objs))].OID))
		}
		// X and R are bound now and then to an atom, which a match never
		// binds them to.
		switch g.rng.Intn(8) {
		case 0:
			row["X"] = match.BindObj(objs[g.rng.Intn(len(objs))])
		case 1:
			row["X"] = match.BindString("x")
		}
		switch g.rng.Intn(8) {
		case 0:
			row["R"] = match.BindVal(objs[g.rng.Intn(len(objs))].Value)
		case 1:
			row["R"] = match.BindString("x")
		}
		if g.rng.Intn(5) == 0 {
			row["L"] = match.BindString(g.pick(scanLabels))
		}
		if subs := objs[g.rng.Intn(len(objs))].Subobjects(); len(subs) > 0 && g.rng.Intn(4) == 0 {
			row["E"] = match.BindObj(subs[0])
		}
		rows = append(rows, row)
	}
	return NewTable([]string{"N", "Y", "I", "X", "L", "R", "E"}, rows)
}

// node draws a query node over src as the planner builds one, sending
// the pattern it extracts or, one time in six, every object (as the
// planner relaxes a wildcard for a source that cannot search at depth;
// then a relational pattern may be a wildcard too): a leaf or, two times
// in three, a node over
// drawn input rows, parameterized on the pattern's variables the rows
// may bind, each but one in four of them; one node in four is an
// anti-join.
func (g *scanGen) node(t *testing.T, src string, objs []*oem.Object) QueryNode {
	relaxed := g.rng.Intn(6) == 0
	conj := pc(t, g.pattern(src, !g.flat || relaxed))
	ov := conj.ObjVar
	if ov == nil {
		ov = &msl.Var{Name: "_O"}
	}
	sent := conj.Pattern
	if relaxed {
		sent = &msl.ObjectPattern{Label: &msl.Var{Name: "_AnyLabel"}}
	}
	n := QueryNode{
		Source: src,
		Send: &msl.Rule{
			Head: []msl.HeadTerm{ov},
			Tail: []msl.Conjunct{&msl.PatternConjunct{ObjVar: ov, Pattern: sent, Source: src}},
		},
		Extract:       conj.Pattern,
		ExtractObjVar: conj.ObjVar,
		Negated:       g.rng.Intn(4) == 0,
	}
	if g.rng.Intn(3) > 0 {
		n.Child = &tableNode{g.input(objs)}
		vars := (&msl.Rule{Tail: []msl.Conjunct{&msl.PatternConjunct{Pattern: conj.Pattern}}}).Vars()
		for _, v := range []string{"N", "Y", "I", "L", "R", "E"} {
			if slices.Contains(vars, v) && g.rng.Intn(4) > 0 {
				n.ParamVars = append(n.ParamVars, v)
			}
		}
	}
	n.Shape = ShapeOf(sent, ShapeVars(n.ParamVars))
	return n
}

// scanSource is one source kind under test: its name and a constructor
// returning a fresh source and the objects it holds.
type scanSource struct {
	name  string
	flat  bool
	build func(t *testing.T, g *scanGen) (wrapper.Source, []*oem.Object)
}

// scanSources holds, for every in-process source kind, one object twice
// (or, where a kind cannot hold an object twice, two copies of one
// record or row) and one structural copy.
var scanSources = []scanSource{
	{name: "oemstore", build: func(t *testing.T, g *scanGen) (wrapper.Source, []*oem.Object) {
		objs := make([]*oem.Object, 2+g.rng.Intn(8))
		for i := range objs {
			objs[i] = g.object(0)
		}
		objs = append(objs, objs[0], objs[1].Clone())
		src := oemstore.New("src")
		if err := src.Add(objs...); err != nil {
			t.Fatal(err)
		}
		return src, objs
	}},
	{name: "semistruct", build: func(t *testing.T, g *scanGen) (wrapper.Source, []*oem.Object) {
		var fields func(depth int) []semistruct.Field
		fields = func(depth int) []semistruct.Field {
			var fs []semistruct.Field
			for n := g.rng.Intn(4); n > 0; n-- {
				m := g.pick(scanMembers)
				if depth < 2 && g.rng.Intn(4) == 0 {
					fs = append(fs, semistruct.F(g.pick(scanLabels), fields(depth+1)))
				} else {
					fs = append(fs, semistruct.F(m, g.atom(m)))
				}
			}
			return fs
		}
		recs := make([]semistruct.Record, 2+g.rng.Intn(8))
		for i := range recs {
			recs[i] = semistruct.Record{Kind: g.pick(scanLabels), Fields: fields(0)}
		}
		recs = append(recs, recs[0], recs[1])
		store := semistruct.NewStore()
		if err := store.Add(recs...); err != nil {
			t.Fatal(err)
		}
		w := semistruct.NewWrapper("src", store)
		return w, w.Export()
	}},
	{name: "relational", flat: true, build: func(t *testing.T, g *scanGen) (wrapper.Source, []*oem.Object) {
		db := relational.NewDB()
		schema := func(name string) relational.Schema {
			return relational.Schema{Name: name, Columns: []relational.Column{
				{Name: "name", Kind: oem.KindString},
				{Name: "year", Kind: oem.KindInt},
				{Name: "tag", Kind: oem.KindString},
			}}
		}
		tables := []*relational.Table{db.MustCreateTable(schema("a")), db.MustCreateTable(schema("b"))}
		var first []any
		var firstIn *relational.Table
		for n := 2 + g.rng.Intn(10); n > 0; n-- {
			row := make([]any, len(scanMembers))
			for i, m := range scanMembers {
				if g.rng.Intn(5) > 0 { // else NULL: no member
					row[i] = g.atom(m)
				}
			}
			table := tables[g.rng.Intn(2)]
			if first == nil {
				first, firstIn = row, table
			}
			table.MustInsert(row...)
		}
		firstIn.MustInsert(first...)
		w := relational.NewWrapper("src", db)
		return w, w.Export()
	}},
}

// TestLocalScanMatchesMSL is the reference for the local scan: for random
// patterns over every in-process source kind, a QueryNode over the source
// (its candidates, one extraction) and the same node over the source
// behind wrapper.Limited with the source's own capabilities (the MSL
// answer, then extraction) give the same rows, as multisets, and teach
// the statistics store the same answer size, leaf and parameterized, at
// QueryBatch 1 and 16 (see scanWorkers). The patterns draw on negation
// (anti-joins), label variables, oid and object variables, element
// variables, rest variables with constraints and, except over
// relational, wildcards; input rows sometimes bind variables the sent
// query leaves free, which extraction must then check as the source
// could not.
func TestLocalScanMatchesMSL(t *testing.T) {
	for _, kind := range scanSources {
		t.Run(kind.name, func(t *testing.T) {
			g := &scanGen{rng: rand.New(rand.NewSource(44)), flat: kind.flat}
			for trial := 0; trial < 300; trial++ {
				src, objs := kind.build(t, g)
				node := g.node(t, "src", objs)
				for _, batch := range []int{1, 16} {
					par, morsel := scanWorkers(batch)
					local := wrapper.NewRegistry()
					local.Add(src)
					msl := wrapper.NewRegistry()
					msl.Add(&wrapper.Limited{Inner: src, Caps: src.Capabilities()})
					want, wantStats := runScanNode(t, &Executor{Sources: msl, QueryBatch: batch, Parallelism: par, MorselRows: morsel}, &node)
					got, gotStats := runScanNode(t, &Executor{Sources: local, QueryBatch: batch, Parallelism: par, MorselRows: morsel}, &node)
					if !slices.Equal(want, got) || wantStats != gotStats {
						t.Fatalf("trial %d, batch %d, negated %v, params %v: %s\nMSL rows %v (%s)\nlocal rows %v (%s)\nobjects:\n%s",
							trial, batch, node.Negated, node.ParamVars, node.Detail(), want, wantStats, got, gotStats, oem.Format(objs...))
					}
				}
			}
		})
	}
}

// scanWorkers is the executor shape each batch size runs with: serial
// per-tuple querying, or four workers over two-row morsels, so that the
// few drawn rows still spread over several workers.
func scanWorkers(batch int) (parallelism, morselRows int) {
	if batch == 1 {
		return 1, 0
	}
	return 4, 2
}

// runScanNode runs a copy of node under ex with a fresh statistics store,
// returning its row multiset and what the store learned for the node's
// shape.
func runScanNode(t *testing.T, ex *Executor, node *QueryNode) ([]string, string) {
	t.Helper()
	ex.Stats = NewStats()
	n := *node
	out, err := ex.Run(&n)
	if err != nil {
		t.Fatalf("%s: %v", node.Detail(), err)
	}
	est, ok := ex.Stats.Estimate(node.Source, node.Shape)
	return rowStrings(out), fmt.Sprintf("answers/query %v (%v)", est, ok)
}

// queryless is a local scanner that answers no MSL: every Query entry
// point fails, so only its candidates can answer the engine.
type queryless struct{ *wrapper.Collection }

var errQueryless = errors.New("queryless: no MSL here")

func (q queryless) Query(*msl.Rule) ([]*oem.Object, error) { return nil, errQueryless }
func (q queryless) QueryContext(context.Context, *msl.Rule) ([]*oem.Object, error) {
	return nil, errQueryless
}
func (q queryless) QueryBatch([]*msl.Rule) ([][]*oem.Object, error) { return nil, errQueryless }
func (q queryless) QueryBatchContext(context.Context, []*msl.Rule) ([][]*oem.Object, error) {
	return nil, errQueryless
}

// TestLocalScannerNeedsNoQuery: the engine answers a local scanner from
// its candidates alone, so one whose Query, QueryContext and QueryBatch*
// all fail still answers leaf and parameterized nodes, batched and not,
// as the same objects behind a working source do.
func TestLocalScannerNeedsNoQuery(t *testing.T) {
	g := &scanGen{rng: rand.New(rand.NewSource(45))}
	for trial := 0; trial < 100; trial++ {
		src, objs := scanSources[0].build(t, g)
		node := g.node(t, "src", objs)
		for _, batch := range []int{1, 16} {
			par, morsel := scanWorkers(batch)
			working, broken := wrapper.NewRegistry(), wrapper.NewRegistry()
			working.Add(src)
			broken.Add(queryless{src.(*oemstore.Source).Collection})
			want, wantStats := runScanNode(t, &Executor{Sources: working, QueryBatch: batch, Parallelism: par, MorselRows: morsel}, &node)
			got, gotStats := runScanNode(t, &Executor{Sources: broken, QueryBatch: batch, Parallelism: par, MorselRows: morsel}, &node)
			if !slices.Equal(want, got) || wantStats != gotStats {
				t.Fatalf("trial %d, batch %d: %s\nworking source rows %v (%s)\nqueryless rows %v (%s)",
					trial, batch, node.Detail(), want, wantStats, got, gotStats)
			}
		}
	}
}
