package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// TestExtentScanMatchesSource is the reference for an extent scan: for
// random patterns (scanGen's), the node with View set over a bound extent
// and the same node over an OEM source holding the same objects behind
// wrapper.Limited, which answers MSL, give the same rows, as multisets,
// at QueryBatch 1 and 16 (see scanWorkers), leaf and parameterized. One
// object is added twice and one structural copy once, so the scan must
// eliminate duplicates as a source's answer does.
func TestExtentScanMatchesSource(t *testing.T) {
	g := &scanGen{rng: rand.New(rand.NewSource(42))}
	for trial := 0; trial < 300; trial++ {
		src, objs := scanSources[0].build(t, g)
		reg := wrapper.NewRegistry()
		reg.Add(&wrapper.Limited{Inner: src, Caps: src.Capabilities()})
		node := g.node(t, "src", objs)
		for _, batch := range []int{1, 16} {
			par, morsel := scanWorkers(batch)
			ex := &Executor{Sources: reg, Extents: Extents{"src": objs}, QueryBatch: batch, Parallelism: par, MorselRows: morsel}
			want, _ := runScanNode(t, ex, &node)
			scan := node
			scan.View = "v"
			got, err := ex.Run(&scan)
			if err != nil {
				t.Fatalf("trial %d: %s: matscan: %v", trial, node.Detail(), err)
			}
			if rows := rowStrings(got); !slices.Equal(want, rows) {
				t.Fatalf("trial %d, batch %d, negated %v, params %v: %s\nsource rows %v\nmatscan rows %v\nobjects:\n%s",
					trial, batch, node.Negated, node.ParamVars, node.Detail(), want, rows, oem.Format(objs...))
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

// TestExtentScanTeachesNothing: an extent scan has no source slot, so it
// teaches the statistics store nothing — no answer size and, when
// parameterized, no |out selectivity — though it carries a source's name
// and shape, as a delta plan's scan does. The same node over the source
// teaches both.
func TestExtentScanTeachesNothing(t *testing.T) {
	objs, err := oem.Parse(`<r, set, {<a, 'x'>}> <r, set, {<a, 'y'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	src := oemstore.New("src")
	if err := src.Add(objs...); err != nil {
		t.Fatal(err)
	}
	reg := wrapper.NewRegistry()
	reg.Add(src)
	conj := pc(t, `<r {<a A>}>@src`)
	in := NewTable([]string{"A"}, nil)
	in.AppendBinding("A", match.BindString("x"))
	node := QueryNode{
		Child:     &tableNode{in},
		Source:    "src",
		Send:      msl.MustParseRule(`O :- O:<r {<a A>}>@src.`),
		ParamVars: []string{"A"},
		Extract:   conj.Pattern,
		Needed:    []string{"A"},
		Shape:     "s",
	}
	scan := node
	scan.View = "v"
	for _, c := range []struct {
		n       *QueryNode
		entries int
	}{{&scan, 0}, {&node, 2}} {
		stats := NewStats()
		ex := &Executor{Sources: reg, Extents: Extents{"src": objs}, Stats: stats}
		out, err := ex.Run(c.n)
		if err != nil || out.Len() != 1 {
			t.Fatalf("%s: %v rows, %v; want 1 row", c.n.Label(), out, err)
		}
		if got := stats.Entries(); got != c.entries {
			t.Errorf("%s taught the store %d entries, want %d:\n%s", c.n.Label(), got, c.entries, stats)
		}
	}
}
