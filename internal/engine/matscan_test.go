package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// TestExtentScanMatchesSource is the reference for a MatScanNode: for
// random patterns (scanGen's), the node over a bound extent and a
// QueryNode over an OEM source holding the same objects behind
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
			got, err := ex.Run(&MatScanNode{QueryNode: node, View: "v"})
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
