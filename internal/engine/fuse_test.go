package engine

import (
	"testing"

	"medmaker/internal/match"
	"medmaker/internal/oem"
)

// tableNode injects a fixed table into a graph, for node-level tests.
type tableNode struct{ t *Table }

func (n *tableNode) Label() string                                      { return "fixed" }
func (n *tableNode) Detail() string                                     { return "test input" }
func (n *tableNode) Kids() []Node                                       { return nil }
func (n *tableNode) OutVars() []string                                  { return n.t.Cols }
func (n *tableNode) run(*runState, *opRecord, []*Table) (*Table, error) { return n.t, nil }

func resultTable(objs ...*oem.Object) *Table {
	t := newProjTable([]string{ResultVar})
	for _, o := range objs {
		t.AppendBinding(ResultVar, match.BindObj(o))
	}
	return t
}

func TestFuseMergesSameOID(t *testing.T) {
	a := oem.NewSet("&pub(1)", "publication",
		oem.New("&a1", "title", "P1"),
		oem.New("&a2", "year", 1980),
	)
	b := oem.NewSet("&pub(1)", "publication",
		oem.New("&b1", "title", "P1"),
		oem.New("&b2", "area", "db"),
	)
	other := oem.NewSet("&pub(2)", "publication", oem.New("&c1", "title", "P2"))
	ex := &Executor{}
	out, err := ex.Run(&FuseNode{Child: &tableNode{resultTable(a, b, other)}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("fused to %d objects, want 2", out.Len())
	}
	fusedBinding, _ := out.Row(0).Lookup(ResultVar)
	fused := fusedBinding.Obj
	if fused.OID != "&pub(1)" {
		t.Fatalf("first fused oid %s", fused.OID)
	}
	labels := fused.Subobjects().Labels()
	want := []string{"area", "title", "year"}
	if len(labels) != 3 || labels[0] != want[0] || labels[1] != want[1] || labels[2] != want[2] {
		t.Fatalf("fused labels %v, want %v (title deduplicated)", labels, want)
	}
}

func TestFusePassesUniqueAndNilOIDs(t *testing.T) {
	a := oem.NewSet("&x1", "p", oem.New("", "v", 1))
	b := oem.NewSet("&x2", "p", oem.New("", "v", 2))
	anon1 := &oem.Object{Label: "p", Value: oem.Set{oem.New("", "v", 3)}}
	anon2 := &oem.Object{Label: "p", Value: oem.Set{oem.New("", "v", 4)}}
	ex := &Executor{}
	out, err := ex.Run(&FuseNode{Child: &tableNode{resultTable(a, b, anon1, anon2)}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("fusion touched unique/anonymous objects: %d rows", out.Len())
	}
}

func TestFuseAtomicConflictKeepsFirst(t *testing.T) {
	a := oem.New("&k", "status", "ok")
	b := oem.New("&k", "status", "bad")
	ex := &Executor{}
	out, err := ex.Run(&FuseNode{Child: &tableNode{resultTable(a, b)}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows: %d", out.Len())
	}
	got, _ := out.Row(0).Lookup(ResultVar)
	if v, _ := got.Obj.AtomString(); v != "ok" {
		t.Fatalf("first derivation should win, got %q", v)
	}
}

func TestFuseOrderPreserved(t *testing.T) {
	objs := []*oem.Object{
		oem.NewSet("&b", "p", oem.New("", "v", 1)),
		oem.NewSet("&a", "p", oem.New("", "v", 2)),
		oem.NewSet("&b", "p", oem.New("", "w", 3)),
	}
	ex := &Executor{}
	out, err := ex.Run(&FuseNode{Child: &tableNode{resultTable(objs...)}})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := out.Row(0).Lookup(ResultVar)
	second, _ := out.Row(1).Lookup(ResultVar)
	if first.Obj.OID != "&b" || second.Obj.OID != "&a" {
		t.Fatalf("first-appearance order lost: %s, %s", first.Obj.OID, second.Obj.OID)
	}
	if len(first.Obj.Subobjects()) != 2 {
		t.Fatalf("&b not fused: %s", oem.Format(first.Obj))
	}
}
