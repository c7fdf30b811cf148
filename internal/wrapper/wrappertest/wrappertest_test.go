package wrappertest

import (
	"strings"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

func extent() []*oem.Object {
	return []*oem.Object{
		oem.NewSet("", "person",
			oem.New("", "name", "Joe Chung"), oem.New("", "dept", "CS"), oem.New("", "year", 3)),
		oem.NewSet("", "person",
			oem.New("", "name", "Ann Arbor"), oem.New("", "dept", "EE"), oem.New("", "year", 1)),
		oem.NewSet("", "person",
			oem.New("", "name", "Pat Smith"), oem.New("", "dept", "CS"), oem.New("", "year", 2)),
	}
}

func TestConformantSourcePasses(t *testing.T) {
	src, err := oemstore.FromObjects("good", extent()...)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Check(src, src.Export()); len(errs) != 0 {
		t.Fatalf("conformant source reported violations: %v", errs)
	}
}

func TestLimitedSourceRejectionsPass(t *testing.T) {
	inner, err := oemstore.FromObjects("weak", extent()...)
	if err != nil {
		t.Fatal(err)
	}
	// A source that honestly advertises no value conditions and rejects
	// them conforms: the probes it refuses are the ones it disclaims.
	src := &wrapper.Limited{Inner: inner, Caps: wrapper.Capabilities{}}
	if errs := Check(src, inner.Export()); len(errs) != 0 {
		t.Fatalf("honest limited source reported violations: %v", errs)
	}
}

// overPromiser advertises full capabilities but ignores value conditions:
// it answers every query over its extent as if the conditions were
// variables — the classic silently-wrong wrapper Check exists to catch.
type overPromiser struct {
	tops []*oem.Object
	gen  *oem.IDGen
}

func (o *overPromiser) Name() string                       { return "liar" }
func (o *overPromiser) Capabilities() wrapper.Capabilities { return wrapper.FullCapabilities() }

// Query claims every record matches, ignoring the query's conditions —
// wrong as soon as a probe carries one.
func (o *overPromiser) Query(q *msl.Rule) ([]*oem.Object, error) {
	return o.tops, nil
}

func TestOverPromisingSourceFailsLoudly(t *testing.T) {
	src := &overPromiser{tops: extent(), gen: oem.NewIDGen("liar")}
	errs := Check(src, extent())
	if len(errs) == 0 {
		t.Fatal("over-promising source passed conformance")
	}
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), "value condition") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a value-condition violation, got: %v", errs)
	}
}

func TestProbeDerivationNeedsUsableRecord(t *testing.T) {
	atomOnly := []*oem.Object{oem.New("", "x", 1)}
	src, err := oemstore.FromObjects("bare", atomOnly...)
	if err != nil {
		t.Fatal(err)
	}
	errs := Check(src, atomOnly)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "cannot derive probes") {
		t.Fatalf("errs = %v", errs)
	}
}

// mutator answers correctly but rewrites the set elements of the query
// it is given in place — harmless for a parsed query, and a corruption
// of every later probe for one bound from a shared template.
type mutator struct{ *oemstore.Source }

func (m mutator) Query(q *msl.Rule) ([]*oem.Object, error) {
	objs, err := m.Source.Query(q)
	if pc, ok := q.Tail[0].(*msl.PatternConjunct); ok {
		if set, ok := pc.Pattern.Value.(*msl.SetPattern); ok && len(set.Elems) > 1 {
			set.Elems[0], set.Elems[1] = set.Elems[1], set.Elems[0]
		}
	}
	return objs, err
}

func TestMutatingSourceFailsLoudly(t *testing.T) {
	inner, err := oemstore.FromObjects("mut", extent()...)
	if err != nil {
		t.Fatal(err)
	}
	var template bool
	for _, err := range Check(mutator{inner}, extent()) {
		if strings.Contains(err.Error(), "modified the template") {
			template = true
		}
	}
	if !template {
		t.Fatal("a source that rewrote a bound query's shared subtree passed conformance")
	}
}
