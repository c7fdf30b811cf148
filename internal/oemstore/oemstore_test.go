package oemstore

import (
	"os"
	"path/filepath"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

const sample = `
<&p1, person, set, {&n1}>
  <&n1, name, string, 'Joe Chung'>
<&p2, person, set, {&n2}>
  <&n2, name, string, 'Sue Wong'>
;`

func TestFromTextAndQuery(t *testing.T) {
	src, err := FromText("people", sample)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "people" {
		t.Fatal("name")
	}
	if !src.Capabilities().Wildcards {
		t.Fatal("oem-native source should be fully capable")
	}
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@people.`)
	got, err := src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("query returned %d objects", len(got))
	}
}

func TestFromTextError(t *testing.T) {
	if _, err := FromText("x", "<<<"); err == nil {
		t.Fatal("bad OEM text accepted")
	}
}

func TestFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "people.oem")
	if err := os.WriteFile(path, []byte(sample), 0o600); err != nil {
		t.Fatal(err)
	}
	src, err := FromFile("people", path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 2 {
		t.Fatalf("loaded %d objects", src.Len())
	}
	if _, err := FromFile("people", filepath.Join(dir, "missing.oem")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAddAndAutoOIDs(t *testing.T) {
	src := New("s")
	obj := oem.NewSet("", "person", oem.New("", "name", "Ann"))
	if err := src.Add(obj); err != nil {
		t.Fatal(err)
	}
	if obj.OID == oem.NilOID {
		t.Fatal("store did not assign an oid")
	}
	q := msl.MustParseRule(`P :- P:<person>@s.`)
	got, err := src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("query returned %d", len(got))
	}
}

func TestFromJSON(t *testing.T) {
	src, err := FromJSON("people", "person", []byte(`[
	    {"name": "Joe", "dept": "CS"},
	    {"name": "Sue", "office": "G1"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@people.`)
	got, err := src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("JSON source answered %d", len(got))
	}
	// Single-document form.
	one, err := FromJSON("cfg", "config", []byte(`{"mode": "fast"}`))
	if err != nil {
		t.Fatal(err)
	}
	if one.Len() != 1 {
		t.Fatal("single-document JSON")
	}
	if _, err := FromJSON("bad", "x", []byte(`{{`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := os.WriteFile(path, []byte(`[{"name": "A"}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	src, err := FromJSONFile("p", "person", path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 1 {
		t.Fatal("load")
	}
	if _, err := FromJSONFile("p", "person", filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveFileRoundTrip(t *testing.T) {
	src, err := FromText("s", sample)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.oem")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := FromFile("s", path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := src.Export(), back.Export()
	if len(a) != len(b) {
		t.Fatalf("round trip sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].StructuralEqual(b[i]) {
			t.Fatalf("object %d changed:\n%s", i, oem.Format(b[i]))
		}
	}
	if err := src.SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir.oem")); err == nil {
		t.Fatal("SaveFile into missing directory succeeded")
	}
}

func TestCountLabel(t *testing.T) {
	src, err := FromText("s", `<person, set, {}> <person, set, {}> <book, set, {}>`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := src.CountLabel("person"); !ok || n != 2 {
		t.Fatalf("CountLabel(person) = %d, %v", n, ok)
	}
	if n, ok := src.CountLabel("ghost"); !ok || n != 0 {
		t.Fatalf("CountLabel(ghost) = %d, %v", n, ok)
	}
}

func TestFromObjects(t *testing.T) {
	src, err := FromObjects("s", oem.MustParse(sample)...)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 2 {
		t.Fatal("FromObjects lost objects")
	}
	// Duplicate oids across adds are rejected.
	if err := src.Add(oem.New("&p1", "person", 1)); err == nil {
		t.Fatal("duplicate oid accepted")
	}
}
