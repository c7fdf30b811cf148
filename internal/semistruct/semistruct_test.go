package semistruct

import (
	"fmt"
	"sync"
	"testing"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// paperStore builds the whois source of the paper's Figure 2.3: irregular
// person records (one has e_mail, the other year).
func paperStore() *Store {
	s := NewStore()
	s.MustAdd(
		Record{Kind: "person", Fields: []Field{
			F("name", "Joe Chung"),
			F("dept", "CS"),
			F("relation", "employee"),
			F("e_mail", "chung@cs"),
		}},
		Record{Kind: "person", Fields: []Field{
			F("name", "Nick Naive"),
			F("dept", "CS"),
			F("relation", "student"),
			F("year", 3),
		}},
	)
	return s
}

func TestExportFigure23(t *testing.T) {
	w := NewWrapper("whois", paperStore())
	objs := w.Export()
	if len(objs) != 2 {
		t.Fatalf("exported %d objects", len(objs))
	}
	want := oem.MustParse(`
	<person, set, {<name, 'Joe Chung'>, <dept, 'CS'>, <relation, 'employee'>, <e_mail, 'chung@cs'>}>
	<person, set, {<name, 'Nick Naive'>, <dept, 'CS'>, <relation, 'student'>, <year, 3>}>`)
	for i := range want {
		if !objs[i].StructuralEqual(want[i]) {
			t.Errorf("export %d differs:\n%s", i, oem.Format(objs[i]))
		}
	}
	// Structure irregularity is preserved: only the first has e_mail.
	if objs[0].Sub("e_mail") == nil || objs[1].Sub("e_mail") != nil {
		t.Fatal("irregularity lost in export")
	}
}

func TestQuery(t *testing.T) {
	w := NewWrapper("whois", paperStore())
	q := msl.MustParseRule(`<out N R1> :-
	    <person {<name N> <dept 'CS'> <relation R> | R1}>@whois.`)
	got, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Head builds one <out> per binding, plus the flattened R1? No: head
	// has two terms per binding: the pattern and the bare variable R1
	// (which yields the rest members).
	if len(got) < 2 {
		t.Fatalf("query returned %d objects", len(got))
	}
}

// TestPushdownOffByDefault checks that a new wrapper hands the matcher
// every record, and that turning narrowing on supplies fewer records for
// the same answers.
func TestPushdownOffByDefault(t *testing.T) {
	q := msl.MustParseRule(`<out N> :- <person {<name N> <relation 'student'>}>@whois.`)
	answers := func(w *Wrapper) string {
		t.Helper()
		got, err := w.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(got)
	}
	off := NewWrapper("whois", paperStore())
	offAnswers := answers(off)
	if n := off.Supplied(); n != 2 {
		t.Fatalf("default wrapper supplied %d records, want all 2", n)
	}
	on := NewWrapper("whois", paperStore())
	on.SetPushdown(true)
	if got := answers(on); got != offAnswers {
		t.Fatalf("answers with pushdown %s, without %s", got, offAnswers)
	}
	if n := on.Supplied(); n != 1 {
		t.Fatalf("pushdown supplied %d records, want 1", n)
	}
}

func TestNestedFields(t *testing.T) {
	s := NewStore()
	s.MustAdd(Record{Kind: "person", Fields: []Field{
		F("name", "Ann"),
		F("address", []Field{F("city", "Palo Alto"), F("zip", "94301")}),
	}})
	w := NewWrapper("whois", s)
	objs := w.Export()
	addr := objs[0].Sub("address")
	if addr == nil || addr.Kind() != oem.KindSet {
		t.Fatalf("nested field not exported as set: %s", oem.Format(objs[0]))
	}
	if v, _ := addr.Sub("city").AtomString(); v != "Palo Alto" {
		t.Fatal("nested value lost")
	}
	// Wildcards reach nested fields.
	q := msl.MustParseRule(`<out C> :- <%city C>@whois.`)
	got, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("wildcard query returned %d", len(got))
	}
}

func TestRepeatedFields(t *testing.T) {
	s := NewStore()
	s.MustAdd(Record{Kind: "person", Fields: []Field{
		F("name", "Ann"), F("e_mail", "a@x"), F("e_mail", "a@y"),
	}})
	w := NewWrapper("whois", s)
	q := msl.MustParseRule(`<out E> :- <person {<e_mail E>}>@whois.`)
	got, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("repeated field produced %d bindings, want 2", len(got))
	}
}

func TestValidation(t *testing.T) {
	s := NewStore()
	if err := s.Add(Record{Kind: "", Fields: nil}); err == nil {
		t.Fatal("kindless record accepted")
	}
	if err := s.Add(Record{Kind: "p", Fields: []Field{F("", 1)}}); err == nil {
		t.Fatal("nameless field accepted")
	}
	if err := s.Add(Record{Kind: "p", Fields: []Field{F("x", nil)}}); err == nil {
		t.Fatal("nil value accepted")
	}
	if err := s.Add(Record{Kind: "p", Fields: []Field{
		F("addr", []Field{F("", 1)}),
	}}); err == nil {
		t.Fatal("nested nameless field accepted")
	}
	if err := s.Add(Record{Kind: "p", Fields: []Field{F("x", struct{}{})}}); err == nil {
		t.Fatal("unsupported value type accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected records were stored: Len = %d", s.Len())
	}
}

// TestWrappersOverOneStore checks that each wrapper over a shared store
// exports its own oids, and that after concurrent Adds every wrapper's
// export is in record order with record-index oids.
func TestWrappersOverOneStore(t *testing.T) {
	s := paperStore()
	a, b := NewWrapper("a", s), NewWrapper("b", s)
	a.Export()
	if got := b.Export()[0].OID; got != "&b_0" {
		t.Fatalf("wrapper b exports oid %s, want &b_0", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.MustAdd(Record{Kind: "person", Fields: []Field{F("name", fmt.Sprintf("g%d-%d", g, i))}})
			}
		}(g)
	}
	wg.Wait()
	s.mu.RLock()
	records := append([]Record(nil), s.records...)
	s.mu.RUnlock()
	for _, w := range []*Wrapper{a, b} {
		objs := w.Export()
		if len(objs) != len(records) {
			t.Fatalf("%s exports %d objects, want %d", w.Name(), len(objs), len(records))
		}
		for i, o := range objs {
			if want := oem.OID(fmt.Sprintf("&%s_%d", w.Name(), i)); o.OID != want {
				t.Fatalf("%s export %d has oid %s, want %s", w.Name(), i, o.OID, want)
			}
			if want := w.convertRecord(i, records[i]); !o.StructuralEqual(want) {
				t.Fatalf("%s export %d is not record %d:\n%s", w.Name(), i, i, oem.Format(o))
			}
		}
	}
}

func TestExportCacheInvalidation(t *testing.T) {
	s := paperStore()
	w := NewWrapper("whois", s)
	first := w.Export()
	if len(first) != 2 {
		t.Fatal("initial export")
	}
	again := w.Export()
	if &first[0] != &again[0] {
		t.Fatal("export not cached")
	}
	s.MustAdd(Record{Kind: "person", Fields: []Field{F("name", "New")}})
	after := w.Export()
	if len(after) != 3 {
		t.Fatalf("cache not invalidated: %d objects", len(after))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStableOIDs(t *testing.T) {
	w := NewWrapper("whois", paperStore())
	objs := w.Export()
	if objs[0].OID != "&whois_0" || objs[1].OID != "&whois_1" {
		t.Fatalf("record oids: %s, %s", objs[0].OID, objs[1].OID)
	}
	sub := objs[0].Subobjects()[0]
	if sub.OID != "&whois_0_0" {
		t.Fatalf("field oid: %s", sub.OID)
	}
}
