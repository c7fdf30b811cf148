package medmaker

// Differential coverage for the heterogeneous source tier: each bundled
// source kind serving an extent must be indistinguishable — through a
// mediator, under every executor mode — from an OEM-native facade
// holding the same data. The capability differences between the kinds
// (the HTTP wrapper disclaims rests, wildcards, and joins; the XML and
// stream sources are fully capable) are exactly what the comparison
// exercises: the engine must relax what a source disclaims and
// compensate locally, never change the answers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper/wrappertest"
)

// heteroKinds enumerates the new source kinds, each built over the given
// people extent under the shared source name "src".
func heteroKinds(t *testing.T, people []*Object) []struct {
	name string
	src  Source
} {
	t.Helper()
	clones := func() []*Object {
		out := make([]*Object, len(people))
		for i, p := range people {
			out[i] = p.Clone()
		}
		return out
	}

	var buf bytes.Buffer
	if err := EncodeXML(&buf, people, XMLMapping{}); err != nil {
		t.Fatal(err)
	}
	xmlSrc, err := NewXMLSourceFromReader("src", &buf, XMLMapping{})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHTTPHandler(people))
	t.Cleanup(srv.Close)
	httpSrc, err := NewHTTPSource("src", srv.URL, WithHTTPRetries(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	streamSrc := NewStreamSource("src", StreamOptions{})
	if err := streamSrc.Append(clones()...); err != nil {
		t.Fatal(err)
	}

	return []struct {
		name string
		src  Source
	}{
		{"xml", xmlSrc},
		{"jsonhttp", httpSrc},
		{"stream", streamSrc},
	}
}

// TestHeteroSourcesMatchFacade holds every new source kind to the
// OEM-native facade's answers across the executor modes.
func TestHeteroSourcesMatchFacade(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	people := randomPeople(r, 25)
	facade := NewOEMSource("src")
	for _, p := range people {
		if err := facade.Add(p.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	spec := `<view {<name N> | R}> :- <person {<name N> | R}>@src.`
	queries := []string{
		`X :- X:<view {<name N>}>@med.`,
		`X :- X:<view {<dept 'CS'>}>@med.`,
		`X :- X:<view {<year 3>}>@med.`,
		`X :- X:<view {<e_mail E>}>@med.`,
	}

	mkMed := func(src Source, mode execMode) *Mediator {
		med, err := New(Config{
			Name: "med", Spec: spec,
			Sources:     []Source{src},
			Parallelism: mode.parallel,
			QueryBatch:  mode.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return med
	}

	ref := mkMed(facade, execMode{})
	for _, kind := range heteroKinds(t, people) {
		t.Run(kind.name, func(t *testing.T) {
			for _, mode := range executorModes {
				med := mkMed(kind.src, mode)
				for qi, q := range queries {
					want, err := ref.QueryString(q)
					if err != nil {
						t.Fatalf("facade query %d: %v", qi, err)
					}
					got, err := med.QueryString(q)
					if err != nil {
						t.Fatalf("%s query %d: %v", mode.name, qi, err)
					}
					ws, gs := canonicalize(want), canonicalize(got)
					if len(ws) != len(gs) {
						t.Fatalf("%s query %d: %d answers, facade has %d", mode.name, qi, len(gs), len(ws))
					}
					for i := range ws {
						if ws[i] != gs[i] {
							t.Fatalf("%s query %d: answer %d differs\ngot:  %s\nwant: %s",
								mode.name, qi, i, gs[i], ws[i])
						}
					}
				}
			}
		})
	}
}

// conformWithPushdown runs the conformance probes against a source built
// on the shared in-memory collection twice: with its candidate pushdown
// on, and ablated to full scans.
func conformWithPushdown(t *testing.T, src interface {
	Source
	SetPushdown(bool)
}, export []*Object) {
	t.Helper()
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("pushdown=%v", on), func(t *testing.T) {
			src.SetPushdown(on)
			wrappertest.Conformance(t, src, export)
		})
	}
}

// TestBundledSourcesConform runs the capability-conformance probes
// against every bundled source kind: each must answer what it advertises
// exactly like the generic evaluator, and refuse (or still answer
// correctly) what it disclaims.
func TestBundledSourcesConform(t *testing.T) {
	mk := func() []*Object {
		return []*Object{
			oem.NewSet("", "person",
				oem.New("", "name", "Joe Chung"), oem.New("", "dept", "CS"), oem.New("", "year", 3)),
			oem.NewSet("", "person",
				oem.New("", "name", "Ann Arbor"), oem.New("", "dept", "EE"), oem.New("", "year", 1)),
			oem.NewSet("", "person",
				oem.New("", "name", "Pat Smith"), oem.New("", "dept", "CS"), oem.New("", "year", 2)),
		}
	}

	t.Run("oemstore", func(t *testing.T) {
		src := NewOEMSource("src")
		if err := src.Add(mk()...); err != nil {
			t.Fatal(err)
		}
		conformWithPushdown(t, src, src.Export())
	})

	t.Run("relational", func(t *testing.T) {
		db := NewRelationalDB()
		tbl := db.MustCreateTable(RelationalSchema{
			Name: "employee",
			Columns: []RelationalColumn{
				{Name: "first_name", Kind: oem.KindString},
				{Name: "last_name", Kind: oem.KindString},
				{Name: "year", Kind: oem.KindInt},
			},
		})
		tbl.MustInsert("Joe", "Chung", 3)
		tbl.MustInsert("Ann", "Arbor", 1)
		w := NewRelationalWrapper("src", db)
		wrappertest.Conformance(t, w, w.Export())
	})

	t.Run("semistruct", func(t *testing.T) {
		store := NewRecordStore()
		if err := store.Add(
			Record{Kind: "person", Fields: []RecordField{
				{Name: "name", Value: "Joe Chung"}, {Name: "dept", Value: "CS"}, {Name: "year", Value: 3}}},
			Record{Kind: "person", Fields: []RecordField{
				{Name: "name", Value: "Ann Arbor"}, {Name: "dept", Value: "EE"}}},
		); err != nil {
			t.Fatal(err)
		}
		w := NewRecordWrapper("src", store)
		conformWithPushdown(t, w, w.Export())
	})

	t.Run("xmlsource", func(t *testing.T) {
		src, err := NewXMLSource("src", mk())
		if err != nil {
			t.Fatal(err)
		}
		conformWithPushdown(t, src, src.Export())
	})

	t.Run("jsonhttp", func(t *testing.T) {
		srv := httptest.NewServer(NewHTTPHandler(mk()))
		t.Cleanup(srv.Close)
		src, err := NewHTTPSource("src", srv.URL, WithHTTPRetries(2, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		wrappertest.Conformance(t, src, mk())
	})

	t.Run("streamsource", func(t *testing.T) {
		src := NewStreamSource("src", StreamOptions{})
		if err := src.Append(mk()...); err != nil {
			t.Fatal(err)
		}
		conformWithPushdown(t, src, src.Export())
	})

	t.Run("partitioned", func(t *testing.T) {
		members := []*OEMSource{NewOEMSource("src0"), NewOEMSource("src1")}
		all := mk()
		for _, o := range all {
			name, _ := o.Sub("name").AtomString()
			if err := members[ShardOf(name, len(members))].Add(o); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewPartitionedSource("src", "name", members[0], members[1])
		if err != nil {
			t.Fatal(err)
		}
		wrappertest.Conformance(t, p, mk())
	})
}

// TestStreamMatViewAbsorbsAppends: a materialized view over a stream
// source takes an append burst through the change feed alone — one delta
// per append, no fallback to a rebuild — and the query after it serves
// the grown extent with zero source exchanges.
func TestStreamMatViewAbsorbsAppends(t *testing.T) {
	const seed, burst = 20, 40
	person := func(name string) *Object {
		return oem.NewSet("", "person", oem.New("", "name", name), oem.New("", "dept", "CS"))
	}
	stream := NewStreamSource("swipes", StreamOptions{})
	for i := 0; i < seed; i++ {
		if err := stream.Append(person(fmt.Sprintf("S%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	med, err := New(Config{
		Name: "med", Spec: `<view {<name N> | R}> :- <person {<name N> | R}>@swipes.`,
		Sources:     []Source{stream},
		Materialize: &MatViewOptions{Views: []MatView{{Label: "view"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const all = `X :- X:<view {<name N>}>@med.`
	if _, err := med.QueryString(all); err != nil {
		t.Fatal(err)
	}
	med.WaitMatViews()
	base := med.MatViewStats()
	for i := 0; i < burst; i++ {
		if err := stream.Append(person(fmt.Sprintf("B%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	med.WaitMatViews()
	st := med.MatViewStats()
	if d, f, r := st.Deltas-base.Deltas, st.DeltaFallbacks-base.DeltaFallbacks, st.Refreshes-base.Refreshes; d != burst || f != 0 || r != 0 {
		t.Fatalf("burst of %d appends: %d deltas, %d fallbacks, %d rebuilds; want %d, 0, 0", burst, d, f, r, burst)
	}

	e0 := sourceExchanges("swipes")
	objs, err := med.QueryString(all)
	if err != nil {
		t.Fatal(err)
	}
	if e := sourceExchanges("swipes") - e0; e != 0 {
		t.Fatalf("query after the burst made %d exchanges, want 0", e)
	}
	if len(objs) != seed+burst {
		t.Fatalf("maintained view answers %d objects, want %d", len(objs), seed+burst)
	}
}
