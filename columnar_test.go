package medmaker

// Differential coverage for the columnar binding tables and the morsel
// scheduler: batched and per-tuple parameterized queries at every
// interesting parallelism degree must return exactly the objects the
// strictly-serial executor returns, in the same order, across the
// differential suite's specs and queries. Run under -race this doubles as
// the scheduler's data-race harness.

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"medmaker/internal/oem"
)

// heteroSources stands up the heterogeneous tier over the same people
// extent the whois source holds: an XML-backed copy that round-trips
// through the codec (so the engine path exercises Decode(Encode(...)))
// and a stream log holding the people as appended events.
func heteroSources(t *testing.T, people []*Object) (*XMLSource, *StreamSource) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeXML(&buf, people, XMLMapping{}); err != nil {
		t.Fatal(err)
	}
	xmlSrc, err := NewXMLSourceFromReader("xml", &buf, XMLMapping{})
	if err != nil {
		t.Fatal(err)
	}
	streamSrc := NewStreamSource("stream", StreamOptions{})
	events := make([]*Object, len(people))
	for i, p := range people {
		events[i] = p.Clone()
	}
	if err := streamSrc.Append(events...); err != nil {
		t.Fatal(err)
	}
	return xmlSrc, streamSrc
}

func columnarSuite() (specs, queries []string) {
	specs = []string{
		specMS1,
		`<profile {<name N> | R}> :- <person {<name N> | R}>@whois.`,
		`<linked {<rel R> <fn FN>}> :- <person {<relation R>}>@whois AND <R {<first_name FN>}>@cs.`,
		`<senior {<name N> <year Y>}> :- <person {<name N> <year Y>}>@whois AND ge(Y, 3).`,
		`<anyone {<who N>}> :- <person {<name N>}>@whois.
		 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
		`<lonely {<name N>}> :-
		    <person {<name N> <relation R>}>@whois
		    AND NOT <R {<first_name FN>}>@cs.`,
		// Skolem object-ids: union + fuse on the result side.
		`<person(N) anyone {<name N>}> :- <person {<name N> <relation R>}>@whois AND <R {<first_name F>}>@cs.
		 <person(N) anyone {<name N>}> :- <person {<name N>}>@whois.`,
		// The XML tier serving the same profile view: an XML-backed copy
		// of the people must be indistinguishable from the native source.
		`<profile {<name N> | R}> :- <person {<name N> | R}>@xml.`,
		// Streamed events unioned with the relational side.
		`<anyone {<who N>}> :- <person {<name N>}>@stream.
		 <anyone {<who FN>}> :- <employee {<first_name FN>}>@cs.`,
	}
	queries = []string{
		// Queries are shared across specs: each spec answers the subset
		// whose head labels it defines; the rest are skipped per spec.
		`X :- X:<cs_person {<name 'P004 Q004'>}>@med.`,
		`X :- X:<cs_person {<year 3>}>@med.`,
		`X :- X:<profile {<name N>}>@med.`,
		`X :- X:<profile {<e_mail E>}>@med.`,
		`<pair R FN> :- <linked {<rel R> <fn FN>}>@med.`,
		`X :- X:<senior {<year 5>}>@med.`,
		`X :- X:<anyone {<who W>}>@med.`,
		`X :- X:<lonely {<name N>}>@med.`,
	}
	return specs, queries
}

// TestColumnarModesMatchSerial compares each executor mode and
// parallelism degree against a strictly serial run, object by object.
func TestColumnarModesMatchSerial(t *testing.T) {
	specs, queries := columnarSuite()
	degrees := []int{1, 2, runtime.GOMAXPROCS(0)}
	r := rand.New(rand.NewSource(7))
	people := randomPeople(r, 40)
	relations := randomRelations(r, 40)
	whoisSrc := NewOEMSource("whois")
	if err := whoisSrc.Add(people...); err != nil {
		t.Fatal(err)
	}
	csSrc := NewOEMSource("cs")
	if err := csSrc.Add(relations...); err != nil {
		t.Fatal(err)
	}
	xmlSrc, streamSrc := heteroSources(t, people)
	for si, spec := range specs {
		mk := func(par, batch int) *Mediator {
			med, err := New(Config{
				Name: "med", Spec: spec,
				Sources:     []Source{csSrc, whoisSrc, xmlSrc, streamSrc},
				Parallelism: par,
				QueryBatch:  batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			return med
		}
		serial := mk(1, 0)
		for qi, q := range queries {
			want, err := serial.QueryString(q)
			if err != nil {
				continue // query does not apply to this spec
			}
			for _, par := range degrees {
				for _, batch := range []int{0, 1} {
					got, err := mk(par, batch).QueryString(q)
					if err != nil {
						t.Fatalf("spec=%d query=%d par=%d batch=%d: %v", si, qi, par, batch, err)
					}
					if len(got) != len(want) {
						t.Fatalf("spec=%d query=%d par=%d batch=%d: %d objects, serial has %d",
							si, qi, par, batch, len(got), len(want))
					}
					for i := range want {
						if !want[i].StructuralEqual(got[i]) {
							t.Fatalf("spec=%d query=%d par=%d batch=%d: result %d differs:\n%s\nvs\n%s",
								si, qi, par, batch, i, oem.Format(want[i]), oem.Format(got[i]))
						}
					}
				}
			}
		}
	}
}
