package main

// The heterogeneous source tier benchmark (-hetero, the BENCH_9.json
// artifact). Three claims about the new source kinds, measured over the
// same person extent:
//
//  1. Per-kind exchange latency: the same selective view query answered
//     through each bundled source kind (native OEM store, XML wrapper,
//     JSON-over-HTTP wrapper on a loopback server, stream log). The
//     kinds must agree on the answers; the latencies show what each
//     transport costs.
//  2. Condition pushdown: the XML source's supplied-row counter with
//     pushdown on versus off for the same selective query. Pushdown must
//     reduce the rows handed to the evaluator by at least 5x, or the
//     benchmark exits non-zero.
//  3. Streaming maintenance: a materialized view over the stream log
//     absorbs an append burst through the change feed alone — no
//     rebuilds, no fallbacks — and the warm query afterwards serves the
//     grown extent with zero exchanges.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"medmaker"
	"medmaker/internal/oem"
)

// fatalIf aborts the benchmark on a setup error.
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
}

const heteroSpec = `<view {<name N> | R}> :- <person {<name N> | R}>@src.`

// heteroKindRow is one source-kind latency row.
type heteroKindRow struct {
	Kind    string `json:"kind"`
	NsPerOp int64  `json:"ns_per_op"`
	Answers int    `json:"answers"`
}

// heteroPushRow is one pushdown ablation row for the XML source.
type heteroPushRow struct {
	Pushdown     bool  `json:"pushdown"`
	NsPerOp      int64 `json:"ns_per_op"`
	RowsSupplied int64 `json:"rows_supplied_per_query"`
}

// heteroStream records the stream-maintenance burst.
type heteroStream struct {
	SeedEvents     int     `json:"seed_events"`
	BurstEvents    int     `json:"burst_events"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Deltas         int64   `json:"deltas_applied"`
	DeltaFallbacks int64   `json:"delta_fallbacks"`
	WarmExchanges  int     `json:"warm_query_exchanges"`
	FinalAnswers   int     `json:"final_answers"`
}

type heteroFile struct {
	Tool              string          `json:"tool"`
	Reps              int             `json:"reps"`
	GoMaxProcs        int             `json:"gomaxprocs"`
	Persons           int             `json:"persons"`
	Kinds             []heteroKindRow `json:"kinds"`
	Pushdown          []heteroPushRow `json:"pushdown"`
	PushdownReduction float64         `json:"pushdown_rows_reduction"`
	Stream            heteroStream    `json:"stream"`
}

// heteroPersons synthesizes n regular person objects.
func heteroPersons(n int) []*medmaker.Object {
	gen := oem.NewIDGen("hp")
	depts := []string{"CS", "EE", "ME", "BIO"}
	out := make([]*medmaker.Object, n)
	for i := range out {
		out[i] = oem.NewSet(gen.Next(), "person",
			oem.New(gen.Next(), "name", fmt.Sprintf("P%05d", i)),
			oem.New(gen.Next(), "dept", depts[i%len(depts)]),
			oem.New(gen.Next(), "year", 1+i%5))
	}
	return out
}

func heteroClone(objs []*medmaker.Object) []*medmaker.Object {
	out := make([]*medmaker.Object, len(objs))
	for i, o := range objs {
		out[i] = o.Clone()
	}
	return out
}

func heteroMed(src medmaker.Source) *medmaker.Mediator {
	return must(medmaker.New(medmaker.Config{
		Name: "med", Spec: heteroSpec, Sources: []medmaker.Source{src},
	}))
}

func runHetero(reps int, path string) {
	const persons = 2000
	people := heteroPersons(persons)
	selective := `X :- X:<view {<name 'P00010'>}>@med.`
	snap := heteroFile{
		Tool: "medbench -hetero", Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), Persons: persons,
	}

	// (1) Per-kind latency over identical extents.
	oemSrc := medmaker.NewOEMSource("src")
	fatalIf(oemSrc.Add(heteroClone(people)...))

	var buf bytes.Buffer
	fatalIf(medmaker.EncodeXML(&buf, people, medmaker.XMLMapping{}))
	xmlSrc := must(medmaker.NewXMLSourceFromReader("src", &buf, medmaker.XMLMapping{}))

	httpSrv := httptest.NewServer(medmaker.NewHTTPHandler(people))
	defer httpSrv.Close()
	httpSrc := must(medmaker.NewHTTPSource("src", httpSrv.URL))

	streamSrc := medmaker.NewStreamSource("src", medmaker.StreamOptions{})
	fatalIf(streamSrc.Append(heteroClone(people)...))

	kinds := []struct {
		name string
		src  medmaker.Source
	}{
		{"oemstore", oemSrc}, {"xml", xmlSrc}, {"jsonhttp", httpSrc}, {"stream", streamSrc},
	}
	wantAnswers := -1
	for _, k := range kinds {
		med := heteroMed(k.src)
		objs := must(query(med, selective))
		if wantAnswers < 0 {
			wantAnswers = len(objs)
		} else if len(objs) != wantAnswers {
			fmt.Fprintf(os.Stderr, "medbench: kind %s returned %d answers, want %d\n", k.name, len(objs), wantAnswers)
			os.Exit(1)
		}
		d := timeIt(reps, func() { must(query(med, selective)) })
		snap.Kinds = append(snap.Kinds, heteroKindRow{Kind: k.name, NsPerOp: d.Nanoseconds(), Answers: len(objs)})
	}
	if wantAnswers < 1 {
		fmt.Fprintln(os.Stderr, "medbench: selective hetero query returned no answers")
		os.Exit(1)
	}

	// (2) XML pushdown ablation: rows the source hands the evaluator.
	var rowsOn, rowsOff int64
	for _, push := range []bool{true, false} {
		xmlSrc.SetPushdown(push)
		med := heteroMed(xmlSrc)
		s0 := xmlSrc.Supplied()
		must(query(med, selective))
		rows := xmlSrc.Supplied() - s0
		d := timeIt(reps, func() { must(query(med, selective)) })
		snap.Pushdown = append(snap.Pushdown, heteroPushRow{
			Pushdown: push, NsPerOp: d.Nanoseconds(), RowsSupplied: rows,
		})
		if push {
			rowsOn = rows
		} else {
			rowsOff = rows
		}
	}
	xmlSrc.SetPushdown(true)
	if rowsOn <= 0 || rowsOff <= 0 {
		fmt.Fprintf(os.Stderr, "medbench: pushdown rows not measured (on=%d off=%d)\n", rowsOn, rowsOff)
		os.Exit(1)
	}
	snap.PushdownReduction = float64(rowsOff) / float64(rowsOn)
	if snap.PushdownReduction < 5 {
		fmt.Fprintf(os.Stderr, "medbench: pushdown reduced supplied rows only %.1fx (want >= 5x)\n", snap.PushdownReduction)
		os.Exit(1)
	}

	// (3) Stream maintenance: a burst of appends absorbed by the change
	// feed, verified fresh without a rebuild.
	const seedEvents, burst = 200, 400
	liveStream := medmaker.NewStreamSource("src", medmaker.StreamOptions{})
	fatalIf(liveStream.Append(heteroClone(people[:seedEvents])...))
	med := must(medmaker.New(medmaker.Config{
		Name: "med", Spec: heteroSpec, Sources: []medmaker.Source{liveStream},
		Materialize: &medmaker.MatViewOptions{Views: []medmaker.MatView{{Label: "view"}}},
	}))
	all := `X :- X:<view {<name N>}>@med.`
	must(query(med, all)) // build the extent
	med.WaitMatViews()
	base := med.MatViewStats()
	gen := oem.NewIDGen("burst")
	start := time.Now()
	for i := 0; i < burst; i++ {
		fatalIf(liveStream.Append(oem.NewSet(gen.Next(), "person",
			oem.New(gen.Next(), "name", fmt.Sprintf("B%05d", i)),
			oem.New(gen.Next(), "dept", "CS"))))
	}
	med.WaitMatViews()
	elapsed := time.Since(start)
	st := med.MatViewStats()

	e0, _ := engineTraffic()
	final := must(query(med, all))
	e1, _ := engineTraffic()
	warmExchanges := e1 - e0

	snap.Stream = heteroStream{
		SeedEvents: seedEvents, BurstEvents: burst,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
		EventsPerSec:   float64(burst) / elapsed.Seconds(),
		Deltas:         st.Deltas - base.Deltas,
		DeltaFallbacks: st.DeltaFallbacks - base.DeltaFallbacks,
		WarmExchanges:  warmExchanges,
		FinalAnswers:   len(final),
	}
	if len(final) != seedEvents+burst {
		fmt.Fprintf(os.Stderr, "medbench: maintained view serves %d answers, want %d\n", len(final), seedEvents+burst)
		os.Exit(1)
	}
	if snap.Stream.Deltas == 0 || snap.Stream.DeltaFallbacks != 0 {
		fmt.Fprintf(os.Stderr, "medbench: stream maintenance not delta-driven: %+v\n", snap.Stream)
		os.Exit(1)
	}
	if warmExchanges != 0 {
		fmt.Fprintf(os.Stderr, "medbench: warm stream query performed %d exchanges, want 0\n", warmExchanges)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (pushdown reduction %.0fx, stream rate %.0f events/sec)\n",
		path, snap.PushdownReduction, snap.Stream.EventsPerSec)
}
