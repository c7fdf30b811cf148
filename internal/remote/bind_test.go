package remote

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// servedWhois serves the whois sample on an isolated metrics registry and
// dials it.
func servedWhois(t *testing.T) (*Client, *metrics.Registry) {
	t.Helper()
	srv := NewServer(whoisSource(t))
	srv.Metrics = metrics.NewRegistry()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv.Metrics
}

// names renders each result set's name atoms, sorted per set.
func names(t *testing.T, results [][]*oem.Object) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, objs := range results {
		var ns []string
		for _, o := range objs {
			if s, ok := o.Sub("name").AtomString(); ok {
				ns = append(ns, s)
			}
		}
		out[i] = strings.Join(ns, ",")
	}
	return out
}

// TestBindRequestOverWire: a batch bound from one template travels as
// one bind request — no batch request — and answers exactly as the same
// rules evaluated in process.
func TestBindRequestOverWire(t *testing.T) {
	client, reg := servedWhois(t)
	tmpl, err := msl.Compile(msl.MustParseRule(`P :- P:<person {<name N> <relation R>}>@whois.`), []string{"R", "N"})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*msl.Rule
	for _, tuple := range [][]oem.Value{
		{oem.String("employee"), nil},
		{oem.String("student"), oem.String("Nick Naive")},
		{nil, nil},
		{oem.String("it's; B=s:y"), nil},
	} {
		q, err := tmpl.Bind(tuple)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	got, err := client.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wrapper.QueryBatchContext(context.Background(), whoisSource(t), qs)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := names(t, got), names(t, want); strings.Join(g, "|") != strings.Join(w, "|") || g[2] == "" {
		t.Fatalf("bind answers %q, in process %q", g, w)
	}
	snap := reg.Snapshot()
	if b, q := snap.Counter("remote.requests.bind"), snap.Counter("remote.requests.batch"); b != 1 || q != 0 {
		t.Fatalf("requests: bind %d, batch %d; want one bind and no batch", b, q)
	}
}

// TestMixedOriginBatchTravelsAsText: a batch whose rules carry no origin,
// or origins from different templates, goes out as MSL texts and still
// answers correctly.
func TestMixedOriginBatchTravelsAsText(t *testing.T) {
	client, reg := servedWhois(t)
	rule := msl.MustParseRule(`P :- P:<person {<name N> <relation R>}>@whois.`)
	t1, _ := msl.Compile(rule, []string{"R"})
	t2, _ := msl.Compile(rule, []string{"R"})
	b1, _ := t1.Bind([]oem.Value{oem.String("employee")})
	b2, _ := t2.Bind([]oem.Value{oem.String("student")})
	parsed := msl.MustParseRule(`P :- P:<person {<relation 'student'>}>@whois.`)
	for _, qs := range [][]*msl.Rule{{b1, parsed}, {b1, b2}, {parsed, b1}} {
		got, err := client.QueryBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := wrapper.QueryBatchContext(context.Background(), whoisSource(t), qs)
		if g, w := names(t, got), names(t, want); strings.Join(g, "|") != strings.Join(w, "|") {
			t.Fatalf("answers %q, in process %q", g, w)
		}
	}
	snap := reg.Snapshot()
	if b, q := snap.Counter("remote.requests.bind"), snap.Counter("remote.requests.batch"); b != 0 || q != 3 {
		t.Fatalf("requests: bind %d, batch %d; want no bind and three batches", b, q)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	tuples := [][]oem.Value{
		{oem.String("a'\\;="), nil, oem.Int(-7)},
		{oem.Float(math.Inf(-1)), oem.Bool(true), oem.Bytes{0, 255}},
		{nil, oem.Float(math.Copysign(0, -1)), oem.String("")},
	}
	data, err := encodeTuples(3, tuples)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTuples(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tuples {
		for j, v := range tuples[i] {
			w := back[i][j]
			switch v := v.(type) {
			case nil:
				if w != nil {
					t.Fatalf("tuple %d slot %d: free slot decoded as %v", i, j, w)
				}
			case oem.Float:
				if f, ok := w.(oem.Float); !ok || math.Float64bits(float64(f)) != math.Float64bits(float64(v)) {
					t.Fatalf("tuple %d slot %d: %v decoded as %v", i, j, v, w)
				}
			default:
				if w == nil || w.Kind() != v.Kind() || !w.Equal(v) {
					t.Fatalf("tuple %d slot %d: %v decoded as %v", i, j, v, w)
				}
			}
		}
	}
	if _, err := encodeTuples(1, [][]oem.Value{{oem.Set{}}}); !errors.Is(err, errCodec) {
		t.Fatalf("set value encoded: err = %v", err)
	}
}

// TestBindRequestRejects: malformed bind requests are answered with an
// error response, never bound.
func TestBindRequestRejects(t *testing.T) {
	srv := NewServer(whoisSource(t))
	srv.Metrics = metrics.NewRegistry()
	text := `P :- P:<person {<name N>}>@whois.`
	one := func(tag byte, rest ...byte) []byte { return append([]byte{1, 1, tag}, rest...) }
	cases := map[string]Request{
		"bad template":     {Template: "not msl", Slots: []string{"N"}, Tuples: one(0)},
		"duplicate slot":   {Template: text, Slots: []string{"N", "N"}, Tuples: []byte{2, 0}},
		"arity mismatch":   {Template: text, Slots: []string{"N"}, Tuples: []byte{2, 1, 0, 0}},
		"no slots":         {Template: text, Slots: nil, Tuples: []byte{0, 5}},
		"count overflow":   {Template: text, Slots: []string{"N"}, Tuples: []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		"set in a slot":    {Template: text, Slots: []string{"N"}, Tuples: one(byte(oem.KindSet) + 1)},
		"unknown tag":      {Template: text, Slots: []string{"N"}, Tuples: one(42)},
		"truncated string": {Template: text, Slots: []string{"N"}, Tuples: one(byte(oem.KindString)+1, 5, 'a')},
		"trailing bytes":   {Template: text, Slots: []string{"N"}, Tuples: one(0, 0)},
		"int label":        {Template: `P :- P:<L {<name N>}>@whois.`, Slots: []string{"L"}, Tuples: one(byte(oem.KindInt)+1, 2)},
	}
	// Amplification: a template with many slot occurrences bound by many
	// one-byte tuples would copy far more than the request carries.
	big := `P :- P:<person {` + strings.Repeat("<a N> ", 200) + `}>@whois.`
	cases["amplified"] = Request{Template: big, Slots: []string{"N"},
		Tuples: append([]byte{1, 0x90, 0x4e}, bytes.Repeat([]byte{byte(oem.KindBool) + 1, 1}, 10000)...)}
	for name, req := range cases {
		req.Kind = reqBind
		resp := srv.dispatch(req)
		if resp.Err == "" {
			t.Errorf("%s: accepted, answered %d result sets", name, len(resp.Batches))
		}
		if name == "amplified" && !strings.Contains(resp.Err, "copy") {
			t.Errorf("amplified request refused for another reason: %s", resp.Err)
		}
	}
	if got := srv.Metrics.Snapshot().Counter("remote.requests.bind"); got != int64(len(cases)) {
		t.Errorf("bind requests counted %d, want %d", got, len(cases))
	}
}

// nullSource answers every query with nothing, so a fuzzed dispatch
// measures the request handling alone.
type nullSource struct{}

func (nullSource) Name() string                           { return "null" }
func (nullSource) Capabilities() wrapper.Capabilities     { return wrapper.FullCapabilities() }
func (nullSource) Query(*msl.Rule) ([]*oem.Object, error) { return nil, nil }
func (nullSource) CountLabel(string) (int, bool)          { return 0, false }
func (nullSource) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return make([][]*oem.Object, len(qs)), nil
}

// FuzzBindRequest feeds the server's dispatch arbitrary bind requests —
// template text, comma-separated slot names, tuple bytes. It must never
// panic, must answer what it rejects with an error response, must answer
// what it accepts with one result set per tuple, and must allocate in
// proportion to the request.
func FuzzBindRequest(f *testing.F) {
	tuples := func(arity int, ts ...[]oem.Value) []byte {
		data, err := encodeTuples(arity, ts)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	text := `P :- P:<person {<name N> <relation R> | Rest}>@whois.`
	f.Add(text, "R,N", tuples(2, []oem.Value{oem.String("employee"), nil}, []oem.Value{nil, oem.String("x;B=s:y")}))
	f.Add(text, "R", tuples(1, []oem.Value{oem.Int(-3)}, []oem.Value{oem.Float(math.NaN())}))
	f.Add(`<out {<v X>}> :- <t {<a X> <b Y>}>@s AND lt(X, Y).`, "X,Y,Rest", tuples(3, []oem.Value{oem.Bytes{1}, oem.Bool(true), nil}))
	f.Add(text, "N", []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add("not msl", "", []byte{})
	srv := NewServer(nullSource{})
	srv.Metrics = metrics.NewRegistry()
	f.Fuzz(func(t *testing.T, text, slotList string, data []byte) {
		var slots []string
		if slotList != "" {
			slots = strings.Split(slotList, ",")
		}
		req := Request{Kind: reqBind, Template: text, Slots: slots, Tuples: data}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := srv.dispatch(req)
		runtime.ReadMemStats(&after)
		size := uint64(len(text) + len(slotList) + len(data))
		// Parsing, compiling and decoding are linear in the request, and
		// bindRules caps binding at maxBindCopy template nodes per request
		// byte; the slack absorbs fixed costs and small size classes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8192*size+256<<10 {
			t.Fatalf("a %d-byte bind request allocated %d bytes", size, alloc)
		}
		if resp.Err != "" {
			return
		}
		if len(slots) == 0 {
			t.Fatal("a bind request without slots was accepted")
		}
		n, err := decodeTuples(data, len(slots))
		if err != nil {
			t.Fatalf("accepted tuples the decoder rejects: %v", err)
		}
		if len(resp.Batches) != len(n) {
			t.Fatalf("%d result sets for %d tuples", len(resp.Batches), len(n))
		}
	})
}
