package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// sameObject is exact equality across the wire: oids, labels, kinds,
// member order, and float bits (so NaN equals itself and -0 differs from
// 0). A nil value compares equal to the empty set it travels as.
func sameObject(a, b *oem.Object) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.OID != b.OID || a.Label != b.Label || a.Kind() != b.Kind() {
		return false
	}
	switch v := a.Value.(type) {
	case oem.Float:
		return math.Float64bits(float64(v)) == math.Float64bits(float64(b.Value.(oem.Float)))
	case oem.Bytes:
		return bytes.Equal(v, b.Value.(oem.Bytes))
	case oem.String, oem.Int, oem.Bool:
		return a.Value == b.Value
	}
	return sameList(a.Subobjects(), b.Subobjects())
}

func sameList(a, b []*oem.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameObject(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameLists(a, b [][]*oem.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameList(a[i], b[i]) {
			return false
		}
	}
	return true
}

// chain nests n set objects, one inside the next.
func chain(n int) *oem.Object {
	o := oem.NewSet("", "c")
	for i := 1; i < n; i++ {
		o = oem.NewSet("", "c", o)
	}
	return o
}

// codecSamples covers every kind and the edge values the codec must carry
// bit for bit.
func codecSamples() [][]*oem.Object {
	person := oem.MustParse(`
	<&p1, person, set, {&n1, &y1, &f1, &b1, &x1, &e1}>
	  <&n1, name, string, 'Joe'>
	  <&y1, year, integer, 3>
	  <&f1, gpa, real, 3.5>
	  <&b1, active, boolean, true>
	  <&x1, blob, bytes, 0xdead>
	  <&e1, empty, set, {}>
	;`)[0]
	edge := oem.NewSet("&edge", "édge",
		oem.New("&nan", "nan", math.NaN()),
		oem.New("&negz", "negz", math.Copysign(0, -1)),
		oem.New("&inf", "inf", math.Inf(-1)),
		oem.New("&min", "min", int64(math.MinInt64)),
		oem.New("&max", "max", int64(math.MaxInt64)),
		oem.New("&neg", "neg", -300),
		oem.New("&f", "flag", false),
		oem.New("&nob", "nobytes", []byte{}),
		oem.New("", "", ""),
		oem.New("&u", "名前", "日本語 'quoted' \x00"),
		&oem.Object{OID: "&nil", Label: "nilset"},
		oem.NewSet("&dup", "name", oem.New("&dup2", "name", "again")),
	)
	return [][]*oem.Object{
		{person, edge, person},
		{},
		nil,
		{chain(maxDepth)},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	lists := codecSamples()
	data, err := encodeAnswers(lists)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeAnswers(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLists(lists, back) {
		t.Fatalf("round trip changed the answers")
	}
	if v := back[0][1].Sub("nilset").Value; v == nil || v.Kind() != oem.KindSet || len(v.(oem.Set)) != 0 {
		t.Fatalf("nil value decoded as %#v, want the empty set", v)
	}
	if !back[0][0].StructuralEqual(lists[0][0]) {
		t.Fatal("decoded object not structurally equal")
	}

	// Through gob, as the Response envelope carries them: one encoder and
	// decoder, several messages, and the decoded objects must survive
	// gob's reuse of its buffer.
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var got []Response
	for i := 0; i < 3; i++ {
		if err := enc.Encode(Response{Objects: lists[0], Batches: lists}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		got = append(got, resp)
	}
	for _, resp := range got {
		if !sameList(lists[0], resp.Objects) || !sameLists(lists, resp.Batches) {
			t.Fatal("gob round trip changed the answers")
		}
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(label, oid, s string, n int64, x float64, b []byte, flag bool) bool {
		obj := oem.NewSet(oem.OID(oid), label,
			oem.New("&b", "n", n), oem.New("&c", label, s), oem.New("", "x", x),
			oem.New("&d", "b", b), oem.New("&e", "flag", flag))
		lists := [][]*oem.Object{{obj, obj}}
		data, err := encodeAnswers(lists)
		if err != nil {
			return false
		}
		back, err := decodeAnswers(data)
		return err == nil && sameLists(lists, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// deepPayload hand-builds a payload nesting n set objects, bypassing the
// encoder's own depth bound.
func deepPayload(n int) []byte {
	p := binary.AppendUvarint(nil, 1)
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, 1)
	for i := 0; i < n; i++ {
		p = append(p, byte(oem.KindSet), 0) // kind, empty oid
		if i == 0 {
			p = append(p, 0, 1, 'c') // label "c" inline
		} else {
			p = append(p, 1) // label reference
		}
		if i < n-1 {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	return p
}

func TestCodecRejects(t *testing.T) {
	if _, err := decodeAnswers(deepPayload(maxDepth)); err != nil {
		t.Fatalf("payload at the depth bound rejected: %v", err)
	}
	if _, err := encodeAnswers([][]*oem.Object{{chain(maxDepth + 1)}}); !errors.Is(err, errCodec) {
		t.Fatalf("encode past the depth bound: err = %v", err)
	}
	if _, err := encodeAnswers([][]*oem.Object{{nil}}); !errors.Is(err, errCodec) {
		t.Fatalf("encode of a nil object: err = %v", err)
	}
	good, err := encodeAnswers([][]*oem.Object{{oem.New("&a", "a", "x")}})
	if err != nil {
		t.Fatal(err)
	}
	badKind := append([]byte(nil), good...)
	badKind[3] = 99 // header: 1 set, 1 object; set: 1 member; then the kind byte
	for name, data := range map[string][]byte{
		"too deep":        deepPayload(maxDepth + 1),
		"unknown kind":    badKind,
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"huge count":      {1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"huge set count":  {1, 1, 1, 0, 0, 0, 1, 'a', 0xff, 0xff, 0x03},
		"label reference": {1, 1, 1, byte(oem.KindBool), 0, 5, 1},
		"bad boolean":     {1, 1, 1, byte(oem.KindBool), 0, 0, 1, 'a', 2},
		"fewer objects":   {1, 2, 1, byte(oem.KindString), 0, 0, 1, 'a', 4, 'w', 'x', 'y', 'z'},
		"overlong varint": {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if _, err := decodeAnswers(data); !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
}

// deepSource answers every query with one object nested past the codec's
// depth bound.
type deepSource struct{ wrapper.Source }

func (deepSource) Query(*msl.Rule) ([]*oem.Object, error) {
	return []*oem.Object{chain(maxDepth + 1)}, nil
}

// TestCodecErrorKeepsConnection: answers the server cannot encode fail
// their own request with an error, and the shared connection carries on.
func TestCodecErrorKeepsConnection(t *testing.T) {
	addr, _ := startServer(t, &deepSource{whoisSource(t)})
	client, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn := client.mux
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	if _, err := client.Query(q); err == nil || !strings.Contains(err.Error(), "nest deeper") {
		t.Fatalf("unencodable answer: err = %v", err)
	}
	if _, err := client.Metrics(context.Background()); err != nil {
		t.Fatalf("connection unusable after a codec error: %v", err)
	}
	if client.mux != conn || conn.isDead() {
		t.Fatal("a codec error cost the shared connection")
	}
}

// FuzzAnswerDecode feeds the decoder hostile bytes: it must never panic,
// must allocate at most a fixed multiple of the input, and whatever it
// accepts must survive an encode and a second decode unchanged. The seed
// corpus in testdata holds encodings of codecSamples and hand-made
// payloads.
func FuzzAnswerDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lists, err := decodeAnswers(data)
		runtime.ReadMemStats(&after)
		// The decoder's slabs and boxes cost at most ~56 bytes per input
		// byte (see decodeAnswers); the slack absorbs small size classes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, errCodec) {
				t.Fatalf("decode error %v is not a codec error", err)
			}
			return
		}
		again, err := encodeAnswers(lists)
		if err != nil {
			t.Fatalf("re-encode of accepted payload: %v", err)
		}
		back, err := decodeAnswers(again)
		if err != nil {
			t.Fatalf("decode of re-encoded payload: %v", err)
		}
		if !sameLists(lists, back) {
			t.Fatal("decode → encode → decode changed the answers")
		}
	})
}
