package oem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// refNodeHash is the structural hash written against hash/fnv: the byte
// sequence hashNode must fold, fed through the standard library's FNV-1a.
func refNodeHash(label string, value Value) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	h.Write([]byte{0})
	num := func(f float64) {
		var buf [9]byte
		buf[0] = 'n'
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
		h.Write(buf[:])
	}
	switch v := value.(type) {
	case nil:
		h.Write([]byte("set:0"))
	case String:
		h.Write([]byte{'s'})
		h.Write([]byte(v))
	case Int:
		num(float64(v))
	case Float:
		num(float64(v))
	case Bool:
		if v {
			h.Write([]byte{'b', 1})
		} else {
			h.Write([]byte{'b', 0})
		}
	case Bytes:
		h.Write([]byte{'y'})
		h.Write(v)
	case Set:
		hashes := make([]uint64, len(v))
		for i, sub := range v {
			hashes[i] = refObjectHash(sub)
		}
		sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
		h.Write([]byte{'S'})
		var buf [8]byte
		for _, sub := range hashes {
			binary.LittleEndian.PutUint64(buf[:], sub)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func refObjectHash(o *Object) uint64 {
	h := refNodeHash(o.Label, o.Value)
	if h == 0 {
		h = 1
	}
	return h
}

// hashAtoms and hashObjects are the golden corpus.
var hashAtoms = []Value{
	nil, String(""), String("Joe Chung"), Int(3), Int(-7), Float(3), Float(2.5),
	Float(math.Copysign(0, -1)), Float(math.Inf(1)), Bool(true), Bool(false),
	Bytes{}, Bytes{0, 1, 0xfe}, Set{},
}

func hashObjects() []*Object {
	person := NewSet("&p1", "person",
		New("&n1", "name", "Joe Chung"),
		New("&d1", "dept", "CS"),
		New("&y1", "year", 3),
		NewSet("&a1", "address", New("&c1", "city", "Palo Alto"), New("&z1", "zip", 94305)))
	big := NewSet("&b", "big")
	for i := 0; i < 2*smallSet+3; i++ {
		big.Value = append(big.Value.(Set), New(OID(fmt.Sprintf("&m%d", i)), "m", i%7))
	}
	return []*Object{
		New("&s", "name", "Joe Chung"),
		New("&f", "salary", 1.5),
		{Label: "empty"},
		NewSet("&e", "none"),
		person,
		NewSet("&q", "pair", person, New("&t", "tag", true)),
		big,
	}
}

// Golden hashes of the corpus, as the hash/fnv implementation computed
// them: a change to the byte sequence changes every dedup and join key.
var (
	goldenAtomHashes = []uint64{
		0xd850787e3f7102e5, 0x7965d57e94dee586, 0x6b4ca6842658117d, 0x6518a4b8f8d2def5,
		0x6541ecb8f8f65e61, 0x6518a4b8f8d2def5, 0x64f05cb8f8b11289, 0x64fe34b8f8bd0bed,
		0x63ed75b8f7d49430, 0x27291116f6f116b8, 0x27291216f6f1186b, 0x7965db7e94deefb8,
		0x4e067e2bd1ceb3ef, 0x7965b57e94deaf26,
	}
	goldenObjectHashes = []uint64{
		0x3f81b986e6d8a37a, 0xba9684ea46bac750, 0xb9dd65c01df6560, 0x62196a6e9ba14b56,
		0xbf9dc2efea1ecd71, 0x77a2241ac396f865, 0x1a7830d3e879d802,
	}
)

func TestStructuralHashGolden(t *testing.T) {
	for i, v := range hashAtoms {
		got, ref := HashValue(v), refNodeHash("\x00v", v)
		if got != ref {
			t.Errorf("HashValue(%#v) = %#x, hash/fnv reference %#x", v, got, ref)
		}
		if i < len(goldenAtomHashes) && got != goldenAtomHashes[i] {
			t.Errorf("HashValue(%#v) = %#x, golden %#x", v, got, goldenAtomHashes[i])
		}
	}
	for i, o := range hashObjects() {
		got, ref := o.StructuralHash(), refObjectHash(o)
		if got != ref {
			t.Errorf("StructuralHash(%s) = %#x, hash/fnv reference %#x", o.Label, got, ref)
		}
		if i < len(goldenObjectHashes) && got != goldenObjectHashes[i] {
			t.Errorf("StructuralHash(%s) = %#x, golden %#x", o.Label, got, goldenObjectHashes[i])
		}
	}
	if len(goldenAtomHashes) != len(hashAtoms) || len(goldenObjectHashes) != len(hashObjects()) {
		t.Errorf("golden tables cover %d atoms and %d objects of %d and %d", len(goldenAtomHashes), len(goldenObjectHashes), len(hashAtoms), len(hashObjects()))
	}
}

func TestHashValueAtomsDoNotAllocate(t *testing.T) {
	for _, v := range hashAtoms {
		if _, isSet := v.(Set); isSet {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { sinkHash = HashValue(v) }); n != 0 {
			t.Errorf("HashValue(%#v) allocates %.0f times", v, n)
		}
	}
}

var sinkHash uint64

// BenchmarkStructuralHash hashes the corpus objects unmemoized: the cost
// every fresh object pays once.
func BenchmarkStructuralHash(b *testing.B) {
	objs := hashObjects()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			sinkHash = o.structuralHash()
		}
	}
}
