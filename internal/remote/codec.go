package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"medmaker/internal/oem"
)

// Answers is one result set on the wire. Gob frames the Response envelope
// but hands this payload to the answer codec below (GobEncode/GobDecode)
// instead of reflecting over the object trees.
type Answers []*oem.Object

// AnswerBatches is the result sets of a batch request, in request order,
// carried in one codec payload.
type AnswerBatches [][]*oem.Object

// GobEncode implements gob.GobEncoder.
func (a Answers) GobEncode() ([]byte, error) {
	return encodeAnswers([][]*oem.Object{a})
}

// GobDecode implements gob.GobDecoder.
func (a *Answers) GobDecode(data []byte) error {
	lists, err := decodeAnswers(data)
	if err != nil {
		return err
	}
	if len(lists) != 1 {
		return fmt.Errorf("%w: %d result sets where one was expected", errCodec, len(lists))
	}
	*a = lists[0]
	return nil
}

// GobEncode implements gob.GobEncoder.
func (b AnswerBatches) GobEncode() ([]byte, error) { return encodeAnswers(b) }

// GobDecode implements gob.GobDecoder.
func (b *AnswerBatches) GobDecode(data []byte) error {
	lists, err := decodeAnswers(data)
	if err != nil {
		return err
	}
	*b = lists
	return nil
}

// The answer codec. One payload carries a list of result sets:
//
//	payload := uvarint(#sets) uvarint(#objects, all depths) set*
//	set     := uvarint(#members) object*
//	object  := kind:byte oid:bytes label value
//	label   := uvarint(0) bytes        first occurrence in the payload
//	         | uvarint(i+1)            the payload's i-th distinct label
//	value   := set (KindSet) | bytes (KindString, KindBytes)
//	         | zigzag varint (KindInt) | 8 bytes little-endian IEEE 754 (KindFloat)
//	         | 0 or 1 (KindBool)
//	bytes   := uvarint(len) byte*
//
// A nil value travels as the empty set. The total object count lets the
// decoder allocate every object, and every member slot, in one slab each.

// errCodec marks every encode and decode failure of the answer codec.
var errCodec = errors.New("remote: answer codec")

// maxDepth bounds object nesting on both sides of the wire, so hostile
// bytes cannot drive the decoder's recursion arbitrarily deep.
const maxDepth = 1000

// minObjectLen is the fewest bytes one encoded object can occupy (kind,
// empty oid, label reference, one-byte value); the decoder checks every
// declared count against it before allocating.
const minObjectLen = 4

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// encoder holds one payload's label table. Labels get indices in
// first-occurrence order during the sizing pass; the writing pass visits
// objects in the same order, so a label is written inline exactly when its
// index equals the number of labels written inline so far.
type encoder struct {
	labels  map[string]int
	inline  int
	objects int
	buf     []byte
}

func encodeAnswers(lists [][]*oem.Object) ([]byte, error) {
	e := encoder{labels: make(map[string]int)}
	size := uvarintLen(uint64(len(lists)))
	for _, list := range lists {
		size += uvarintLen(uint64(len(list)))
		for _, o := range list {
			n, err := e.size(o, 0)
			if err != nil {
				return nil, err
			}
			size += n
		}
	}
	size += uvarintLen(uint64(e.objects))
	e.buf = make([]byte, 0, size)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(lists)))
	e.buf = binary.AppendUvarint(e.buf, uint64(e.objects))
	for _, list := range lists {
		e.buf = binary.AppendUvarint(e.buf, uint64(len(list)))
		for _, o := range list {
			e.write(o)
		}
	}
	return e.buf, nil
}

// size returns o's encoded length, assigning label indices and counting
// objects; it is the only pass that can fail.
func (e *encoder) size(o *oem.Object, depth int) (int, error) {
	if o == nil {
		return 0, fmt.Errorf("%w: nil object", errCodec)
	}
	if depth >= maxDepth {
		return 0, fmt.Errorf("%w: objects nest deeper than %d", errCodec, maxDepth)
	}
	e.objects++
	n := 1 + uvarintLen(uint64(len(o.OID))) + len(o.OID)
	if i, ok := e.labels[o.Label]; ok {
		n += uvarintLen(uint64(i + 1))
	} else {
		e.labels[o.Label] = len(e.labels)
		n += 1 + uvarintLen(uint64(len(o.Label))) + len(o.Label)
	}
	switch v := o.Value.(type) {
	case oem.String:
		n += uvarintLen(uint64(len(v))) + len(v)
	case oem.Int:
		n += uvarintLen(zigzag(int64(v)))
	case oem.Float:
		n += 8
	case oem.Bool:
		n++
	case oem.Bytes:
		n += uvarintLen(uint64(len(v))) + len(v)
	case oem.Set:
		n += uvarintLen(uint64(len(v)))
		for _, sub := range v {
			m, err := e.size(sub, depth+1)
			if err != nil {
				return 0, err
			}
			n += m
		}
	case nil:
		n++
	default:
		return 0, fmt.Errorf("%w: unsupported value type %T", errCodec, v)
	}
	return n, nil
}

// write appends o; size has already validated it.
func (e *encoder) write(o *oem.Object) {
	e.buf = append(e.buf, byte(o.Kind()))
	e.buf = binary.AppendUvarint(e.buf, uint64(len(o.OID)))
	e.buf = append(e.buf, o.OID...)
	if i := e.labels[o.Label]; i == e.inline {
		e.inline++
		e.buf = append(e.buf, 0)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(o.Label)))
		e.buf = append(e.buf, o.Label...)
	} else {
		e.buf = binary.AppendUvarint(e.buf, uint64(i+1))
	}
	switch v := o.Value.(type) {
	case oem.String:
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		e.buf = append(e.buf, v...)
	case oem.Int:
		e.buf = binary.AppendVarint(e.buf, int64(v))
	case oem.Float:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(float64(v)))
	case oem.Bool:
		if v {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	case oem.Bytes:
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		e.buf = append(e.buf, v...)
	case oem.Set:
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		for _, sub := range v {
			e.write(sub)
		}
	case nil:
		e.buf = append(e.buf, 0)
	}
}

// decoder reads one payload. The payload is copied once into s — gob
// reuses the buffer it passes to GobDecode — and every oid, label and
// string atom is a substring of that copy. Objects and member slots come
// from slabs sized by the declared object count; the first error sticks
// and turns every later read into a zero value.
type decoder struct {
	s      string
	pos    int
	err    error
	labels []string
	objs   []oem.Object
	slots  []*oem.Object
}

func decodeAnswers(data []byte) ([][]*oem.Object, error) {
	d := decoder{s: string(data)}
	lists := make([][]*oem.Object, d.count(1))
	total := d.count(minObjectLen)
	if d.err != nil {
		return nil, d.err
	}
	d.objs = make([]oem.Object, total)
	d.slots = make([]*oem.Object, total)
	for i := range lists {
		lists[i] = d.list(0)
		if d.err != nil {
			return nil, d.err
		}
	}
	if d.pos != len(d.s) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCodec, len(d.s)-d.pos)
	}
	if len(d.objs) != 0 {
		return nil, fmt.Errorf("%w: payload declares %d objects but carries %d", errCodec, total, total-len(d.objs))
	}
	return lists, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errCodec, fmt.Sprintf(format, args...))
	}
}

// uvarint reads binary.AppendUvarint's encoding straight from the string.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.pos >= len(d.s) {
			d.fail("truncated varint")
			return 0
		}
		b := d.s[d.pos]
		d.pos++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	d.fail("varint overflows 64 bits at byte %d", d.pos)
	return 0
}

// count reads a count of items each at least unit bytes long and rejects
// it unless that many items fit in the bytes that remain.
func (d *decoder) count(unit int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64((len(d.s)-d.pos)/unit) {
		d.fail("count %d at byte %d exceeds the remaining %d bytes", v, d.pos, len(d.s)-d.pos)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.s) {
		d.fail("truncated at byte %d", d.pos)
		return 0
	}
	d.pos++
	return d.s[d.pos-1]
}

// list reads a member count and that many objects into slab slots. The
// slice's capacity ends at its length, so appending to it copies instead
// of overwriting the next list's slots.
func (d *decoder) list(depth int) []*oem.Object {
	n := d.count(minObjectLen)
	if n > len(d.slots) {
		d.fail("more objects than declared")
		return nil
	}
	out := d.slots[:n:n]
	d.slots = d.slots[n:]
	for i := range out {
		out[i] = d.object(depth)
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *decoder) label() string {
	ref := d.uvarint()
	if ref == 0 {
		l := d.str()
		d.labels = append(d.labels, l)
		return l
	}
	if ref > uint64(len(d.labels)) {
		d.fail("label reference %d with %d labels defined", ref, len(d.labels))
		return ""
	}
	return d.labels[ref-1]
}

func (d *decoder) object(depth int) *oem.Object {
	if depth >= maxDepth {
		d.fail("objects nest deeper than %d", maxDepth)
		return nil
	}
	// list reserved a slot for this object before calling, and slots and
	// objects started equal in number, so an object is always left.
	o := &d.objs[0]
	d.objs = d.objs[1:]
	kind := oem.Kind(d.byte())
	o.OID = oem.OID(d.str())
	o.Label = d.label()
	switch kind {
	case oem.KindSet:
		o.Value = oem.Set(d.list(depth + 1))
	case oem.KindString:
		o.Value = oem.String(d.str())
	case oem.KindInt:
		u := d.uvarint()
		o.Value = oem.Int(int64(u>>1) ^ -int64(u&1))
	case oem.KindFloat:
		if d.err == nil && len(d.s)-d.pos < 8 {
			d.fail("truncated real at byte %d", d.pos)
		}
		if d.err == nil {
			var u uint64
			for i := 7; i >= 0; i-- {
				u = u<<8 | uint64(d.s[d.pos+i])
			}
			d.pos += 8
			o.Value = oem.Float(math.Float64frombits(u))
		}
	case oem.KindBool:
		switch d.byte() {
		case 0:
			o.Value = oem.Bool(false)
		case 1:
			o.Value = oem.Bool(true)
		default:
			d.fail("bad boolean at byte %d", d.pos-1)
		}
	case oem.KindBytes:
		o.Value = oem.Bytes(d.str())
	default:
		d.fail("unknown value kind %d at byte %d", kind, d.pos)
	}
	return o
}
