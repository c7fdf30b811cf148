package oem

import (
	"math"
	"slices"
)

// structuralHash computes a 64-bit hash of the object's structure that is
// invariant under object-ids and subobject order, so that
// StructuralEqual(a, b) implies structuralHash(a) == structuralHash(b).
// It is the basis of duplicate elimination and of Set.Equal's matching.
func (o *Object) structuralHash() uint64 {
	if o == nil {
		return 0
	}
	return hashNode(o.Label, o.Value)
}

// FNV-1a, 64 bit, inlined so hashing allocates nothing: the hash is
// bit-identical to hash/fnv's New64a over the same bytes.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvAdd folds in the bytes of s.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime }

// fnvUint64 folds v in as its 8 little-endian bytes.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// smallSet is how many member hashes a set hashes from a stack buffer.
const smallSet = 16

// hashNode hashes an object with the given label and value: the label, a
// zero byte, then a kind tag and the value's bytes.
func hashNode(label string, value Value) uint64 {
	h := fnvByte(fnvAdd(fnvOffset, label), 0)
	switch v := value.(type) {
	case nil:
		h = fnvAdd(h, "set:0")
	case String:
		h = fnvAdd(fnvByte(h, 's'), string(v))
	case Int:
		// Ints and equal-valued floats must hash alike because they
		// compare equal (3 == 3.0).
		h = fnvUint64(fnvByte(h, 'n'), math.Float64bits(float64(v)))
	case Float:
		h = fnvUint64(fnvByte(h, 'n'), math.Float64bits(float64(v)))
	case Bool:
		h = fnvByte(h, 'b')
		if v {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	case Bytes:
		h = fnvAdd(fnvByte(h, 'y'), []byte(v))
	case Set:
		// Combine member hashes order-insensitively: hash the sorted
		// multiset of member hashes. Members go through the memoized
		// StructuralHash, so a shared subtree is walked at most once
		// however many parents hash it.
		var buf [smallSet]uint64
		hashes := buf[:0]
		if len(v) > smallSet {
			hashes = make([]uint64, 0, len(v))
		}
		for _, sub := range v {
			hashes = append(hashes, sub.StructuralHash())
		}
		slices.Sort(hashes)
		h = fnvByte(h, 'S')
		for _, sub := range hashes {
			h = fnvUint64(h, sub)
		}
	}
	return h
}

// StructuralHash exposes the structural hash for callers that build
// hash-based duplicate-elimination or join structures over objects, such
// as the datamerge engine. The hash is memoized on the object: objects
// are immutable once shared, so it is computed at most once per object —
// join probes and duplicate eliminations that used to rehash whole OEM
// subtrees per comparison now pay a single atomic load. A true hash of 0
// is deterministically remapped to 1 so 0 stays free as the "not yet
// computed" sentinel; concurrent first calls may both compute, but store
// the same value, so the race is benign and data-race-free.
func (o *Object) StructuralHash() uint64 {
	if o == nil {
		return 0
	}
	if h := o.hashMemo.Load(); h != 0 {
		return h
	}
	h := o.structuralHash()
	if h == 0 {
		h = 1
	}
	o.hashMemo.Store(h)
	return h
}

// InvalidateHash drops the object's memoized structural hash. The one
// engine operation that mutates a shared object — fusion unioning
// subobject sets under a semantic object-id — must call this on the
// object it mutated (ancestors, if any, need invalidation too; fusion
// only ever mutates top-level result objects).
func (o *Object) InvalidateHash() {
	if o == nil {
		return
	}
	o.hashMemo.Store(0)
}

// HashValue hashes a standalone Value with the same invariants as
// StructuralHash: values that compare Equal hash equally.
func HashValue(v Value) uint64 {
	return hashNode("\x00v", v)
}
