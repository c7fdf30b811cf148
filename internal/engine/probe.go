package engine

import (
	"bytes"
	"math"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// probes is the set of distinct instantiations a parameterized node
// sends for a batch of input rows. Each row's binding tuple — the atomic
// value of each slot variable, or nil for a slot the row leaves free —
// is deduplicated exactly: rows whose tuples agree slot by slot (same
// presence, same kind, same value bits) instantiate byte-identical
// queries and share one probe; any other pair of rows gets two.
type probes struct {
	tmpl  *msl.Template
	rules []*msl.Rule // one bound query per distinct tuple
	// first maps a tuple hash to its first probe, and next chains the
	// probes whose tuples share a hash; slab holds the distinct tuples
	// back to back, tuple i at slab[i*arity:].
	first map[uint64]int32
	next  []int32
	slab  []oem.Value
	arity int
}

// absentHash stands for a free slot in a tuple hash.
const absentHash = 0x5bd1e9955bd1e995

// newProbes prepares deduplication over up to rows input rows.
func newProbes(tmpl *msl.Template, rows int) *probes {
	arity := len(tmpl.Slots())
	return &probes{
		tmpl:  tmpl,
		first: make(map[uint64]int32, rows),
		slab:  make([]oem.Value, 0, rows*arity),
		arity: arity,
	}
}

// add returns the probe index for row's tuple, binding a new query when
// the tuple was not seen before.
func (p *probes) add(row match.Env) (int, error) {
	start := len(p.slab)
	p.slab = appendTuple(p.slab, p.tmpl.Slots(), row)
	tuple := p.slab[start:len(p.slab):len(p.slab)]
	h := match.HashSeed
	for _, v := range tuple {
		if v == nil {
			h = match.MixHash(h, absentHash)
		} else {
			h = match.MixHash(h, oem.HashValue(v))
		}
	}
	head, seen := p.first[h]
	if seen {
		for i := head; i >= 0; i = p.next[i] {
			if sameTuple(p.tuple(int(i)), tuple) {
				p.slab = p.slab[:start]
				return int(i), nil
			}
		}
	} else {
		head = -1
	}
	q, err := p.tmpl.Bind(tuple)
	if err != nil {
		return 0, err
	}
	i := int32(len(p.rules))
	p.rules = append(p.rules, q)
	p.next = append(p.next, head)
	p.first[h] = i
	return int(i), nil
}

func (p *probes) tuple(i int) []oem.Value { return p.slab[i*p.arity : (i+1)*p.arity] }

// appendTuple appends row's binding tuple for the slot variables: each
// slot's atomic binding, or nil — set-bound and object-bound variables
// stay free in the instantiated query.
func appendTuple(dst []oem.Value, slots []string, row match.Env) []oem.Value {
	for _, name := range slots {
		var v oem.Value
		if b, bound := row.Lookup(name); bound {
			if val, atomic := b.AsValue(); atomic {
				if _, isSet := val.(oem.Set); !isSet {
					v = val
				}
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// sameTuple reports whether two tuples instantiate the same query: equal
// presence and, slot by slot, the same kind and the same value — bit for
// bit for reals, so -0.0 and 0.0 (which print differently) stay apart.
func sameTuple(a, b []oem.Value) bool {
	for i := range a {
		if !sameAtom(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameAtom(a, b oem.Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case oem.Float:
		y, ok := b.(oem.Float)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case oem.Bytes:
		y, ok := b.(oem.Bytes)
		return ok && bytes.Equal(x, y)
	case oem.String, oem.Int, oem.Bool:
		return a == b
	}
	return false
}

// template returns the node's compiled Send, compiling it for graphs
// built without one.
func (n *QueryNode) template() (*msl.Template, error) {
	if n.Template != nil {
		return n.Template, nil
	}
	return msl.Compile(n.Send, n.ParamVars)
}

// instantiate maps every input row to its probe: of[i] indexes the
// returned queries. A node without slots sends Send itself, once.
func (n *QueryNode) instantiate(rows []match.Env) (qs []*msl.Rule, of []int, err error) {
	of = make([]int, len(rows))
	if len(n.ParamVars) == 0 {
		return []*msl.Rule{n.Send}, of, nil
	}
	tmpl, err := n.template()
	if err != nil {
		return nil, nil, err
	}
	p := newProbes(tmpl, len(rows))
	for i, row := range rows {
		if of[i], err = p.add(row); err != nil {
			return nil, nil, err
		}
	}
	return p.rules, of, nil
}
