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
	in    *Table
	slots []int       // in's column of each template slot (-1: absent)
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

// newProbes prepares deduplication over the rows of in.
func newProbes(tmpl *msl.Template, in *Table) *probes {
	arity := len(tmpl.Slots())
	return &probes{
		tmpl:  tmpl,
		in:    in,
		slots: in.colIndexes(tmpl.Slots()),
		first: make(map[uint64]int32, in.Len()),
		slab:  make([]oem.Value, 0, in.Len()*arity),
		arity: arity,
	}
}

// add returns the probe index for row i's tuple, binding a new query when
// the tuple was not seen before.
func (p *probes) add(i int) (int, error) {
	start := len(p.slab)
	p.slab = p.in.appendTuple(p.slab, i, p.slots)
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
		for j := head; j >= 0; j = p.next[j] {
			if sameTuple(p.tuple(int(j)), tuple) {
				p.slab = p.slab[:start]
				return int(j), nil
			}
		}
	} else {
		head = -1
	}
	q, err := p.tmpl.Bind(tuple)
	if err != nil {
		return 0, err
	}
	j := int32(len(p.rules))
	p.rules = append(p.rules, q)
	p.next = append(p.next, head)
	p.first[h] = j
	return int(j), nil
}

func (p *probes) tuple(i int) []oem.Value { return p.slab[i*p.arity : (i+1)*p.arity] }

// appendTuple appends row i's binding tuple over the given columns: each
// column's atomic binding, or nil — unbound, set-bound and object-bound
// variables stay free in the instantiated query.
func (t *Table) appendTuple(dst []oem.Value, i int, cols []int) []oem.Value {
	for _, c := range cols {
		var v oem.Value
		if val, atomic := t.binding(i, c).AsValue(); atomic {
			if _, isSet := val.(oem.Set); !isSet {
				v = val
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

// instantiate maps every row of in to its query: of[i] indexes the
// returned queries. Rows that instantiate the template identically share
// one query, and a node without slots sends Send itself, once; perTuple
// gives each row its own query instead, slots or not. No rows send
// nothing.
func (n *QueryNode) instantiate(in *Table, perTuple bool) (qs []*msl.Rule, of []int, err error) {
	of = make([]int, in.Len())
	if in.Len() == 0 {
		return nil, of, nil
	}
	var tmpl *msl.Template
	if len(n.ParamVars) > 0 {
		if tmpl, err = n.template(); err != nil {
			return nil, nil, err
		}
	}
	if !perTuple {
		if tmpl == nil {
			return []*msl.Rule{n.Send}, of, nil
		}
		p := newProbes(tmpl, in)
		for i := range of {
			if of[i], err = p.add(i); err != nil {
				return nil, nil, err
			}
		}
		return p.rules, of, nil
	}
	qs = make([]*msl.Rule, in.Len())
	var slots []int
	if tmpl != nil {
		slots = in.colIndexes(tmpl.Slots())
	}
	for i := range of {
		of[i], qs[i] = i, n.Send
		if tmpl != nil {
			if qs[i], err = tmpl.Bind(in.appendTuple(nil, i, slots)); err != nil {
				return nil, nil, err
			}
		}
	}
	return qs, of, nil
}
