package oem

import (
	"strconv"
	"sync/atomic"
)

// IDGen issues fresh object-ids. A single generator may be shared by many
// goroutines (result construction in the datamerge engine is the main
// consumer). OIDs carry a prefix so ids from different origins — sources,
// mediators, temporary result objects — stay recognizably distinct, as in
// the paper's &p1 / &cp1 / x032 naming.
type IDGen struct {
	prefix string
	n      atomic.Uint64
}

// NewIDGen returns a generator producing oids "&<prefix><n>".
func NewIDGen(prefix string) *IDGen {
	return &IDGen{prefix: prefix}
}

// Next returns a fresh oid.
func (g *IDGen) Next() OID {
	n := g.n.Add(1)
	buf := make([]byte, 0, len(g.prefix)+21)
	buf = append(buf, '&')
	buf = append(buf, g.prefix...)
	buf = strconv.AppendUint(buf, n, 10)
	return OID(buf)
}

// AssignOIDs walks the object tree and gives every object lacking an oid a
// fresh one from g. It returns the root for chaining.
func AssignOIDs(root *Object, g *IDGen) *Object {
	root.Walk(func(o *Object, _ int) bool {
		if o.OID == NilOID {
			o.OID = g.Next()
		}
		return true
	})
	return root
}
