package engine

import (
	"medmaker/internal/match"
	"medmaker/internal/oem"
)

// FuseNode merges result objects that share an object-id into a single
// object — MedMaker's object fusion over semantic object-ids. Two
// derivations of the same real-world entity (e.g. the same paper found in
// two bibliographies) construct objects with equal skolem ids; fusion
// unions their subobject sets, eliminating structurally duplicate members,
// so the virtual object carries the combined information. Objects with
// unique ids (the ordinary generated ones) pass through unchanged, and
// input order is preserved by first appearance.
type FuseNode struct {
	Child Node
}

// Label implements Node.
func (n *FuseNode) Label() string { return "fuse" }

// Detail implements Node.
func (n *FuseNode) Detail() string { return "merge result objects sharing an object-id" }

func (n *FuseNode) input() Node { return n.Child }

// Kids implements Node.
func (n *FuseNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *FuseNode) OutVars() []string { return []string{ResultVar} }

func (n *FuseNode) run(rs *runState, _ *opRecord, kids []*Table) (*Table, error) {
	in := kids[0]
	byOID := make(map[oem.OID]*oem.Object, in.Len())
	var order []*oem.Object
	results := in.Column(ResultVar)
	for i, b := range results {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		if b.Obj == nil {
			continue
		}
		obj := b.Obj
		prev, seen := byOID[obj.OID]
		if !seen || obj.OID == oem.NilOID {
			byOID[obj.OID] = obj
			order = append(order, obj)
			continue
		}
		mergeInto(prev, obj)
	}
	out := newProjTable([]string{ResultVar})
	for _, obj := range order {
		out.AppendBinding(ResultVar, match.BindObj(obj))
	}
	return out, nil
}

// mergeInto unions src's subobjects into dst, skipping members that are
// structural duplicates of ones already present (hash-indexed via
// oem.Deduper). Atomic-valued objects cannot be unioned; the first
// derivation wins and later atomic values are dropped (the specification
// promised equal-id objects denote one entity, so a conflict is a
// data-quality issue, not an engine one).
func mergeInto(dst, src *oem.Object) {
	dstSet, dstOK := dst.Value.(oem.Set)
	srcSet, srcOK := src.Value.(oem.Set)
	if dst.Value == nil {
		dstSet, dstOK = nil, true
	}
	if src.Value == nil {
		srcSet, srcOK = nil, true
	}
	if !dstOK || !srcOK {
		return
	}
	seen := oem.NewDeduper(len(dstSet) + len(srcSet))
	for _, have := range dstSet {
		seen.Seen(have)
	}
	changed := false
	for _, member := range srcSet {
		if !seen.Seen(member) {
			dstSet = append(dstSet, member)
			changed = true
		}
	}
	if changed {
		dst.Value = dstSet
		// dst's subtree changed under it: drop its memoized hash (the
		// only place MedMaker mutates an object after it may be shared).
		dst.InvalidateHash()
	}
}
