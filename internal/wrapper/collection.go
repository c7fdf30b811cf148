package wrapper

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// Collection is the one in-memory holder of top-level OEM objects behind
// every OEM-native source kind (oemstore, semistruct, xmlsource,
// streamsource): the object list, a label index over it, the change feed,
// and the Source entry points answering MSL over it through EvalWith (or,
// as a LocalScanner, handing over EvalWith's candidates).
// Each kind embeds a *Collection and adds only its own loading or
// retention.
//
// Invariants:
//   - Reads take a snapshot without copying or locking. Writers never
//     modify a published snapshot in place: Add appends past its end and
//     Remove builds new slices, so a query keeps a consistent extent while
//     mutations proceed.
//   - The candidate supplier only ever over-supplies: every object it
//     drops is one the matcher would reject.
//   - Deltas are emitted through Feed after the collection's lock is
//     released; Update and Append leave emission to callers, so they can
//     emit after their own locks are released too.
type Collection struct {
	// Feed broadcasts one Delta per mutation: Add and Remove emit through
	// it, callers of Update and Append do.
	Feed

	name    string
	caps    Capabilities
	autoOID *oem.IDGen // oids for caller objects lacking one
	gen     *oem.IDGen // oids for answer objects

	mu    sync.Mutex // serializes writers
	byOID map[oem.OID]*oem.Object
	ext   atomic.Pointer[extent]

	pushdown atomic.Bool
	supplied atomic.Int64
}

var (
	_ ContextSource       = (*Collection)(nil)
	_ BatchQuerier        = (*Collection)(nil)
	_ ContextBatchQuerier = (*Collection)(nil)
	_ Counter             = (*Collection)(nil)
	_ LocalScanner        = (*Collection)(nil)
	_ Notifier            = (*Collection)(nil)
)

// extent is one immutable snapshot of a collection's contents.
type extent struct {
	tops    []*oem.Object
	byLabel map[string][]*oem.Object
}

// NewCollection returns an empty collection for the named source
// advertising caps. Objects added without an oid get one prefixed with
// the name; answer objects get the prefix name+"q".
func NewCollection(name string, caps Capabilities) *Collection {
	c := &Collection{
		name:    name,
		caps:    caps,
		autoOID: oem.NewIDGen(name),
		gen:     oem.NewIDGen(name + "q"),
		byOID:   make(map[oem.OID]*oem.Object),
	}
	c.ext.Store(&extent{byLabel: map[string][]*oem.Object{}})
	c.pushdown.Store(true)
	return c
}

// Add inserts top-level objects after validating them, giving every
// object in their trees that lacks an oid a fresh one, and emits one
// insert delta. It adds nothing and returns an error if an oid collides,
// at any depth, with an object already in the collection or in objs.
func (c *Collection) Add(objs ...*oem.Object) error {
	d, err := c.Update(objs, 0)
	if err != nil {
		return err
	}
	c.Emit(d)
	return nil
}

// Remove deletes the top-level objects with the given oids, returns the
// removed roots in collection order, and emits one delete delta. OIDs
// that do not name a top-level object are ignored.
func (c *Collection) Remove(oids ...oem.OID) []*oem.Object {
	d, _ := c.apply(nil, func([]*oem.Object) []oem.OID { return oids })
	c.Emit(d)
	return d.Deleted
}

// Update adds objs as Add does, then evicts the dropOldest oldest
// top-level objects (new ones included), under one lock. It returns the
// delta describing both halves without emitting it: the caller emits it
// through Feed once its own locks are released.
func (c *Collection) Update(objs []*oem.Object, dropOldest int) (Delta, error) {
	return c.apply(objs, func(tops []*oem.Object) []oem.OID {
		oids := make([]oem.OID, min(dropOldest, len(tops)))
		for i := range oids {
			oids[i] = tops[i].OID
		}
		return oids
	})
}

// apply adds objs, then removes the top-level objects whose oids drop
// selects from the resulting snapshot, and publishes the new snapshot.
func (c *Collection) apply(objs []*oem.Object, drop func(tops []*oem.Object) []oem.OID) (Delta, error) {
	for _, o := range objs {
		if err := o.Validate(); err != nil {
			return Delta{}, fmt.Errorf("wrapper: %s: %w", c.name, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.recordOIDs(objs); err != nil {
		return Delta{}, err
	}
	x := c.ext.Load().with(objs)
	x, removed := x.without(drop(x.tops))
	for _, root := range removed {
		root.Walk(func(o *oem.Object, _ int) bool {
			delete(c.byOID, o.OID)
			return true
		})
	}
	c.ext.Store(x)
	return Delta{Source: c.name, Inserted: slices.Clone(objs), Deleted: removed}, nil
}

// recordOIDs assigns missing oids in objs' trees and indexes every object
// by oid, or indexes nothing and fails on a collision. The caller holds
// c.mu.
func (c *Collection) recordOIDs(objs []*oem.Object) error {
	fresh := make(map[oem.OID]*oem.Object)
	var err error
	for _, obj := range objs {
		obj.Walk(func(o *oem.Object, _ int) bool {
			if o.OID == oem.NilOID {
				o.OID = c.autoOID.Next()
			}
			prev, dup := c.byOID[o.OID]
			if !dup {
				prev, dup = fresh[o.OID]
			}
			if dup && prev != o {
				err = fmt.Errorf("wrapper: %s already contains an object with oid %s", c.name, o.OID)
				return false
			}
			fresh[o.OID] = o
			return true
		})
		if err != nil {
			return err
		}
	}
	maps.Copy(c.byOID, fresh)
	return nil
}

// Append adds objects whose oids the caller mints unique itself, as
// semistruct does from record positions. It neither validates nor records
// their oids (so they are invisible to Add's collision check) and emits
// no delta: the caller emits one through Feed once its own locks are
// released, which lets it append under a lock that orders its inserts.
func (c *Collection) Append(objs ...*oem.Object) {
	c.mu.Lock()
	c.ext.Store(c.ext.Load().with(objs))
	c.mu.Unlock()
}

// with returns the snapshot extended by objs, sharing x's arrays: appends
// land past the end of every slice a reader of x can see.
func (x *extent) with(objs []*oem.Object) *extent {
	if len(objs) == 0 {
		return x
	}
	next := &extent{tops: append(x.tops, objs...), byLabel: maps.Clone(x.byLabel)}
	for _, o := range objs {
		next.byLabel[o.Label] = append(next.byLabel[o.Label], o)
	}
	return next
}

// without returns the snapshot minus the top-level objects named by oids
// and the removed roots. Affected slices are rebuilt, never compacted in
// place, since readers of x may still be scanning them.
func (x *extent) without(oids []oem.OID) (*extent, []*oem.Object) {
	if len(oids) == 0 {
		return x, nil
	}
	drop := make(map[oem.OID]bool, len(oids))
	for _, oid := range oids {
		drop[oid] = true
	}
	var kept, removed []*oem.Object
	for _, o := range x.tops {
		if drop[o.OID] {
			removed = append(removed, o)
		} else {
			kept = append(kept, o)
		}
	}
	if len(removed) == 0 {
		return x, nil
	}
	next := &extent{tops: kept, byLabel: maps.Clone(x.byLabel)}
	rebuilt := make(map[string]bool)
	for _, root := range removed {
		label := root.Label
		if rebuilt[label] {
			continue
		}
		rebuilt[label] = true
		var same []*oem.Object
		for _, o := range x.byLabel[label] {
			if !drop[o.OID] {
				same = append(same, o)
			}
		}
		if len(same) == 0 {
			delete(next.byLabel, label)
		} else {
			next.byLabel[label] = same
		}
	}
	return next, removed
}

// Export returns the top-level objects in insertion order. The slice is a
// shared snapshot: callers must not modify it (appending is safe).
func (c *Collection) Export() []*oem.Object { return slices.Clip(c.ext.Load().tops) }

// Len returns the number of top-level objects.
func (c *Collection) Len() int { return len(c.ext.Load().tops) }

// Name implements Source.
func (c *Collection) Name() string { return c.name }

// Capabilities implements Source with the set given at construction.
func (c *Collection) Capabilities() Capabilities { return c.caps }

// CountLabel implements Counter from the label index.
func (c *Collection) CountLabel(label string) (int, bool) {
	return len(c.ext.Load().byLabel[label]), true
}

// Query implements Source: the query is checked against the advertised
// capabilities, then matched over one snapshot through the candidate
// supplier.
func (c *Collection) Query(q *msl.Rule) ([]*oem.Object, error) {
	if err := CheckCapabilities(q, c.caps, c.name); err != nil {
		return nil, err
	}
	x := c.ext.Load()
	return EvalWith(q, func(pc *msl.PatternConjunct) ([]*oem.Object, error) {
		return c.candidates(x, pc)
	}, c.gen)
}

// Candidates implements LocalScanner: the objects Query would match q's
// pattern over, from one snapshot.
func (c *Collection) Candidates(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	pc, err := CheckLocal(ctx, q, c.caps, c.name)
	if err != nil {
		return nil, err
	}
	return c.candidates(c.ext.Load(), pc)
}

// QueryContext implements ContextSource. Matching is in-process, so the
// context is only consulted up front.
func (c *Collection) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Query(q)
}

// QueryBatch implements BatchQuerier: an in-process source accepts a
// whole batch in one call, so a batch of parameterized queries costs one
// exchange.
func (c *Collection) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return EachQuery(c, qs)
}

// QueryBatchContext implements ContextBatchQuerier, checking the context
// between the batch's queries.
func (c *Collection) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	return EachQueryContext(ctx, c, qs)
}

// SetPushdown enables or disables candidate narrowing; with it off every
// query scans the full extent (the matcher still returns correct
// answers); tests compare supplied counts both ways.
func (c *Collection) SetPushdown(on bool) { c.pushdown.Store(on) }

// Supplied returns the cumulative number of top-level objects handed to
// the matcher.
func (c *Collection) Supplied() int64 { return c.supplied.Load() }

// candidates narrows snapshot x for one pattern conjunct: by top-level
// label first, then by pushed equality conditions on direct atomic
// children. Unsupported shapes fall back to the full extent.
func (c *Collection) candidates(x *extent, pc *msl.PatternConjunct) ([]*oem.Object, error) {
	tops := x.tops
	if p := pc.Pattern; c.pushdown.Load() && !p.Wildcard {
		if name := p.LabelName(); name != "" {
			tops = x.byLabel[name]
		} else if _, isParam := p.Label.(*msl.Param); isParam {
			return nil, fmt.Errorf("wrapper: %s: unsubstituted parameter in label of %s", c.name, p)
		}
		if conds := pushableConds(p); len(conds) > 0 {
			var kept []*oem.Object
			for _, o := range tops {
				if satisfiesAll(o, conds) {
					kept = append(kept, o)
				}
			}
			tops = kept
		}
	}
	c.supplied.Add(int64(len(tops)))
	return tops, nil
}

// cond is one pushed selection: the object must have a direct subobject
// with this label whose atomic value equals the constant.
type cond struct {
	label string
	value oem.Value
}

// pushableConds extracts "child label = constant" selections from the
// pattern's direct set elements and rest constraints — the same
// must-have-member semantics the matcher enforces, so filtering on them
// can only remove non-answers.
func pushableConds(p *msl.ObjectPattern) []cond {
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return nil
	}
	var conds []cond
	addFrom := func(ep *msl.ObjectPattern) {
		if ep.Wildcard {
			return
		}
		label := ep.LabelName()
		if label == "" {
			return
		}
		if c, isConst := ep.Value.(*msl.Const); isConst {
			conds = append(conds, cond{label: label, value: c.Value})
		}
	}
	for _, e := range sp.Elems {
		if ep, isPat := e.(*msl.ObjectPattern); isPat {
			addFrom(ep)
		}
	}
	for _, rc := range sp.RestConstraints {
		addFrom(rc)
	}
	return conds
}

func satisfiesAll(o *oem.Object, conds []cond) bool {
	subs := o.Subobjects()
	for _, c := range conds {
		found := false
		for _, sub := range subs {
			if sub.Label == c.label && sub.Value != nil && sub.Value.Equal(c.value) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
