package relational

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Wrapper exports a relational database as an OEM source, as the paper's
// cs wrapper does (Figure 2.2): each row becomes a top-level object
// labelled with its table name, with one atomic subobject per non-NULL
// column. The schema is thereby incorporated into the individual objects,
// which is what lets an MSL label variable range over relation names and
// resolve schematic discrepancies.
//
// The wrapper pushes the selections it can recognize — constant values on
// column subobjects of a constant-label pattern — into indexed or scanned
// relational selections before converting rows to OEM; everything else is
// handled by generic OEM matching over the converted candidates, so
// push-down is purely an optimization.
type Wrapper struct {
	name string
	db   *DB
	gen  *oem.IDGen

	// rowObjs caches the OEM conversion of each table row, indexed by
	// row id. Rows are append-only and row oids are stable by contract,
	// so a converted row object is immutable and can be shared by every
	// answer that selects it — exactly as an OEM store shares its
	// top-level objects. Parameterized plans re-select overlapping rows
	// constantly; the cache makes conversion a once-per-row cost.
	mu      sync.Mutex
	rowObjs map[*Table][]*oem.Object

	feed wrapper.Feed
}

var (
	_ wrapper.Source              = (*Wrapper)(nil)
	_ wrapper.BatchQuerier        = (*Wrapper)(nil)
	_ wrapper.ContextSource       = (*Wrapper)(nil)
	_ wrapper.ContextBatchQuerier = (*Wrapper)(nil)
	_ wrapper.Notifier            = (*Wrapper)(nil)
	_ wrapper.LocalScanner        = (*Wrapper)(nil)
)

// NewWrapper wraps db as a source with the given name. Rows inserted into
// the database after the wrapper is created — into current or future
// tables — are emitted as change-feed deltas to wrapper.Notifier
// subscribers.
func NewWrapper(name string, db *DB) *Wrapper {
	w := &Wrapper{name: name, db: db, gen: oem.NewIDGen(name + "q"),
		rowObjs: make(map[*Table][]*oem.Object)}
	db.onInsert(func(t *Table, id int) {
		if !w.feed.Active() {
			return
		}
		objs := w.convert(t, []int{id})
		if len(objs) > 0 {
			w.feed.Emit(wrapper.Delta{Source: w.name, Inserted: objs})
		}
	})
	return w
}

// OnChange implements wrapper.Notifier: fn receives an insert delta —
// carrying the same pointer-stable row object later queries return — for
// every subsequent Insert into the wrapped database.
func (w *Wrapper) OnChange(fn func(wrapper.Delta)) { w.feed.OnChange(fn) }

// Name implements wrapper.Source.
func (w *Wrapper) Name() string { return w.name }

// Capabilities implements wrapper.Source. Relational data is flat, and
// the original cs-style wrappers did not search at arbitrary depth, so
// wildcards are not supported; the mediator compensates.
func (w *Wrapper) Capabilities() wrapper.Capabilities {
	return wrapper.Capabilities{
		ValueConditions: true,
		RestConstraints: true,
		Wildcards:       false,
		MultiPattern:    true,
	}
}

// Query implements wrapper.Source.
func (w *Wrapper) Query(q *msl.Rule) ([]*oem.Object, error) {
	if err := wrapper.CheckCapabilities(q, w.Capabilities(), w.name); err != nil {
		return nil, err
	}
	return wrapper.EvalWith(q, w.candidates, w.gen)
}

// Candidates implements wrapper.LocalScanner: the converted rows Query
// would match q's pattern over, selected through the same indexes.
func (w *Wrapper) Candidates(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	pc, err := wrapper.CheckLocal(ctx, q, w.Capabilities(), w.name)
	if err != nil {
		return nil, err
	}
	return w.candidates(pc)
}

// QueryContext implements wrapper.ContextSource: the context is checked
// up front, then the in-process evaluation runs to completion.
func (w *Wrapper) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.Query(q)
}

// QueryBatch implements wrapper.BatchQuerier: an in-process wrapper
// accepts a whole batch in one call, so a batch of parameterized queries
// costs one exchange.
func (w *Wrapper) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return wrapper.EachQuery(w, qs)
}

// QueryBatchContext implements wrapper.ContextBatchQuerier, checking the
// context between the batch's queries.
func (w *Wrapper) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	return wrapper.EachQueryContext(ctx, w, qs)
}

// CountLabel implements wrapper.Counter: the label is a table name and
// the count its row count.
func (w *Wrapper) CountLabel(label string) (int, bool) {
	t, ok := w.db.Table(label)
	if !ok {
		return 0, true // known absent: zero rows
	}
	return t.Len(), true
}

// Export converts every row of every table to OEM, in table-name order —
// the full source export used by figure regeneration and by patterns whose
// label is a variable.
func (w *Wrapper) Export() []*oem.Object {
	var out []*oem.Object
	for _, name := range w.db.Names() {
		t, _ := w.db.Table(name)
		ids := make([]int, t.Len())
		for i := range ids {
			ids[i] = i
		}
		out = append(out, w.convert(t, ids)...)
	}
	return out
}

// candidates returns the converted rows a pattern conjunct could match,
// using the table name and pushable equality/comparison conditions to
// narrow the relational selection first.
func (w *Wrapper) candidates(pc *msl.PatternConjunct) ([]*oem.Object, error) {
	tables, err := w.tablesFor(pc.Pattern)
	if err != nil {
		return nil, err
	}
	var out []*oem.Object
	for _, t := range tables {
		conds := pushableConds(t.Schema(), pc.Pattern)
		// Parameterized plans re-select on the same columns for every
		// binding; building the equality index on first use turns the
		// remaining selections into hash probes. pushableConds only
		// emits conditions on real columns, so CreateIndex cannot fail.
		for _, c := range conds {
			if c.Op == OpEq {
				if err := t.CreateIndex(c.Column); err != nil {
					return nil, err
				}
			}
		}
		ids, err := t.Select(conds)
		if err != nil {
			return nil, err
		}
		out = append(out, w.convert(t, ids)...)
	}
	return out, nil
}

func (w *Wrapper) tablesFor(p *msl.ObjectPattern) ([]*Table, error) {
	if name := p.LabelName(); name != "" {
		t, ok := w.db.Table(name)
		if !ok {
			return nil, nil // unknown relation: no candidates, not an error
		}
		return []*Table{t}, nil
	}
	if _, isParam := p.Label.(*msl.Param); isParam {
		return nil, fmt.Errorf("relational: unsubstituted parameter in label of %s", p)
	}
	// Label variable: all tables (schematic-discrepancy queries).
	var out []*Table
	for _, name := range w.db.Names() {
		t, _ := w.db.Table(name)
		out = append(out, t)
	}
	return out, nil
}

// pushableConds extracts "column op constant" conditions from the
// pattern's direct set elements. Only elements with a constant label
// naming a real column and a constant value qualify; rest constraints of
// the form {<col const>} qualify too, since rest members are just the
// unlisted columns.
func pushableConds(schema Schema, p *msl.ObjectPattern) []Cond {
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return nil
	}
	var conds []Cond
	addFrom := func(ep *msl.ObjectPattern) {
		if ep.Wildcard {
			return
		}
		col := ep.LabelName()
		if col == "" || schema.ColumnIndex(col) < 0 {
			return
		}
		if c, isConst := ep.Value.(*msl.Const); isConst {
			conds = append(conds, Cond{Column: col, Op: OpEq, Value: c.Value})
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

// convert turns the selected rows of a table into OEM objects. Row and
// column oids are stable across queries (&<table>_r<row> and
// &<table>_r<row>c<col>), and the objects themselves are pointer-stable:
// each row is converted once and the shared object reused, so repeated
// queries expose consistent object identity, as a real wrapper over a
// keyed store would.
func (w *Wrapper) convert(t *Table, ids []int) []*oem.Object {
	w.mu.Lock()
	defer w.mu.Unlock()
	cache := w.rowObjs[t]
	if n := t.Len(); len(cache) < n {
		grown := make([]*oem.Object, n)
		copy(grown, cache)
		cache = grown
		w.rowObjs[t] = cache
	}
	out := make([]*oem.Object, 0, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cache) {
			continue
		}
		obj := cache[id]
		if obj == nil {
			obj = convertRow(t, id)
			if obj == nil {
				continue
			}
			cache[id] = obj
		}
		out = append(out, obj)
	}
	return out
}

// convertRow builds the OEM object for one row, with one atomic subobject
// per non-NULL column.
func convertRow(t *Table, id int) *oem.Object {
	row, err := t.Row(id)
	if err != nil {
		return nil
	}
	schema := t.Schema()
	oid := make([]byte, 0, len(schema.Name)+16)
	oid = append(oid, '&')
	oid = append(oid, schema.Name...)
	oid = append(oid, "_r"...)
	oid = strconv.AppendInt(oid, int64(id), 10)
	subs := make(oem.Set, 0, len(schema.Columns))
	for ci, col := range schema.Columns {
		if row[ci] == nil {
			continue // NULL: no subobject
		}
		coid := make([]byte, 0, len(oid)+4)
		coid = append(coid, oid...)
		coid = append(coid, 'c')
		coid = strconv.AppendInt(coid, int64(ci), 10)
		subs = append(subs, &oem.Object{
			OID:   oem.OID(coid),
			Label: col.Name,
			Value: row[ci],
		})
	}
	return &oem.Object{OID: oem.OID(oid), Label: schema.Name, Value: subs}
}
