// Package engine implements MedMaker's datamerge engine: the executor of
// physical datamerge graphs (Section 3.4 and Figure 3.6 of the paper).
//
// A physical datamerge graph is a dataflow tree whose nodes are the
// "machine language" of MedMaker: query nodes send MSL queries to sources,
// extractor logic pulls variable bindings out of the returned objects,
// external-predicate nodes invoke declared functions, parameterized query
// nodes emit one source query per input tuple, join nodes combine
// independently-fetched binding tables, duplicate-elimination nodes
// project and dedup, and constructor nodes create the final result
// objects. Tables of variable bindings flow along the arcs.
package engine

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/trace"
)

// Table is a binding table flowing along a graph arc. The layout is
// columnar: one []match.Binding slab per variable, all the same length,
// with a shared var→column index. A row binds a variable when its slot
// in that variable's column is non-zero; the zero Binding means "absent",
// exactly as a missing key does in a match.Env. Operators read and write
// column slots in place: the matcher, external functions and the
// constructor read an input row through a rowCursor, and operators write
// only the variables their output schema keeps — no per-row map, no
// per-operator projection copies.
type Table struct {
	// Cols is the display order of variables; rows may bind more
	// variables than listed (Cols is presentational).
	Cols []string

	vars []string       // schema: column order
	idx  map[string]int // var -> column position in vars/cols
	cols [][]match.Binding
	n    int
	// fixed marks a projection schema: appended rows keep only the
	// schema's variables (the operator's Needed projection, applied
	// in-place). A dynamic table instead grows columns for new variables.
	fixed bool
}

// newProjTable builds an empty fixed-schema table: appends project onto
// exactly the given variables.
func newProjTable(vars []string) *Table {
	t := &Table{
		Cols:  vars,
		vars:  append([]string(nil), vars...),
		idx:   make(map[string]int, len(vars)),
		cols:  make([][]match.Binding, len(vars)),
		fixed: true,
	}
	for i, v := range t.vars {
		t.idx[v] = i
	}
	return t
}

// unitTable is the one-row, no-column table a leaf operator reads as its
// input: the single empty environment.
func unitTable() *Table { return &Table{n: 1} }

// outTable builds the empty output table of an operator that extends its
// input rows with the variables conj binds: fixed on the projection when
// needed is explicit, else ("keep all") on in's schema plus conj's
// variables, with no display columns.
func outTable(needed []string, in *Table, conj msl.Conjunct) *Table {
	if len(needed) > 0 {
		return newProjTable(needed)
	}
	vars := append([]string(nil), in.vars...)
	for _, v := range (&msl.Rule{Tail: []msl.Conjunct{conj}}).Vars() {
		if _, ok := in.idx[v]; !ok {
			vars = append(vars, v)
		}
	}
	t := newProjTable(vars)
	t.Cols = nil
	return t
}

// emptyLike returns an empty table with t's fixed schema, sharing its
// variable index, with slabs reserved for rows rows — the per-morsel
// chunk fill hands an operator.
func (t *Table) emptyLike(rows int) *Table {
	out := &Table{Cols: t.Cols, vars: t.vars, idx: t.idx, cols: make([][]match.Binding, len(t.vars)), fixed: true}
	out.reserve(rows)
	return out
}

// reserve grows every column slab's capacity to hold rows more rows.
func (t *Table) reserve(rows int) {
	for c := range t.cols {
		t.cols[c] = slices.Grow(t.cols[c], rows)
	}
}

// concat joins chunks made by t.emptyLike, in order, into one table whose
// slabs are allocated once at the total length. A lone non-empty chunk is
// returned as is.
func (t *Table) concat(chunks []*Table) *Table {
	total, filled := 0, 0
	var last *Table
	for _, ch := range chunks {
		if ch != nil && ch.n > 0 {
			total += ch.n
			filled++
			last = ch
		}
	}
	switch filled {
	case 0:
		return t
	case 1:
		return last
	}
	out := t.emptyLike(total)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		for c := range out.cols {
			out.cols[c] = append(out.cols[c], ch.cols[c]...)
		}
		out.n += ch.n
	}
	return out
}

// newDynTable builds an empty dynamic table seeded with the given columns;
// appending rows that bind further variables grows the schema.
func newDynTable(cols []string) *Table {
	t := &Table{
		Cols: cols,
		idx:  make(map[string]int, len(cols)),
	}
	for _, v := range cols {
		t.ensureCol(v)
	}
	return t
}

// ensureCol returns the column position of v, adding a zero-backfilled
// column when the schema lacks it.
func (t *Table) ensureCol(v string) int {
	if c, ok := t.idx[v]; ok {
		return c
	}
	c := len(t.vars)
	t.vars = append(t.vars, v)
	t.idx[v] = c
	t.cols = append(t.cols, make([]match.Binding, t.n))
	return c
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// ColIndex returns v's column position, or -1 when the schema lacks it.
func (t *Table) ColIndex(v string) int {
	if c, ok := t.idx[v]; ok {
		return c
	}
	return -1
}

// colIndexes returns each variable's column position (-1: absent).
func (t *Table) colIndexes(vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = t.ColIndex(v)
	}
	return out
}

// Column returns v's column slab (length Len), or nil when the schema
// lacks it. The slab is shared, not copied; treat it as read-only.
func (t *Table) Column(v string) []match.Binding {
	if c, ok := t.idx[v]; ok {
		return t.cols[c]
	}
	return nil
}

// rowCursor reads row i of a table in place: the input row an operator
// hands the matcher, an external function or the constructor. It
// implements match.Bindings and extfn.Row; an operator moves one cursor
// down its rows instead of building an environment per row.
type rowCursor struct {
	t *Table
	i int
}

// Lookup implements match.Bindings: a zero slot reads as unbound.
func (r *rowCursor) Lookup(name string) (match.Binding, bool) {
	c, ok := r.t.idx[name]
	if !ok {
		return match.Binding{}, false
	}
	b := r.t.cols[c][r.i]
	return b, !b.IsZero()
}

// Names implements extfn.Row: the row's bound variables, sorted.
func (r *rowCursor) Names() []string {
	var out []string
	for c, v := range r.t.vars {
		if !r.t.cols[c][r.i].IsZero() {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// appendMatch appends one row read from a match: each schema variable's
// binding from the match, or from the row it ran under.
func (t *Table) appendMatch(m match.Match) {
	for c, v := range t.vars {
		b, _ := m.Lookup(v)
		t.cols[c] = append(t.cols[c], b)
	}
	t.n++
}

// appendRow appends the row under r, projected onto t's schema.
func (t *Table) appendRow(r *rowCursor) {
	for c, v := range t.vars {
		b, _ := r.Lookup(v)
		t.cols[c] = append(t.cols[c], b)
	}
	t.n++
}

// AppendBinding appends one single-variable row directly, without an
// environment; the table must have v in its schema (constructor and
// fusion outputs use this for the result column).
func (t *Table) AppendBinding(v string, b match.Binding) {
	c := t.ensureCol(v)
	for o := range t.cols {
		if o == c {
			t.cols[o] = append(t.cols[o], b)
		} else {
			t.cols[o] = append(t.cols[o], match.Binding{})
		}
	}
	t.n++
}

// appendTable appends every row of o, aligning schemas: columns o lacks
// are zero-filled, and (for dynamic tables) columns t lacks are added.
// A fixed-schema t drops o's extra columns — the projection again.
func (t *Table) appendTable(o *Table) {
	if o == nil || o.n == 0 {
		return
	}
	if !t.fixed {
		for _, v := range o.vars {
			t.ensureCol(v)
		}
	}
	for c, v := range t.vars {
		if oc, ok := o.idx[v]; ok {
			t.cols[c] = append(t.cols[c], o.cols[oc]...)
		} else {
			t.cols[c] = append(t.cols[c], make([]match.Binding, o.n)...)
		}
	}
	t.n += o.n
}

// boundCount returns how many variables row i binds — the columnar
// equivalent of len(env), which drives join value precedence.
func (t *Table) boundCount(i int) int {
	n := 0
	for c := range t.cols {
		if !t.cols[c][i].IsZero() {
			n++
		}
	}
	return n
}

// hashRow hashes row i's projection onto the given columns (-1 = the
// variable is absent from the schema and hashes as unbound), consistent
// with Env.HashEnv over the same variables.
func (t *Table) hashRow(i int, cols []int) uint64 {
	h := match.HashSeed
	for _, c := range cols {
		var b match.Binding
		if c >= 0 {
			b = t.cols[c][i]
		}
		h = match.MixHash(h, b.Hash())
	}
	return h
}

// binding returns row i's binding for column c, where c may be -1 for
// "not in schema" (the zero binding).
func (t *Table) binding(i, c int) match.Binding {
	if c < 0 {
		return match.Binding{}
	}
	return t.cols[c][i]
}

// Format renders the table for traces, in the style of the tables shown
// beside the arcs of the paper's Figure 3.6. At most maxRows rows are
// shown (0 means all).
func (t *Table) Format(w io.Writer, maxRows int) {
	cols := t.Cols
	if len(cols) == 0 {
		// Fall back to the variables bound in at least one row, sorted.
		for c, v := range t.vars {
			for i := 0; i < t.n; i++ {
				if !t.cols[c][i].IsZero() {
					cols = append(cols, v)
					break
				}
			}
		}
		sort.Strings(cols)
	}
	cells := make([][]string, 0, t.n+1)
	cells = append(cells, cols)
	n := t.n
	truncated := false
	if maxRows > 0 && n > maxRows {
		n = maxRows
		truncated = true
	}
	for i := 0; i < n; i++ {
		line := make([]string, len(cols))
		for li, c := range cols {
			if b := t.binding(i, t.ColIndex(c)); !b.IsZero() {
				line[li] = trace.Clip(b.String(), 40)
			} else {
				line[li] = "-"
			}
		}
		cells = append(cells, line)
	}
	widths := make([]int, len(cols))
	for _, line := range cells {
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for li, line := range cells {
		var sb strings.Builder
		sb.WriteString("  | ")
		for i, cell := range line {
			fmt.Fprintf(&sb, "%-*s | ", widths[i], cell)
		}
		io.WriteString(w, strings.TrimRight(sb.String(), " ")+"\n")
		if li == 0 {
			var sep strings.Builder
			sep.WriteString("  |")
			for _, wd := range widths {
				sep.WriteString(strings.Repeat("-", wd+2))
				sep.WriteString("|")
			}
			io.WriteString(w, sep.String()+"\n")
		}
	}
	if truncated {
		fmt.Fprintf(w, "  … %d more rows\n", t.n-n)
	}
}
