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
	"sort"
	"strings"

	"medmaker/internal/match"
	"medmaker/internal/trace"
)

// Table is a binding table flowing along a graph arc. The layout is
// columnar: one []match.Binding slab per variable, all the same length,
// with a shared var→column index. A row binds a variable when its slot
// in that variable's column is non-zero; the zero Binding means "absent",
// exactly as a missing key does in a match.Env. Operators read and write
// column slots directly — no per-row map allocation, no per-operator
// projection copies (a fixed-schema table projects on append) — and
// match.Env survives as a row view (Row) materialized only at the API
// boundaries that need a real environment: the matcher, external
// functions, and the constructor.
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

// NewTable builds a table over the given display columns, with one column
// per listed variable plus any further variables the rows bind.
func NewTable(cols []string, rows []match.Env) *Table {
	t := newDynTable(cols)
	for _, r := range rows {
		t.AppendEnv(r)
	}
	return t
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

// outTable builds the output table for an operator with the given
// projection: fixed when the projection is explicit, dynamic ("keep all")
// when it is empty.
func outTable(needed []string) *Table {
	if len(needed) > 0 {
		return newProjTable(needed)
	}
	return newDynTable(nil)
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

// Row materializes row i as an environment holding its bound variables —
// the boundary view handed to the matcher, external functions, and the
// constructor.
func (t *Table) Row(i int) match.Env {
	e := make(match.Env, len(t.vars))
	for c, v := range t.vars {
		if b := t.cols[c][i]; !b.IsZero() {
			e[v] = b
		}
	}
	return e
}

// Envs materializes every row (see Row), in order.
func (t *Table) Envs() []match.Env {
	out := make([]match.Env, t.n)
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// ColIndex returns v's column position, or -1 when the schema lacks it.
func (t *Table) ColIndex(v string) int {
	if c, ok := t.idx[v]; ok {
		return c
	}
	return -1
}

// Column returns v's column slab (length Len), or nil when the schema
// lacks it. The slab is shared, not copied; treat it as read-only.
func (t *Table) Column(v string) []match.Binding {
	if c, ok := t.idx[v]; ok {
		return t.cols[c]
	}
	return nil
}

// AppendEnv appends one row from an environment. A fixed-schema table
// keeps only its schema's variables (the projection); a dynamic table
// grows columns for variables it has not seen, in sorted order for
// determinism.
func (t *Table) AppendEnv(e match.Env) {
	if !t.fixed && len(e) > 0 {
		known := 0
		for _, v := range t.vars {
			if _, ok := e[v]; ok {
				known++
			}
		}
		if known < len(e) {
			missing := make([]string, 0, len(e)-known)
			for k := range e {
				if _, ok := t.idx[k]; !ok {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			for _, k := range missing {
				t.ensureCol(k)
			}
		}
	}
	for c, v := range t.vars {
		t.cols[c] = append(t.cols[c], e[v])
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
