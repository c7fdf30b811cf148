package engine

import (
	"sort"

	"medmaker/internal/match"
)

// Environment views of binding tables, for tests: operators read rows in
// place and never build these.

// NewTable builds a table over the given display columns, with one column
// per listed variable plus any further variables the rows bind.
func NewTable(cols []string, rows []match.Env) *Table {
	t := newDynTable(cols)
	for _, r := range rows {
		t.AppendEnv(r)
	}
	return t
}

// Row materializes row i as an environment holding its bound variables.
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

// AppendEnv appends one row from an environment. A fixed-schema table
// keeps only its schema's variables; a dynamic table grows columns for
// variables it has not seen, in sorted order.
func (t *Table) AppendEnv(e match.Env) {
	if !t.fixed {
		var missing []string
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
	for c, v := range t.vars {
		t.cols[c] = append(t.cols[c], e[v])
	}
	t.n++
}
