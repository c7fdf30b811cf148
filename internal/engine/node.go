package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"medmaker/internal/build"
	"medmaker/internal/extfn"
	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// ResultVar is the binding-table column that carries constructed result
// objects out of constructor nodes.
const ResultVar = "_result"

// Node is one operator of a physical datamerge graph.
type Node interface {
	// Label names the operator kind for graph display, e.g. "param-query(cs)".
	Label() string
	// Detail describes the operator's parameters (query text, pattern, …).
	Detail() string
	// Kids returns the input operators, evaluated before this one.
	Kids() []Node
	// OutVars lists the variables bound in the output table.
	OutVars() []string
	// run executes the operator over its evaluated inputs, under the
	// run's context and failure policy.
	run(rs *runState, kids []*Table) (*Table, error)
}

// cancelCheckStride is how many rows an operator's inner loop processes
// between context checks — frequent enough that long joins and
// cross-products abort promptly, rare enough to stay off profiles.
const cancelCheckStride = 1024

// QueryNode sends an MSL query to a source — once when it is a leaf, or
// once per input tuple when it has a child (the paper's parameterized
// query node). Returned objects are matched against Extract (with the
// input row's bindings, which enforces join consistency), and the
// resulting rows are projected onto Needed.
type QueryNode struct {
	// Child supplies input tuples; nil makes this a leaf query node.
	Child Node
	// Source is the wrapper or mediator to query.
	Source string
	// Send is the query template. Variables listed in ParamVars are
	// replaced per input tuple by the row's atomic bindings before
	// sending; other variables stay free.
	Send *msl.Rule
	// ParamVars names the template variables filled from input tuples.
	ParamVars []string
	// Template is Send compiled over ParamVars (msl.Compile), built once
	// by the planner and cached with the plan; each probe binds it from
	// the input row's value tuple. Nil compiles it per run (hand-built
	// graphs).
	Template *msl.Template
	// Extract is matched against each returned top-level object, under
	// the input row's environment, to produce output bindings.
	Extract *msl.ObjectPattern
	// ExtractObjVar optionally binds the whole returned object.
	ExtractObjVar *msl.Var
	// Negated inverts the node into an anti-join: an input tuple passes
	// through exactly when the source yields no match under it, and no
	// new variables are bound.
	Negated bool
	// Needed is the projection applied to output rows; empty keeps all.
	Needed []string
	// Shape is the condition-aware statistics key for the sent template
	// (see ShapeOf). The planner sets it so execution feedback lands in
	// the same bucket planning reads; empty (hand-built graphs) teaches
	// the statistics store nothing.
	Shape string
	// EstRows, when HasEst, is the optimizer's estimated answer
	// cardinality for this node's template (per instantiated query).
	// Explain/ExplainAnalyze render it against the actual counts.
	EstRows float64
	HasEst  bool
}

// Label implements Node.
func (n *QueryNode) Label() string {
	kind := "query"
	if n.Child != nil {
		kind = "param-query"
	}
	if n.Negated {
		kind = "anti-" + kind
	}
	return kind + "(" + n.Source + ")"
}

// Detail implements Node, showing the template with $-marked parameters.
func (n *QueryNode) Detail() string {
	tmpl, err := n.template()
	if err != nil {
		return n.Send.String()
	}
	return tmpl.String()
}

func (n *QueryNode) input() Node { return n.Child }

// Kids implements Node.
func (n *QueryNode) Kids() []Node {
	if n.Child == nil {
		return nil
	}
	return []Node{n.Child}
}

// OutVars implements Node.
func (n *QueryNode) OutVars() []string { return n.Needed }

// run fetches from a wrapper.LocalScanner the candidates of each query it
// can supply them for, and from any other source each query's answer.
func (n *QueryNode) run(rs *runState, kids []*Table) (*Table, error) {
	src, ok := rs.ex.Sources.Lookup(n.Source)
	if !ok {
		return nil, fmt.Errorf("engine: unknown source %q", n.Source)
	}
	ls, _ := src.(wrapper.LocalScanner)
	if wrapper.LocalConjunct(n.Send) == nil {
		ls = nil
	}
	limit := -1 // fetch answers
	if ls != nil {
		limit = math.MaxInt // fetch candidates; presize up to the estimate
		if n.HasEst {
			limit = int(math.Ceil(n.EstRows))
		}
	}
	op := rs.rec.op(n)
	queries := op.queries.Load()
	out, sizes, err := n.eval(rs, kids, rs.ex.queryBatch() == 1, limit, func(qs []*msl.Rule) ([][]*oem.Object, error) {
		return n.fetchBatches(rs, op, src, ls, qs)
	})
	if ls != nil {
		// A local fetch learns its answer sizes from extraction; one that
		// failed first takes its queries back, teaching no sizes.
		if sizes == nil {
			op.queries.Add(queries - op.queries.Load())
		}
		answers := 0
		for _, a := range sizes {
			answers += a
		}
		op.answers.Add(int64(answers))
	}
	return out, err
}

// eval is the one body of every query operator: instantiate the template
// under the input rows (a leaf reads the one-row unit table), fetch, and
// extract each row's output from what was fetched for its query. fetch
// returns each query's answer or, when limit ≥ 0, the candidates it
// would be matched from; then eval also returns each query's answer size
// (see extractRows). A QueryNode fetches from its source, a MatScanNode
// its extent. perTuple turns probe deduplication off, so that each row
// sends its own query, as the paper's parameterized query node does.
func (n *QueryNode) eval(rs *runState, kids []*Table, perTuple bool, limit int, fetch func([]*msl.Rule) ([][]*oem.Object, error)) (*Table, []int, error) {
	var in *Table
	if len(kids) == 1 {
		in = kids[0]
	} else {
		in = unitTable()
	}
	qs, of, err := n.instantiate(in, perTuple)
	if err != nil {
		return nil, nil, err
	}
	got, err := fetch(qs)
	if err != nil {
		return nil, nil, err
	}
	once := limit >= 0 && n.decides(in)
	if limit >= 0 && !once {
		// Extraction cannot tell what the source matches: evaluate each
		// answer over its candidates as the source would.
		for q := range qs {
			if err = checkStride(rs, q); err == nil {
				got[q], err = wrapper.Eval(qs[q], got[q], nil)
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return n.extractRows(rs, in, of, got, once, limit)
}

// outTable returns the node's empty output table over input in.
func (n *QueryNode) outTable(in *Table) *Table {
	return outTable(n.Needed, in, &msl.PatternConjunct{ObjVar: n.ExtractObjVar, Pattern: n.Extract})
}

// extract matches the source's answer against the extraction pattern
// under the input row and appends the output rows to out: one per match,
// or for a negated (anti-join) node the row itself when nothing matched.
// A skipped exchange extracts from an empty answer: a positive pattern
// yields no rows, a negated one passes the row through — absence
// assumed, not verified, which is why the run records the failure in its
// SourceErrors.
func (n *QueryNode) extract(out *Table, row *rowCursor, objs []*oem.Object) error {
	matched := false
	if err := match.TopsEach(n.Extract, n.ExtractObjVar, objs, row, func(m match.Match) {
		matched = true
		if !n.Negated {
			out.appendMatch(m)
		}
	}); err != nil {
		return err
	}
	if n.Negated && !matched {
		out.appendRow(row)
	}
	return nil
}

// extractRows extracts from fetched[of[i]] under each input row i:
// answers, or with once candidates, which extractOnce matches once,
// presizing up to limit rows per query. With limit ≥ 0 it returns each
// query's answer size. It is pure CPU — pattern matching under each
// row — so it fans out morsel-parallel.
func (n *QueryNode) extractRows(rs *runState, in *Table, of []int, fetched [][]*oem.Object, once bool, limit int) (*Table, []int, error) {
	var sizes, first []int // first: the row that reports a query's size
	if limit >= 0 {
		sizes, first = make([]int, len(fetched)), make([]int, len(fetched))
		for i := len(of) - 1; i >= 0; i-- {
			first[of[i]] = i
		}
	}
	out, err := rs.fill(n, n.outTable(in), in.Len(), func(dst *Table, lo, hi int) error {
		rows := hi - lo
		if !n.Negated {
			rows = 0
			for _, q := range of[lo:hi] {
				c := len(fetched[q])
				if once {
					c = min(c, limit) // candidates can far outnumber matches
				}
				rows += c
			}
		}
		dst.reserve(rows)
		row := &rowCursor{t: in}
		for i := lo; i < hi; i++ {
			row.i = i
			size, err := len(fetched[of[i]]), error(nil)
			if once {
				size, err = n.extractOnce(dst, row, fetched[of[i]], limit)
			} else {
				err = n.extract(dst, row, fetched[of[i]])
			}
			if err != nil {
				return err
			}
			if first != nil && first[of[i]] == i {
				sizes[of[i]] = size
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, sizes, nil
}

// extractOnce is extract over candidates instead of an answer, with the
// answer's semantics: a candidate gives rows only if it matches under the
// row, and none if it is structurally equal to an earlier candidate that
// did (the source's duplicate elimination on its object variable). It
// returns how many candidates gave rows.
func (n *QueryNode) extractOnce(out *Table, row *rowCursor, cands []*oem.Object, limit int) (int, error) {
	var first *oem.Object
	var seen *oem.Deduper // built once a second candidate matches
	kept := 0
	for k, c := range cands {
		fresh, keep := true, false
		if err := match.TopsEach(n.Extract, n.ExtractObjVar, cands[k:k+1], row, func(m match.Match) {
			if fresh {
				fresh = false
				if first == nil {
					first, keep = c, true
				} else {
					if seen == nil {
						seen = oem.NewDeduper(min(len(cands)-k+1, limit))
						seen.Seen(first)
					}
					keep = !seen.Seen(c)
				}
				if keep {
					kept++
				}
			}
			if keep && !n.Negated {
				out.appendMatch(m)
			}
		}); err != nil {
			return 0, err
		}
	}
	if n.Negated && kept == 0 {
		out.appendRow(row)
	}
	return kept, nil
}

// decides reports whether extraction under in's rows decides exactly what
// each row's query matches at the source: the node sends its extraction
// pattern itself — unrelaxed, with no top-level wildcard (extraction
// would descend into the answer again), binding the sent query's object
// variable only as extraction does — and each variable the rows bind
// that the pattern uses is a slot every row fills with an atom.
func (n *QueryNode) decides(in *Table) bool {
	pc, p, ov := wrapper.LocalConjunct(n.Send), n.Extract, n.ExtractObjVar
	if pc.Pattern != p || p.Wildcard || (ov == nil || ov.Name != pc.ObjVar.Name) && varUse(p, pc.ObjVar.Name) > 0 {
		return false
	}
	for c, v := range in.vars {
		use := varUse(p, v)
		if ov != nil && ov.Name == v {
			use = 2 // object variables are never slots
		}
		slot := use == 1 && slices.Contains(n.ParamVars, v)
		for i := 0; use > 0 && i < in.Len(); i++ {
			b := in.binding(i, c)
			if val, atom := b.AsValue(); !b.IsZero() && (!slot || !atom || val.Kind() == oem.KindSet) {
				return false
			}
		}
	}
	return true
}

// varUse reports how pattern p uses variable v: 0 not at all, 1 only
// where a slot's atom can stand for it (oids, labels, values), 2 also as
// a set element or rest variable, which bind objects and sets.
func varUse(p *msl.ObjectPattern, v string) int {
	use := 0
	for _, t := range [...]msl.Term{p.OID, p.Label, p.Value} {
		switch x := t.(type) {
		case *msl.Var:
			if x.Name == v {
				use = max(use, 1)
			}
		case *msl.SetPattern:
			if x.Rest != nil && x.Rest.Name == v {
				return 2
			}
			for _, e := range x.Elems {
				if ep, ok := e.(*msl.ObjectPattern); ok {
					use = max(use, varUse(ep, v))
				} else if ev, ok := e.(*msl.Var); ok && ev.Name == v {
					return 2
				}
			}
			for _, rc := range x.RestConstraints {
				use = max(use, varUse(rc, v))
			}
		}
	}
	return use
}

// fetchBatches ships the queries to the source, up to Executor.QueryBatch
// per exchange for a source that answers a batch in one call
// (wrapper.Batches) and one per exchange otherwise, applying the run's
// failure policy to every exchange: a failed exchange's queries answer
// empty under Skip/Partial instead of aborting the run. Each exchange is
// one morsel, so independent exchanges run concurrently up to
// Executor.Parallelism; answers[i] answers qs[i] (with ls, holds its
// candidates), so exchange completion order never affects the output
// (extraction replays the input-row order).
func (n *QueryNode) fetchBatches(rs *runState, op *opRecord, src wrapper.Source, ls wrapper.LocalScanner, qs []*msl.Rule) ([][]*oem.Object, error) {
	size := 1
	if wrapper.Batches(src) {
		size = rs.ex.queryBatch()
	}
	answers := make([][]*oem.Object, len(qs))
	err := rs.runMorselsWidth(n, len(qs), size, func(_, lo, hi int) error {
		return n.fetchChunk(rs, op, src, ls, qs[lo:hi], answers[lo:hi])
	})
	return answers, err
}

// fetchChunk performs one exchange, answering qs[i] into out[i]: a lone
// query travels as itself, several as one batch, and a local scanner
// supplies candidates query by query (their answer sizes are recorded
// after extraction). When the policy absorbs a failure (or the source is
// circuit-broken) the answers stay empty, or hold a composite's surviving
// union, and the run is marked incomplete.
func (n *QueryNode) fetchChunk(rs *runState, op *opRecord, src wrapper.Source, ls wrapper.LocalScanner, qs []*msl.Rule, out [][]*oem.Object) error {
	if rs.sourceDown(n.Source) {
		return nil // every answer stays empty
	}
	ctx, cancel := rs.sourceCtx(op)
	start := time.Now()
	var qerr error
	res := out // a lone query and a local scan answer in place
	switch {
	case ls != nil:
		for i := 0; i < len(qs) && qerr == nil; i++ {
			res[i], qerr = ls.Candidates(ctx, qs[i])
		}
	case len(qs) == 1:
		res[0], qerr = wrapper.QueryContext(ctx, src, qs[0])
	default:
		res, qerr = wrapper.QueryBatchContext(ctx, src, qs)
	}
	elapsed := time.Since(start)
	cancel()
	if keep, err := rs.keepAnswer(n.Source, qerr); !keep {
		clear(out)
		return err
	}
	if len(res) != len(qs) {
		return fmt.Errorf("engine: batch query to %s returned %d answers for %d queries", n.Source, len(res), len(qs))
	}
	answers := 0
	for i := range qs {
		out[i] = res[i]
		if ls == nil {
			answers += len(res[i])
		}
	}
	rs.recordExchange(op, len(qs), answers, elapsed)
	return nil
}

// checkStride polls the run's context every cancelCheckStride rows of an
// operator's inner loop.
func checkStride(rs *runState, i int) error {
	if i%cancelCheckStride == cancelCheckStride-1 {
		return rs.cancelled()
	}
	return nil
}

// ExtPredNode invokes an external predicate per input tuple, as the
// paper's external pred node does for decomp.
type ExtPredNode struct {
	Child Node
	Pred  *msl.PredicateConjunct
	// Needed is the projection applied to output rows; empty keeps all.
	Needed []string
}

// Label implements Node.
func (n *ExtPredNode) Label() string { return "external-pred(" + n.Pred.Name + ")" }

// Detail implements Node.
func (n *ExtPredNode) Detail() string { return n.Pred.String() }

func (n *ExtPredNode) input() Node { return n.Child }

// Kids implements Node.
func (n *ExtPredNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *ExtPredNode) OutVars() []string { return n.Needed }

func (n *ExtPredNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Predicate evaluation is per-tuple pure CPU, so rows fan out
	// morsel-parallel. Each output row is the input row, read in place,
	// plus the free-variable bindings the predicate adds.
	in := kids[0]
	out := outTable(n.Needed, in, n.Pred)
	inCols := in.colIndexes(out.vars)
	return rs.fill(n, out, in.Len(), func(dst *Table, lo, hi int) error {
		dst.reserve(hi - lo)
		row := &rowCursor{t: in}
		for i := lo; i < hi; i++ {
			row.i = i
			if err := rs.ex.Extfn.EvalRow(n.Pred, row, func(ext []extfn.VarBinding) {
				dst.appendExtended(in, i, inCols, ext)
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// appendExtended appends row i of in, extended by ext and projected onto
// t's schema; inCols[c] is in's column for t's column c (-1: absent).
func (t *Table) appendExtended(in *Table, i int, inCols []int, ext []extfn.VarBinding) {
	for c, v := range t.vars {
		b := in.binding(i, inCols[c])
		for _, x := range ext {
			if x.Name == v {
				b = x.Binding
				break
			}
		}
		t.cols[c] = append(t.cols[c], b)
	}
	t.n++
}

// JoinNode combines two independently-computed binding tables on their
// shared variables with a hash join — the fallback strategy when
// parameterized queries are disabled or unprofitable, and the baseline the
// parameterized-query benchmarks compare against.
type JoinNode struct {
	Left, Right Node
	// Shared are the join variables; empty makes this a cross product.
	Shared []string
	// Needed is the projection applied to output rows; empty keeps all.
	Needed []string
}

// Label implements Node.
func (n *JoinNode) Label() string {
	if len(n.Shared) == 0 {
		return "cross-join"
	}
	return "hash-join"
}

// Detail implements Node.
func (n *JoinNode) Detail() string {
	if len(n.Shared) == 0 {
		return "cartesian product"
	}
	return "on " + strings.Join(n.Shared, ", ")
}

// Kids implements Node.
func (n *JoinNode) Kids() []Node { return []Node{n.Left, n.Right} }

// OutVars implements Node.
func (n *JoinNode) OutVars() []string { return n.Needed }

// joinCol pairs a variable's column position in the left and right input
// (-1 = absent from that side's schema).
type joinCol struct{ l, r int }

// joinCols computes the join's column plan: the output schema (the
// explicit projection, or the union of both input schemas with left's
// order first), each output variable's source columns, and the overlap —
// variables present in both schemas, whose bindings must agree.
func (n *JoinNode) joinCols(left, right *Table) (outVars []string, outs, overlap []joinCol) {
	outVars = n.Needed
	if len(outVars) == 0 {
		outVars = append([]string(nil), left.vars...)
		for _, v := range right.vars {
			if _, ok := left.idx[v]; !ok {
				outVars = append(outVars, v)
			}
		}
	}
	outs = make([]joinCol, len(outVars))
	for i, v := range outVars {
		outs[i] = joinCol{left.ColIndex(v), right.ColIndex(v)}
	}
	for _, v := range left.vars {
		if rc, ok := right.idx[v]; ok {
			overlap = append(overlap, joinCol{left.idx[v], rc})
		}
	}
	return outVars, outs, overlap
}

// joinEmit appends the merge of left row li and right row ri to dst,
// unless some variable bound on both sides disagrees. For a variable
// bound on both sides the row with more bound variables supplies the
// binding (ties go right) — the precedence match.Env.Join established,
// which matters when two bindings are Equal but not identical (Int 3
// joins Float 3.0).
func joinEmit(dst, left, right *Table, li, ri int, outs, overlap []joinCol) {
	for _, c := range overlap {
		lb, rb := left.cols[c.l][li], right.cols[c.r][ri]
		if !lb.IsZero() && !rb.IsZero() && !lb.Equal(rb) {
			return
		}
	}
	leftWins := left.boundCount(li) > right.boundCount(ri)
	for i, c := range outs {
		var b match.Binding
		switch {
		case c.l >= 0 && c.r >= 0:
			lb, rb := left.cols[c.l][li], right.cols[c.r][ri]
			switch {
			case lb.IsZero():
				b = rb
			case rb.IsZero() || leftWins:
				b = lb
			default:
				b = rb
			}
		case c.l >= 0:
			b = left.cols[c.l][li]
		case c.r >= 0:
			b = right.cols[c.r][ri]
		}
		dst.cols[i] = append(dst.cols[i], b)
	}
	dst.n++
}

func (n *JoinNode) run(rs *runState, kids []*Table) (*Table, error) {
	left, right := kids[0], kids[1]
	outVars, outs, overlap := n.joinCols(left, right)
	out := newProjTable(outVars)
	out.Cols = n.Needed
	if len(n.Shared) == 0 {
		// A cross product multiplies row counts: morsel over the outer
		// side, and with a big inner side poll cancellation per outer row
		// — the product of two modest inputs can already be huge.
		return rs.fill(n, out, left.Len(), func(dst *Table, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if right.Len() >= cancelCheckStride {
					if err := rs.cancelled(); err != nil {
						return err
					}
				}
				for j := 0; j < right.Len(); j++ {
					joinEmit(dst, left, right, i, j, outs, overlap)
				}
			}
			return nil
		})
	}
	// Partitioned hash join. Build side = the smaller input. Three
	// morsel-parallel phases: hash the build rows, partition the buckets
	// (one worker owns each partition, scanning rows ascending so bucket
	// order is build-row order), probe. Probe morsels emit in probe order,
	// and joinEmit re-checks the bindings, so the output is byte-identical
	// to the serial join.
	hashed, probe := right, left
	buildRight := true
	if left.Len() < right.Len() {
		hashed, probe = left, right
		buildRight = false
	}
	sharedH := make([]int, len(n.Shared))
	sharedP := make([]int, len(n.Shared))
	for i, v := range n.Shared {
		sharedH[i] = hashed.ColIndex(v)
		sharedP[i] = probe.ColIndex(v)
	}
	bh := make([]uint64, hashed.Len())
	if err := rs.runMorsels(n, hashed.Len(), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			bh[i] = hashed.hashRow(i, sharedH)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	nparts := rs.ex.parallelism()
	if nparts > 1 && hashed.Len() < rs.ex.morselRows() {
		nparts = 1 // a tiny build side is not worth nparts scans
	}
	parts := make([]map[uint64][]int32, nparts)
	if err := rs.runMorselsWidth(n, nparts, 1, func(p, _, _ int) error {
		m := make(map[uint64][]int32, hashed.Len()/nparts+1)
		for i, h := range bh {
			if h%uint64(nparts) == uint64(p) {
				m[h] = append(m[h], int32(i))
			}
		}
		parts[p] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return rs.fill(n, out, probe.Len(), func(dst *Table, lo, hi int) error {
		for i := lo; i < hi; i++ {
			h := probe.hashRow(i, sharedP)
			for _, bi := range parts[h%uint64(nparts)][h] {
				if buildRight {
					joinEmit(dst, left, right, i, int(bi), outs, overlap)
				} else {
					joinEmit(dst, left, right, int(bi), i, outs, overlap)
				}
			}
		}
		return nil
	})
}

// DedupNode projects rows onto Vars and eliminates duplicate bindings —
// the projection/duplicate-elimination step the MSL semantics prescribe
// before object construction.
type DedupNode struct {
	Child Node
	Vars  []string
}

// Label implements Node.
func (n *DedupNode) Label() string { return "dedup" }

// Detail implements Node.
func (n *DedupNode) Detail() string { return "on " + strings.Join(n.Vars, ", ") }

func (n *DedupNode) input() Node { return n.Child }

// Kids implements Node.
func (n *DedupNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *DedupNode) OutVars() []string { return n.Vars }

func (n *DedupNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Row hashes are computed morsel-parallel; the scan that keeps first
	// occurrences is inherently sequential but does only bucket lookups
	// and (rarely) per-variable equality checks against kept rows. first
	// maps a hash to the latest kept row with it, and next chains each
	// kept row to the previous one with the same hash.
	in := kids[0]
	cols := in.colIndexes(n.Vars)
	hashes := make([]uint64, in.Len())
	if err := rs.runMorsels(n, in.Len(), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			hashes[i] = in.hashRow(i, cols)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := newProjTable(n.Vars)
	out.reserve(in.Len())
	first := make(map[uint64]int32, in.Len())
	next := make([]int32, 0, in.Len())
	for i := 0; i < in.Len(); i++ {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		h := hashes[i]
		head, seen := first[h]
		if !seen {
			head = -1
		}
		if keptEqual(in, i, cols, out, head, next) {
			continue
		}
		first[h] = int32(out.n)
		next = append(next, head)
		for c, ic := range cols {
			out.cols[c] = append(out.cols[c], in.binding(i, ic))
		}
		out.n++
	}
	return out, nil
}

// keptEqual reports whether a kept row of out on the chain starting at j
// equals row i of in on every column (cols are in's, in out's order).
func keptEqual(in *Table, i int, cols []int, out *Table, j int32, next []int32) bool {
	for ; j >= 0; j = next[j] {
		eq := true
		for c, ic := range cols {
			if !in.binding(i, ic).Equal(out.cols[c][j]) {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

// ConstructNode creates one set of result objects per input tuple, using
// the head pattern cp(vars) as the paper's constructor node does. Results
// flow out in the ResultVar column.
type ConstructNode struct {
	Child Node
	Head  []msl.HeadTerm
}

// Label implements Node.
func (n *ConstructNode) Label() string { return "construct" }

// Detail implements Node.
func (n *ConstructNode) Detail() string {
	parts := make([]string, len(n.Head))
	for i, h := range n.Head {
		parts[i] = h.String()
	}
	return strings.Join(parts, " ")
}

func (n *ConstructNode) input() Node { return n.Child }

// Kids implements Node.
func (n *ConstructNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *ConstructNode) OutVars() []string { return []string{ResultVar} }

func (n *ConstructNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Construction stays serial: result oids come from the shared IDGen,
	// and serial assignment keeps them deterministic for a given plan.
	in := kids[0]
	out := newProjTable([]string{ResultVar})
	out.reserve(in.Len() * len(n.Head))
	row := &rowCursor{t: in}
	for i := 0; i < in.Len(); i++ {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		row.i = i
		objs, err := build.Head(n.Head, row, rs.ex.IDGen)
		if err != nil {
			return nil, err
		}
		for _, obj := range objs {
			out.cols[0] = append(out.cols[0], match.BindObj(obj))
		}
		out.n += len(objs)
	}
	return out, nil
}

// UnionNode concatenates the outputs of several subgraphs — one per
// logical datamerge rule; objects from every matching rule are added to
// the result (paper, footnote 6).
type UnionNode struct {
	Inputs []Node
}

// Label implements Node.
func (n *UnionNode) Label() string { return "union" }

// Detail implements Node.
func (n *UnionNode) Detail() string { return fmt.Sprintf("%d branches", len(n.Inputs)) }

// Kids implements Node.
func (n *UnionNode) Kids() []Node { return n.Inputs }

// OutVars implements Node.
func (n *UnionNode) OutVars() []string {
	if len(n.Inputs) == 0 {
		return nil
	}
	return n.Inputs[0].OutVars()
}

func (n *UnionNode) run(rs *runState, kids []*Table) (*Table, error) {
	out := newDynTable(n.OutVars())
	for _, t := range kids {
		out.appendTable(t)
	}
	return out, nil
}
