package engine

import (
	"fmt"
	"strings"
	"time"

	"medmaker/internal/build"
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
	// the same bucket planning reads; empty disables shape-keyed
	// recording (hand-built graphs).
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

// Kids implements Node.
func (n *QueryNode) Kids() []Node {
	if n.Child == nil {
		return nil
	}
	return []Node{n.Child}
}

// OutVars implements Node.
func (n *QueryNode) OutVars() []string { return n.Needed }

func (n *QueryNode) run(rs *runState, kids []*Table) (*Table, error) {
	src, ok := rs.ex.Sources.Lookup(n.Source)
	if !ok {
		return nil, fmt.Errorf("engine: unknown source %q", n.Source)
	}
	if len(kids) == 0 {
		rows, err := n.runRow(rs, src, nil, n.Send)
		if err != nil {
			return nil, err
		}
		return tableFromEnvs(n.Needed, rows), nil
	}
	inputRows := kids[0].Envs()
	if rs.ex.queryBatch() > 1 {
		rows, err := n.runBatched(rs, src, inputRows)
		if err != nil {
			return nil, err
		}
		return tableFromEnvs(n.Needed, rows), nil
	}
	var tmpl *msl.Template
	if len(n.ParamVars) > 0 {
		var err error
		if tmpl, err = n.template(); err != nil {
			return nil, err
		}
	}
	// One exchange per input tuple: each tuple is its own morsel, so the
	// exchanges overlap across the workers; per-row results concatenate in
	// input order, so parallel and serial runs agree exactly.
	perRow := make([][]match.Env, len(inputRows))
	if err := rs.runMorselsWidth(n, len(inputRows), 1, func(i, _, _ int) error {
		q := n.Send
		if tmpl != nil {
			tuple := appendTuple(make([]oem.Value, 0, len(n.ParamVars)), n.ParamVars, inputRows[i])
			var err error
			if q, err = tmpl.Bind(tuple); err != nil {
				return err
			}
		}
		rows, err := n.runRow(rs, src, inputRows[i], q)
		perRow[i] = rows
		return err
	}); err != nil {
		return nil, err
	}
	out := outTable(n.Needed)
	for _, rows := range perRow {
		for _, e := range rows {
			out.AppendEnv(e)
		}
	}
	return out, nil
}

// tableFromEnvs wraps already-projected rows into an operator output
// table.
func tableFromEnvs(needed []string, rows []match.Env) *Table {
	out := outTable(needed)
	for _, e := range rows {
		out.AppendEnv(e)
	}
	return out
}

// querySource performs one single-query exchange under the run's context
// and failure policy. skipped=true means the policy absorbed a failure
// (or the source is circuit-broken) and the answer is missing at least
// one source's (or shard's) contribution; the run is then marked
// incomplete. Sharded sources are scattered (or routed) member by member
// so failure handling attributes to the shard, not the composite.
func (n *QueryNode) querySource(rs *runState, src wrapper.Source, q *msl.Rule) (objs []*oem.Object, skipped bool, err error) {
	if rep, ok := src.(wrapper.Replicated); ok {
		return n.queryReplicas(rs, rep, q)
	}
	if sh, ok := src.(wrapper.Sharded); ok {
		return n.queryShards(rs, sh, q)
	}
	if rs.sourceDown(n.Source) {
		return nil, true, nil
	}
	ctx, cancel := rs.sourceCtx(n)
	start := time.Now()
	objs, qerr := wrapper.QueryContext(ctx, src, q)
	elapsed := time.Since(start)
	cancel()
	if qerr != nil {
		return nil, true, rs.sourceFailed(n.Source, qerr)
	}
	rs.recordExchange(n, 1, elapsed)
	rs.ex.recordQuery(n, len(objs))
	return objs, false, nil
}

// runRow evaluates the node for one input tuple: query the source with
// the row's instantiation q, extract bindings under the row environment,
// and project.
func (n *QueryNode) runRow(rs *runState, src wrapper.Source, row match.Env, q *msl.Rule) ([]match.Env, error) {
	// A skipped exchange extracts from an empty answer: a positive
	// pattern yields no rows, a negated (anti-join) one passes the tuple
	// through — absence assumed, not verified, which is why querySource
	// records the failure in the run's SourceErrors.
	objs, _, err := n.querySource(rs, src, q)
	if err != nil {
		return nil, err
	}
	return n.extract(row, objs)
}

// extract matches the source's answer against the extraction pattern
// under the input row, applies negation semantics, and projects.
func (n *QueryNode) extract(row match.Env, objs []*oem.Object) ([]match.Env, error) {
	envs, err := match.Tops(n.Extract, n.ExtractObjVar, objs, row)
	if err != nil {
		return nil, err
	}
	if n.Negated {
		if len(envs) > 0 {
			return nil, nil // a match exists: the tuple is filtered out
		}
		if len(n.Needed) > 0 {
			row = row.Project(n.Needed)
		}
		return []match.Env{row}, nil
	}
	if len(n.Needed) > 0 {
		for i, e := range envs {
			envs[i] = e.Project(n.Needed)
		}
	}
	return envs, nil
}

// runBatched evaluates the node over rows with input-tuple deduplication
// and batched source exchanges (the tentpole of Section 3.4 done
// cheaply): rows that instantiate the template identically share one
// query, the distinct queries ship in groups of up to Executor.QueryBatch
// per exchange when the source implements wrapper.BatchQuerier (or its
// context-aware form), and the answers are distributed back to the
// originating rows in input order, so the output is identical to the
// per-tuple path against deterministic sources.
func (n *QueryNode) runBatched(rs *runState, src wrapper.Source, rows []match.Env) ([]match.Env, error) {
	qs, of, err := n.instantiate(rows)
	if err != nil {
		return nil, err
	}
	answers, err := n.fetchBatches(rs, src, qs)
	if err != nil {
		return nil, err
	}
	// Extraction over the fetched answers is pure CPU — pattern matching
	// under each input row — so it fans out morsel-parallel; chunks
	// concatenate in morsel order, preserving the serial output exactly.
	chunks := make([][]match.Env, rs.ex.morselCount(len(rows)))
	if err := rs.runMorsels(n, len(rows), func(m, lo, hi int) error {
		var part []match.Env
		for i := lo; i < hi; i++ {
			envs, err := n.extract(rows[i], answers[of[i]])
			if err != nil {
				return err
			}
			part = append(part, envs...)
		}
		chunks[m] = part
		return nil
	}); err != nil {
		return nil, err
	}
	var out []match.Env
	for _, part := range chunks {
		out = append(out, part...)
	}
	return out, nil
}

// fetchBatches ships the distinct queries to the source, up to
// Executor.QueryBatch per exchange for batch-capable sources and one
// exchange per query otherwise, applying the run's failure policy to
// every exchange: a failed exchange's queries answer empty under
// Skip/Partial instead of aborting the run. Each exchange is one morsel,
// so independent exchanges run concurrently up to Executor.Parallelism;
// answers[i] answers qs[i], so exchange completion order never affects
// the output (extraction replays the input-row order).
func (n *QueryNode) fetchBatches(rs *runState, src wrapper.Source, qs []*msl.Rule) ([][]*oem.Object, error) {
	size := rs.ex.queryBatch()
	canBatch := false
	if _, ok := src.(wrapper.BatchQuerier); ok {
		canBatch = true
	} else if _, ok := src.(wrapper.ContextBatchQuerier); ok {
		canBatch = true
	}
	answers := make([][]*oem.Object, len(qs))
	chunks := (len(qs) + size - 1) / size
	err := rs.runMorselsWidth(n, chunks, 1, func(c, _, _ int) error {
		lo, hi := c*size, min((c+1)*size, len(qs))
		return n.fetchChunk(rs, src, qs[lo:hi], answers[lo:hi], canBatch)
	})
	return answers, err
}

// fetchChunk performs one exchange's worth of queries, answering qs[i]
// into out[i]: a single batched exchange for batch-capable sources, one
// exchange per query otherwise. Against a sharded source the chunk is
// regrouped per member shard first.
func (n *QueryNode) fetchChunk(rs *runState, src wrapper.Source, qs []*msl.Rule, out [][]*oem.Object, canBatch bool) error {
	if rep, ok := src.(wrapper.Replicated); ok {
		return n.fetchChunkReplicated(rs, rep, qs, out)
	}
	if sh, ok := src.(wrapper.Sharded); ok {
		return n.fetchChunkSharded(rs, sh, qs, out)
	}
	if canBatch && len(qs) > 1 {
		if rs.sourceDown(n.Source) {
			return nil // every answer stays empty
		}
		ctx, cancel := rs.sourceCtx(n)
		batchStart := time.Now()
		res, err := wrapper.QueryBatchContext(ctx, src, qs)
		elapsed := time.Since(batchStart)
		cancel()
		if err != nil {
			return rs.sourceFailed(n.Source, err)
		}
		if len(res) != len(qs) {
			return fmt.Errorf("engine: batch query to %s returned %d answers for %d queries", n.Source, len(res), len(qs))
		}
		rs.recordExchange(n, len(qs), elapsed)
		for i := range qs {
			out[i] = res[i]
			rs.ex.recordQuery(n, len(res[i]))
		}
		return nil
	}
	for i, q := range qs {
		objs, _, err := n.querySource(rs, src, q)
		if err != nil {
			return err
		}
		out[i] = objs
	}
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

// Kids implements Node.
func (n *ExtPredNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *ExtPredNode) OutVars() []string { return n.Needed }

func (n *ExtPredNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Predicate evaluation is per-tuple pure CPU, so rows fan out
	// morsel-parallel; per-morsel chunks concatenate in order, matching
	// the serial loop exactly.
	in := kids[0]
	chunks := make([]*Table, rs.ex.morselCount(in.Len()))
	if err := rs.runMorsels(n, in.Len(), func(m, lo, hi int) error {
		chunk := outTable(n.Needed)
		for i := lo; i < hi; i++ {
			envs, err := rs.ex.Extfn.Eval(n.Pred, in.Row(i))
			if err != nil {
				return err
			}
			for _, e := range envs {
				chunk.AppendEnv(e)
			}
		}
		chunks[m] = chunk
		return nil
	}); err != nil {
		return nil, err
	}
	out := outTable(n.Needed)
	for _, chunk := range chunks {
		out.appendTable(chunk)
	}
	return out, nil
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

// joinEmit appends the merge of left row li and right row ri to chunk,
// unless some variable bound on both sides disagrees. For a variable
// bound on both sides the row with more bound variables supplies the
// binding (ties go right) — the precedence match.Env.Join established,
// which matters when two bindings are Equal but not identical (Int 3
// joins Float 3.0).
func joinEmit(chunk, left, right *Table, li, ri int, outs, overlap []joinCol) {
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
		chunk.cols[i] = append(chunk.cols[i], b)
	}
	chunk.n++
}

func (n *JoinNode) run(rs *runState, kids []*Table) (*Table, error) {
	left, right := kids[0], kids[1]
	outVars, outs, overlap := n.joinCols(left, right)
	finish := func(chunks []*Table) *Table {
		out := newProjTable(outVars)
		out.Cols = n.Needed
		for _, c := range chunks {
			out.appendTable(c)
		}
		return out
	}
	if len(n.Shared) == 0 {
		// A cross product multiplies row counts: morsel over the outer
		// side, and with a big inner side poll cancellation per outer row
		// — the product of two modest inputs can already be huge.
		chunks := make([]*Table, rs.ex.morselCount(left.Len()))
		if err := rs.runMorsels(n, left.Len(), func(m, lo, hi int) error {
			chunk := newProjTable(outVars)
			for i := lo; i < hi; i++ {
				if right.Len() >= cancelCheckStride {
					if err := rs.cancelled(); err != nil {
						return err
					}
				}
				for j := 0; j < right.Len(); j++ {
					joinEmit(chunk, left, right, i, j, outs, overlap)
				}
			}
			chunks[m] = chunk
			return nil
		}); err != nil {
			return nil, err
		}
		return finish(chunks), nil
	}
	// Partitioned hash join. Build side = the smaller input. Three
	// morsel-parallel phases: hash the build rows, partition the buckets
	// (one worker owns each partition, scanning rows ascending so bucket
	// order is build-row order), probe. Probe morsels emit independent
	// chunks concatenated in probe order, and joinEmit re-checks the
	// bindings, so the output is byte-identical to the serial join.
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
	chunks := make([]*Table, rs.ex.morselCount(probe.Len()))
	if err := rs.runMorsels(n, probe.Len(), func(m, lo, hi int) error {
		chunk := newProjTable(outVars)
		for i := lo; i < hi; i++ {
			h := probe.hashRow(i, sharedP)
			for _, bi := range parts[h%uint64(nparts)][h] {
				if buildRight {
					joinEmit(chunk, left, right, i, int(bi), outs, overlap)
				} else {
					joinEmit(chunk, left, right, int(bi), i, outs, overlap)
				}
			}
		}
		chunks[m] = chunk
		return nil
	}); err != nil {
		return nil, err
	}
	return finish(chunks), nil
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

// Kids implements Node.
func (n *DedupNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *DedupNode) OutVars() []string { return n.Vars }

func (n *DedupNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Row hashes are computed morsel-parallel; the scan that keeps first
	// occurrences is inherently sequential but does only bucket lookups
	// and (rarely) per-variable equality checks against kept rows.
	in := kids[0]
	cols := make([]int, len(n.Vars))
	for i, v := range n.Vars {
		cols[i] = in.ColIndex(v)
	}
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
	byKey := make(map[uint64][]int32, in.Len())
	for i := 0; i < in.Len(); i++ {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		h := hashes[i]
		dup := false
		for _, j := range byKey[h] {
			eq := true
			for c, ic := range cols {
				if !in.binding(i, ic).Equal(out.cols[c][j]) {
					eq = false
					break
				}
			}
			if eq {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		byKey[h] = append(byKey[h], int32(out.n))
		for c, ic := range cols {
			out.cols[c] = append(out.cols[c], in.binding(i, ic))
		}
		out.n++
	}
	return out, nil
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

// Kids implements Node.
func (n *ConstructNode) Kids() []Node { return []Node{n.Child} }

// OutVars implements Node.
func (n *ConstructNode) OutVars() []string { return []string{ResultVar} }

func (n *ConstructNode) run(rs *runState, kids []*Table) (*Table, error) {
	// Construction stays serial: result oids come from the shared IDGen,
	// and serial assignment keeps them deterministic for a given plan.
	in := kids[0]
	out := newProjTable([]string{ResultVar})
	for i := 0; i < in.Len(); i++ {
		if err := checkStride(rs, i); err != nil {
			return nil, err
		}
		objs, err := build.Head(n.Head, in.Row(i), rs.ex.IDGen)
		if err != nil {
			return nil, err
		}
		for _, obj := range objs {
			out.AppendBinding(ResultVar, match.BindObj(obj))
		}
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
