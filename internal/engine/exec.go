package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"medmaker/internal/extfn"
	"medmaker/internal/oem"
	"medmaker/internal/trace"
	"medmaker/internal/wrapper"
)

// Executor runs physical datamerge graphs bottom-up. It carries the
// environment a graph needs: the source registry, the in-memory extents
// it scans, the external-function table, an id generator for result
// objects, an optional trace recorder, and the statistics store the
// cost-based optimizer learns from (Section 3.5: "builds its own
// statistics database that is based on results of previous queries").
type Executor struct {
	Sources *wrapper.Registry
	// Extents binds the extents the graph's MatScanNodes read, by name.
	Extents Extents
	Extfn   *extfn.Table
	IDGen   *oem.IDGen
	// Stats, when non-nil, learns from every run: answer sizes per query
	// shape, parameterized-node selectivities, source latencies and
	// answer-cache hit rates, folded in once when the run ends.
	Stats *Stats
	// Recorder, when non-nil, receives the run's structured execution
	// record: per-node rows, wall time, exchange counts, per-source
	// latency histograms, and each operator's output table as text (the
	// flowing tables of Figure 3.6, see trace.QueryTrace.RenderFlow).
	Recorder *trace.QueryTrace
	// Parallelism > 1 lets the executor evaluate independent subtrees
	// concurrently and fan parameterized-query input tuples across that
	// many workers. Sources must then tolerate concurrent queries (all
	// bundled wrappers do) and external functions must be pure.
	Parallelism int
	// QueryBatch is the most queries one exchange carries to a source
	// that answers a batch in one call (wrapper.Batches); any other source
	// gets one query per exchange. Above 1, a query node sends one query
	// per distinct instantiation of its input tuples and hands each
	// answer back to every row that made it; 0 or 1 keeps the paper's
	// one query per input tuple.
	QueryBatch int
	// MorselRows is how many rows of a local operator's input one worker
	// claims at a time when fanning out morsel-parallel (0 =
	// DefaultMorselRows).
	MorselRows int
	// Policy bounds and degrades per-source work: a per-exchange timeout
	// and what to do when a source fails (abort, skip the source, or
	// skip the exchange). The zero value reproduces the paper's
	// all-or-nothing behavior.
	Policy Policy
}

// queryBatch returns the effective parameterized-query batch size; values
// below 2 mean batching is off.
func (ex *Executor) queryBatch() int {
	if ex.QueryBatch < 2 {
		return 1
	}
	return ex.QueryBatch
}

// parallelism returns the effective worker count.
func (ex *Executor) parallelism() int {
	if ex.Parallelism < 2 {
		return 1
	}
	return ex.Parallelism
}

// Run executes the graph rooted at n and returns its output table.
func (ex *Executor) Run(n Node) (*Table, error) {
	rs := newRunState(ex, context.Background(), n)
	defer rs.publish()
	return ex.runMaterialized(rs, 0)
}

// runMaterialized is the paper's bottom-up evaluation of the operator in
// slot i of the run record: every operator's output table is fully
// materialized before its parent runs. Independent subtrees evaluate
// concurrently when the executor is parallel; inside an operator, work
// fans out on the morsel scheduler (morsel.go), serial at width 1.
func (ex *Executor) runMaterialized(rs *runState, i int) (*Table, error) {
	if err := rs.cancelled(); err != nil {
		return nil, err
	}
	ops := rs.rec.ops
	op := &ops[i]
	nkids := 0
	for k := i + 1; k < op.end; k = ops[k].end {
		nkids++
	}
	kids := make([]*Table, nkids)
	if ex.parallelism() > 1 && nkids > 1 {
		errs := make([]error, nkids)
		var wg sync.WaitGroup
		for j, k := 0, i+1; k < op.end; j, k = j+1, ops[k].end {
			wg.Add(1)
			go func(j, k int) {
				defer wg.Done()
				kids[j], errs[j] = ex.runMaterialized(rs, k)
			}(j, k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for j, k := 0, i+1; k < op.end; j, k = j+1, ops[k].end {
			t, err := ex.runMaterialized(rs, k)
			if err != nil {
				return nil, err
			}
			kids[j] = t
		}
	}
	start := time.Now()
	out, err := op.node.run(rs, kids)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op.node.Label(), err)
	}
	rs.observe(op, kids, out, time.Since(start))
	return out, nil
}

// RunResult executes the graph under ctx and the executor's Policy,
// returning the result objects collected from the ResultVar column
// together with the degradation record: whether any source's contribution
// was dropped (Result.Incomplete) and the per-source failures behind it.
// Cancellation or an expired deadline aborts the run promptly and
// surfaces as ctx.Err(); every goroutine the engine started has exited
// by the time RunResult returns.
func (ex *Executor) RunResult(ctx context.Context, n Node) (*Result, error) {
	rs := newRunState(ex, ctx, n)
	defer rs.publish()
	t, err := ex.runMaterialized(rs, 0)
	if err != nil {
		return nil, err
	}
	out := make([]*oem.Object, 0, t.Len())
	col := t.Column(ResultVar)
	if col == nil && t.Len() > 0 {
		return nil, fmt.Errorf("engine: graph output lacks a %s column", ResultVar)
	}
	for _, b := range col {
		if b.Obj == nil {
			return nil, fmt.Errorf("engine: graph output row lacks a %s object", ResultVar)
		}
		out = append(out, b.Obj)
	}
	return rs.result(out), nil
}

// PrintGraph renders the graph as an indented tree, leaves last — the
// textual form of the paper's Figure 3.6 dataflow graph (which executes
// bottom-up; here the root prints first).
func PrintGraph(w io.Writer, n Node) {
	printGraph(w, n, 0)
}

func printGraph(w io.Writer, n Node, depth int) {
	fmt.Fprintf(w, "%s%s: %s\n", strings.Repeat("    ", depth), n.Label(), n.Detail())
	for _, k := range n.Kids() {
		printGraph(w, k, depth+1)
	}
}
