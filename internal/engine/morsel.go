package engine

import (
	"sync"
	"sync/atomic"
)

// This file implements the engine's morsel scheduler, its one worker
// pool. Local operators — extraction over fetched answers, external
// predicates, hash-join build and probe, dedup hashing, cross products —
// split their input table into fixed-size runs of rows ("morsels")
// executed on a bounded pool of Executor.Parallelism goroutines.
// Latency-bound fan-outs make each unit of work a morsel: one source
// exchange, one hash-join partition. An operator that emits rows does so
// through fill: each morsel appends to its own chunk, and the chunks
// concatenate in morsel order, so parallel results are byte-identical to
// the serial loop, which is the same scheduler with one worker. Workers
// claim morsels from a shared atomic counter (work stealing by
// oversubscription: morsels are small, so an uneven morsel costs little
// tail latency) and poll the run's context between morsels, preserving
// the engine's prompt-cancellation guarantee.

// DefaultMorselRows is the morsel width when Executor.MorselRows is 0:
// large enough to amortize scheduling, small enough that typical
// mediator tables (hundreds to thousands of rows) still fan out.
const DefaultMorselRows = 256

// morselRows returns the effective morsel width.
func (ex *Executor) morselRows() int {
	if ex.MorselRows > 0 {
		return ex.MorselRows
	}
	return DefaultMorselRows
}

// morselCount returns how many morsels a total of rows splits into.
func (ex *Executor) morselCount(total int) int {
	size := ex.morselRows()
	return (total + size - 1) / size
}

// runMorsels executes fn once per morsel of [0, total), passing the
// morsel index and its row range. With an effective worker count of 1
// (small input or serial executor) the morsels run inline in order;
// otherwise they run on a worker pool and fn must be safe for
// concurrent calls on distinct morsels. The first error (or the run's
// cancellation) stops the pool; the error returned is the lowest failed
// morsel's, as in the serial loop, or the run's own context error once
// the run is cancelled. Morsel and worker counts are reported to op, the
// operator's slot, when the run is traced.
func (rs *runState) runMorsels(op *opRecord, total int, fn func(m, lo, hi int) error) error {
	return rs.runMorselsWidth(op, total, rs.ex.morselRows(), fn)
}

// runMorselsWidth is runMorsels with an explicit morsel width. Latency-
// bound work makes each exchange its own morsel — width 1, or a batch's
// worth of queries — so four exchanges fan out over four workers instead
// of sharing one row-sized morsel.
func (rs *runState) runMorselsWidth(op *opRecord, total, size int, fn func(m, lo, hi int) error) error {
	width := max(size, 1)
	morsels := (total + width - 1) / width
	if morsels == 0 {
		return rs.cancelled()
	}
	workers := min(rs.ex.parallelism(), morsels)
	if op != nil {
		op.ts.AddMorsels(morsels, workers)
	}
	if workers <= 1 {
		for m := 0; m < morsels; m++ {
			if err := rs.cancelled(); err != nil {
				return err
			}
			lo := m * width
			if err := fn(m, lo, min(lo+width, total)); err != nil {
				return err
			}
		}
		return nil
	}
	// A worker stops at its first failed morsel, failed[w]. Morsels are
	// claimed in order and run to the end once claimed, so the lowest
	// failed morsel is the serial loop's, whatever the interleaving.
	var next atomic.Int64
	errs := make([]error, workers)
	failed := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				err := rs.cancelled()
				if err == nil {
					lo := m * width
					err = fn(m, lo, min(lo+width, total))
				}
				if err != nil {
					errs[w], failed[w] = err, m
					next.Store(int64(morsels)) // stop the other workers claiming
					return
				}
			}
		}(w)
	}
	wg.Wait()
	first := -1
	for w, err := range errs {
		if err != nil && (first < 0 || failed[w] < failed[first]) {
			first = w
		}
	}
	if first < 0 {
		return nil
	}
	if err := rs.cancelled(); err != nil {
		return err
	}
	return errs[first]
}

// fill runs fn over the morsels of [0, total) and returns out holding the
// rows fn appended, in morsel order. Each morsel appends to its own chunk
// of out's schema, and the chunks concatenate once every morsel is done.
// A lone morsel appends to out itself: no chunk and no copy. fn may
// reserve room in dst for the rows it is about to append.
func (rs *runState) fill(op *opRecord, out *Table, total int, fn func(dst *Table, lo, hi int) error) (*Table, error) {
	var chunks []*Table
	if m := rs.ex.morselCount(total); m > 1 {
		chunks = make([]*Table, m)
	}
	if err := rs.runMorsels(op, total, func(m, lo, hi int) error {
		if chunks == nil {
			return fn(out, lo, hi)
		}
		chunks[m] = out.emptyLike(0)
		return fn(chunks[m], lo, hi)
	}); err != nil {
		return nil, err
	}
	if chunks == nil {
		return out, nil
	}
	return out.concat(chunks), nil
}
