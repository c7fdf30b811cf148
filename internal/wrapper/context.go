package wrapper

import (
	"context"
	"errors"
	"fmt"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// ContextSource is the context-aware Source capability: sources that can
// bound or abandon work honor the context's deadline and cancellation.
// All bundled wrappers (oemstore, relational, semistruct, remote, the
// answer cache, and Mediator itself) implement it; third-party sources
// that only implement Source still work through QueryContext's fallback,
// which bounds the wait — though not the source's own work — by running
// the blind call in a goroutine.
type ContextSource interface {
	Source
	// QueryContext is Query bounded by ctx: it returns promptly with
	// ctx.Err() (possibly wrapped) once the context is cancelled or its
	// deadline passes.
	QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error)
}

// ContextBatchQuerier is the context-aware form of BatchQuerier. The
// result slice is parallel to qs, as for BatchQuerier.
type ContextBatchQuerier interface {
	QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error)
}

// QueryError reports which query of a batch failed and at which source,
// so a caller holding many in-flight queries (the engine's batching, a
// failure policy dropping one source) can tell the healthy answers from
// the failed one. It wraps the source's error.
type QueryError struct {
	// Source is the name of the source that failed.
	Source string
	// Index is the position of the failing query in the batch.
	Index int
	// Err is the source's error.
	Err error
}

// Error implements error.
func (e *QueryError) Error() string {
	return fmt.Sprintf("wrapper: query %d to source %q failed: %v", e.Index, e.Source, e.Err)
}

// Unwrap exposes the source's error to errors.Is/As (an
// *UnsupportedError stays recognizable through the wrapping).
func (e *QueryError) Unwrap() error { return e.Err }

// QueryContext answers one query against src under ctx. Context-aware
// sources get the context directly; for context-blind sources the call
// runs in a goroutine and QueryContext returns ctx.Err() as soon as the
// context ends — the abandoned call's goroutine drains when the source
// eventually returns, so a slow source delays its own goroutine's exit
// but never the caller.
func QueryContext(ctx context.Context, src Source, q *msl.Rule) ([]*oem.Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cs, ok := src.(ContextSource); ok {
		return cs.QueryContext(ctx, q)
	}
	return callBounded(ctx, func() ([]*oem.Object, error) { return src.Query(q) })
}

// QueryBatchContext answers several queries against src under ctx, in as
// few exchanges as the source allows: one call when src implements
// ContextBatchQuerier (or BatchQuerier, bounded like QueryContext's
// fallback), otherwise one QueryContext per rule with a cancellation
// check between queries. The returned slice is parallel to qs; a failure
// surfaces as a *QueryError naming the failing query unless the batch
// travelled as a single opaque exchange.
func QueryBatchContext(ctx context.Context, src Source, qs []*msl.Rule) ([][]*oem.Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cb, ok := src.(ContextBatchQuerier); ok {
		return cb.QueryBatchContext(ctx, qs)
	}
	if bq, ok := src.(BatchQuerier); ok {
		return callBounded(ctx, func() ([][]*oem.Object, error) { return bq.QueryBatch(qs) })
	}
	return EachQueryContext(ctx, src, qs)
}

// EachQueryContext answers qs with one QueryContext call per rule,
// checking for cancellation between queries. A failure at query i
// surfaces as a *QueryError with Index i, so the caller knows both which
// answers are valid (those before i) and which query to blame. A query
// answered beside a *PartialError (a composite or a mediator that lost a
// member) keeps its answer: the batch then returns every answer with one
// *PartialError listing the failed members of all its queries, in order.
func EachQueryContext(ctx context.Context, src Source, qs []*msl.Rule) ([][]*oem.Object, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]*oem.Object, len(qs))
	var failed []*ShardError
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, &QueryError{Source: src.Name(), Index: i, Err: err}
		}
		objs, err := QueryContext(ctx, src, q)
		if err != nil {
			var pe *PartialError
			if !errors.As(err, &pe) {
				return nil, &QueryError{Source: src.Name(), Index: i, Err: err}
			}
			failed = append(failed, pe.Failed...)
		}
		out[i] = objs
	}
	if failed != nil {
		return out, &PartialError{Failed: failed}
	}
	return out, nil
}

// callBounded runs a context-blind call in a goroutine and waits for
// whichever comes first: its answer or the end of the context. The
// goroutine is buffered so an abandoned call exits as soon as the source
// returns.
func callBounded[T any](ctx context.Context, call func() (T, error)) (T, error) {
	var zero T
	if ctx.Done() == nil {
		return call()
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type answer struct {
		val T
		err error
	}
	ch := make(chan answer, 1)
	go func() {
		val, err := call()
		ch <- answer{val, err}
	}()
	select {
	case a := <-ch:
		return a.val, a.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}
