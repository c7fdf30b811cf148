package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// ErrorMode says what the executor does when a source query fails or
// times out. The paper's MSI assumed cooperative, always-up sources;
// against autonomous ones the mediator must be able to degrade instead of
// inheriting the slowest source's fate.
type ErrorMode int

const (
	// OnErrorFail aborts the whole query on the first source failure —
	// the all-or-nothing behavior of the paper, and the default.
	OnErrorFail ErrorMode = iota
	// OnErrorSkip drops the failing source for the remainder of the run:
	// the failed exchange and every later exchange to that source answer
	// as if the source held no matching objects, the failure is recorded,
	// and the result is flagged Incomplete. One timeout is taken as
	// evidence the source is down, so a slow source costs at most one
	// per-source timeout per query.
	OnErrorSkip
	// OnErrorPartial degrades per exchange: only the failing exchange is
	// treated as empty, and later exchanges still try the source (it may
	// have failed transiently). The result is flagged Incomplete.
	OnErrorPartial
)

// String names the mode for flags and traces.
func (m ErrorMode) String() string {
	switch m {
	case OnErrorSkip:
		return "skip"
	case OnErrorPartial:
		return "partial"
	default:
		return "fail"
	}
}

// Policy bounds and degrades per-source work for one query. The zero
// value reproduces the paper's behavior: no per-source timeout, and any
// source failure aborts the query.
type Policy struct {
	// PerSourceTimeout bounds each source exchange; an exchange that
	// exceeds it counts as a source failure and is handled per
	// OnSourceError. 0 means no per-exchange bound (the query's own
	// context deadline, if any, still applies).
	PerSourceTimeout time.Duration
	// OnSourceError selects failure handling: fail the query, skip the
	// source, or skip the exchange.
	OnSourceError ErrorMode
}

// SourceError is one recorded source failure: which source, and why. For
// skipped answers of a negated (anti-join) pattern the absence of
// matches was assumed, not verified — callers needing certainty must use
// OnErrorFail.
type SourceError struct {
	// Source is the failing source's name.
	Source string
	// Err is the failure: the source's own error, or
	// context.DeadlineExceeded for a PerSourceTimeout expiry.
	Err error
}

// Error implements error.
func (e *SourceError) Error() string {
	return fmt.Sprintf("engine: source %s: %v", e.Source, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *SourceError) Unwrap() error { return e.Err }

// Result is a query answer with its degradation record. With
// Policy.OnSourceError left at OnErrorFail, Incomplete is always false
// and SourceErrors empty: any failure surfaced as an error instead.
type Result struct {
	// Objects are the constructed result objects.
	Objects []*oem.Object
	// Incomplete reports that at least one source's contribution is
	// missing: the answer is a lower bound computed from the healthy
	// sources, not the full integrated view.
	Incomplete bool
	// SourceErrors lists the failures behind Incomplete, in the order
	// they were observed.
	SourceErrors []*SourceError
}

// runState carries one run's context, failure policy and record through
// the operator graph; every worker of the run shares it.
type runState struct {
	ex  *Executor
	ctx context.Context
	deg degradation
	rec runRecord
}

// degradation is the shared per-run record of skipped sources and
// collected failures; it is written concurrently by parallel workers.
// The check every exchange makes of down takes no lock.
type degradation struct {
	policy Policy
	down   sync.Map   // sources circuit-broken by OnErrorSkip
	mu     sync.Mutex // serializes errs and writes of down
	errs   []*SourceError
}

func newRunState(ex *Executor, ctx context.Context, root Node) *runState {
	if ctx == nil {
		ctx = context.Background()
	}
	rs := &runState{ex: ex, deg: degradation{policy: ex.Policy}}
	// Composite sources apply the timeout and circuit breaker per member.
	var down func(string) bool
	if ex.Policy.OnSourceError == OnErrorSkip {
		down = rs.sourceDown
	}
	rs.ctx = wrapper.WithRunPolicy(ctx, ex.Policy.PerSourceTimeout, down)
	rs.initRecord(root, ex.Recorder)
	return rs
}

// cancelled returns the run's terminal context error, if any — the check
// every operator performs at batch boundaries so long joins and
// cross-products abort promptly.
func (rs *runState) cancelled() error { return rs.ctx.Err() }

// sourceCtx derives the context for one of op's source exchanges: the
// policy's per-source timeout on top of the run's own deadline, carrying
// op's slot, to which the answer cache attributes its lookups.
func (rs *runState) sourceCtx(op *opRecord) (context.Context, context.CancelFunc) {
	if d := rs.deg.policy.PerSourceTimeout; d > 0 {
		return context.WithTimeout(op.ctx, d)
	}
	return op.ctx, func() {}
}

// sourceDown reports whether the source was circuit-broken by a previous
// failure under OnErrorSkip.
func (rs *runState) sourceDown(source string) bool {
	_, down := rs.deg.down.Load(source)
	return down
}

// sourceFailed applies the failure policy to a failed exchange. It
// returns the error the operator must propagate — always the run's own
// context error once the run is cancelled, the wrapped source error
// under OnErrorFail — or nil when the policy absorbed the failure, in
// which case the exchange's answer is treated as empty and the run is
// marked incomplete.
func (rs *runState) sourceFailed(source string, err error) error {
	if cerr := rs.ctx.Err(); cerr != nil {
		return cerr
	}
	if rs.deg.policy.OnSourceError == OnErrorFail {
		return &SourceError{Source: source, Err: err}
	}
	se := &SourceError{Source: source, Err: err}
	rs.deg.mu.Lock()
	defer rs.deg.mu.Unlock()
	rs.deg.errs = append(rs.deg.errs, se)
	if rs.deg.policy.OnSourceError == OnErrorSkip {
		rs.deg.down.Store(source, true)
	}
	return nil
}

// keepAnswer applies the failure policy to an exchange's error and
// reports whether the answer stands: without error, or as a composite's
// surviving union beside a *wrapper.PartialError, whose failed members
// each count as a failure of their own unless already circuit-broken.
// ferr is what the operator must propagate (see sourceFailed).
func (rs *runState) keepAnswer(source string, err error) (keep bool, ferr error) {
	if err == nil {
		return true, nil
	}
	var pe *wrapper.PartialError
	if !errors.As(err, &pe) {
		return false, rs.sourceFailed(source, err)
	}
	for _, f := range pe.Failed {
		if rs.sourceDown(f.Member) {
			continue
		}
		if ferr := rs.sourceFailed(f.Member, f.Err); ferr != nil {
			return false, ferr
		}
	}
	return true, nil
}

// result assembles the run's Result from the output objects and the
// degradation record.
func (rs *runState) result(objs []*oem.Object) *Result {
	rs.deg.mu.Lock()
	defer rs.deg.mu.Unlock()
	return &Result{
		Objects:      objs,
		Incomplete:   len(rs.deg.errs) > 0,
		SourceErrors: append([]*SourceError(nil), rs.deg.errs...),
	}
}
