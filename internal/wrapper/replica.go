package wrapper

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// Replicas presents N answer-equivalent member sources as one logical
// source. Capabilities are the field-wise intersection of the members'
// capabilities — including MultiPattern, since any member alone answers
// the whole query (contrast Partitioned, where a per-shard join would
// miss cross-shard pairs).
//
// Each call goes to the best-ranked member and fails over to the next on
// error; only if every member fails does the call fail, with a
// *ReplicaError naming the last member tried. The ranking is by the
// composite's own per-member latency and error-rate EWMAs, unobserved
// members first; successful calls decay a member's error rate, so a
// recovered member wins traffic back.
type Replicas struct {
	composite
	mu     sync.Mutex
	health []replicaHealth // parallel to members
}

// replicaHealth is one member's observed behaviour.
type replicaHealth struct {
	lat     float64 // EWMA seconds per successful call
	latSeen bool
	errRate float64 // EWMA in [0,1]: fraction of recent calls that failed
}

// latAlpha and errAlpha weight new observations in the member EWMAs.
const (
	latAlpha = 0.3
	errAlpha = 0.25
)

var (
	_ ContextSource        = (*Replicas)(nil)
	_ ContextBatchQuerier  = (*Replicas)(nil)
	_ Counter              = (*Replicas)(nil)
	_ InvalidationNotifier = (*Replicas)(nil)
	_ Notifier             = (*Replicas)(nil)
)

// NewReplicated builds the logical source name over answer-equivalent
// members. Member order breaks ties in the ranking, so it is the
// failover order before any call has been observed.
func NewReplicated(name string, members ...Source) (*Replicas, error) {
	c, err := newComposite("replicated", name, members)
	if err != nil {
		return nil, err
	}
	return &Replicas{composite: c, health: make([]replicaHealth, len(members))}, nil
}

// Query implements Source.
func (r *Replicas) Query(q *msl.Rule) ([]*oem.Object, error) {
	return r.QueryContext(context.Background(), q)
}

// QueryContext implements ContextSource with failover in ranked order.
func (r *Replicas) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if err := CheckCapabilities(q, r.caps, r.name); err != nil {
		return nil, err
	}
	var objs []*oem.Object
	err := r.failover(ctx, func(ctx context.Context, m Source) (err error) {
		objs, err = QueryContext(ctx, m, q)
		return err
	})
	return objs, err
}

// QueryBatchContext implements ContextBatchQuerier with the same
// failover: the whole batch ships to one member, moving to the next on
// error. The result slice is parallel to qs.
func (r *Replicas) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	for i, q := range qs {
		if err := CheckCapabilities(q, r.caps, r.name); err != nil {
			return nil, &QueryError{Source: r.name, Index: i, Err: err}
		}
	}
	var res [][]*oem.Object
	err := r.failover(ctx, func(ctx context.Context, m Source) (err error) {
		if res, err = QueryBatchContext(ctx, m, qs); err == nil && len(res) != len(qs) {
			err = fmt.Errorf("answered %d of %d queries", len(res), len(qs))
		}
		return err
	})
	if _, allDown := err.(*PartialError); allDown {
		res = make([][]*oem.Object, len(qs))
	}
	return res, err
}

// failover makes call against the members in ranked order until one
// succeeds, recording each outcome in the member's EWMAs. It returns nil
// on success, the run's error once the run is over, a *PartialError
// naming every member when the run has circuit-broken them all, and else
// the last member's *ReplicaError.
func (r *Replicas) failover(ctx context.Context, call func(context.Context, Source) error) error {
	scope, release := enterMembers(ctx)
	defer release()
	reg := metrics.Default()
	var lastErr error
	for _, i := range r.ranked() {
		m := r.members[i]
		if scope.skip(m) {
			continue
		}
		if err := scope.ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		err := scope.call(func(ctx context.Context) error { return call(ctx, m) })
		r.observe(i, time.Since(start), err)
		if err != nil {
			lastErr = r.memberError(i, err)
			reg.Counter("replica.failover").Inc()
			continue
		}
		reg.Counter("replica.exchanges").Inc()
		reg.Counter("replica.routed." + m.Name()).Inc()
		return nil
	}
	if lastErr == nil {
		pe := &PartialError{}
		for i := range r.members {
			pe.Failed = append(pe.Failed, r.memberError(i, errMemberDown))
		}
		return pe
	}
	return lastErr
}

// ranked returns the member indices in failover order: unobserved
// members first, then by ascending score, in which errors dominate — a
// member failing every call ranks far below a slow but healthy one. Ties
// keep registration order.
func (r *Replicas) ranked() []int {
	r.mu.Lock()
	scores := make([]float64, len(r.health))
	for i, h := range r.health {
		scores[i] = -1
		if h.latSeen || h.errRate > 0 {
			scores[i] = h.lat*(1+20*h.errRate) + h.errRate
		}
	}
	r.mu.Unlock()
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	return order
}

// observe folds one member call into the member's EWMAs: a success
// updates its latency and decays its error rate, a failure raises it.
func (r *Replicas) observe(i int, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &r.health[i]
	if err != nil {
		h.errRate += errAlpha * (1 - h.errRate)
		return
	}
	if sec := d.Seconds(); !h.latSeen {
		h.lat, h.latSeen = sec, true
	} else {
		h.lat += latAlpha * (sec - h.lat)
	}
	h.errRate *= 1 - errAlpha
}

// CountLabel implements Counter: the first member that can count answers
// for the whole extent (every replica holds it all).
func (r *Replicas) CountLabel(label string) (int, bool) {
	for _, m := range r.members {
		if c, ok := m.(Counter); ok {
			if n, ok := c.CountLabel(label); ok {
				return n, true
			}
		}
	}
	return 0, false
}

// OnChange implements Notifier by forwarding the first feed-capable
// member's deltas, re-labelled with the composite's name. One feed
// suffices: members are answer-equivalent, so the same logical mutation
// reaches every replica and forwarding all feeds would deliver N copies
// of each delta.
func (r *Replicas) OnChange(fn func(Delta)) {
	for _, m := range r.members {
		n, ok := m.(Notifier)
		if !ok {
			continue
		}
		n.OnChange(func(d Delta) {
			d.Source = r.name
			fn(d)
		})
		return
	}
}
