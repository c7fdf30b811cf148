// Package streamsource provides a bounded append-only event log exported
// as an OEM source. Producers Append OEM roots (events); consumers query
// the retained window through the ordinary pattern interface, exactly as
// they would query a static store. Retention is bounded by event count
// and/or age: appending past the bound or letting events age out evicts
// the oldest events. Every mutation — appends and evictions alike — is
// described to wrapper.Notifier subscribers as a Delta, so a mediator's
// materialized views stay fresh by incremental maintenance while the
// stream churns underneath them.
package streamsource

import (
	"context"
	"sync"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Options bounds the retained window. The zero value retains everything.
type Options struct {
	// MaxEvents caps the number of retained events; 0 means unlimited.
	// Appending the (MaxEvents+1)-th event evicts the oldest.
	MaxEvents int
	// MaxAge caps event age; 0 means unlimited. Expiry is lazy — checked
	// on Append and on every query entry point, and forceable with Expire
	// — so subscribers see eviction deltas at the next touch, not at the
	// instant of expiry.
	MaxAge time.Duration
	// Clock supplies the current time; nil means time.Now. Tests inject
	// fake clocks to drive age-based retention deterministically.
	Clock func() time.Time
}

func (o Options) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

// Source is the event-log source: a wrapper.Collection whose retention
// runs before every read. It is safe for concurrent use.
type Source struct {
	*wrapper.Collection
	opts Options

	mu    sync.Mutex // serializes Append and Expire; guards times and total
	times map[oem.OID]time.Time
	total int64 // events ever appended
}

// New returns an empty stream source with the given retention options.
func New(name string, opts Options) *Source {
	if opts.MaxEvents < 0 {
		opts.MaxEvents = 0
	}
	return &Source{
		Collection: wrapper.NewCollection(name, wrapper.FullCapabilities()),
		opts:       opts,
		times:      make(map[oem.OID]time.Time),
	}
}

// Append adds events to the log, evicting the oldest retained events as
// the count/age bounds require, and emits one Delta carrying both the
// inserts and any evictions. The event objects are stamped with oids and
// must not be mutated afterwards.
func (s *Source) Append(events ...*oem.Object) error {
	if len(events) == 0 {
		return nil
	}
	now := s.opts.now()
	s.mu.Lock()
	d, err := s.Update(events, s.overflow(now, len(events)))
	if err == nil {
		for _, e := range events {
			s.times[e.OID] = now
		}
		s.total += int64(len(events))
		s.forget(d.Deleted)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.Emit(d)
	return nil
}

// overflow returns how many of the oldest events adding more events at
// now evicts: those aged out, then those past MaxEvents. The caller holds
// s.mu.
func (s *Source) overflow(now time.Time, adding int) int {
	tops := s.Export() // oldest first
	n := 0
	if s.opts.MaxAge > 0 {
		cutoff := now.Add(-s.opts.MaxAge)
		for n < len(tops) && s.times[tops[n].OID].Before(cutoff) {
			n++
		}
	}
	if total := len(tops) + adding; s.opts.MaxEvents > 0 && total-n > s.opts.MaxEvents {
		n = total - s.opts.MaxEvents
	}
	return n
}

// forget drops the append times of evicted events. The caller holds s.mu.
func (s *Source) forget(evicted []*oem.Object) {
	for _, o := range evicted {
		delete(s.times, o.OID)
	}
}

// Expire evicts events that have aged out as of now, emitting a delete
// delta, and returns the evicted roots. Every query entry point expires
// first; Expire lets a housekeeping loop bound staleness explicitly.
func (s *Source) Expire() []*oem.Object {
	now := s.opts.now()
	s.mu.Lock()
	d, _ := s.Update(nil, s.overflow(now, 0))
	s.forget(d.Deleted)
	s.mu.Unlock()
	s.Emit(d)
	return d.Deleted
}

// Appended returns the total number of events ever appended.
func (s *Source) Appended() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Query implements wrapper.Source over the retained window, expiring
// aged-out events first so answers never include data past MaxAge.
func (s *Source) Query(q *msl.Rule) ([]*oem.Object, error) {
	s.Expire()
	return s.Collection.Query(q)
}

// QueryContext implements wrapper.ContextSource, expiring first.
func (s *Source) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	s.Expire()
	return s.Collection.QueryContext(ctx, q)
}

// Candidates implements wrapper.LocalScanner, expiring first.
func (s *Source) Candidates(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	s.Expire()
	return s.Collection.Candidates(ctx, q)
}

// QueryBatch implements wrapper.BatchQuerier, expiring once per batch.
func (s *Source) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	s.Expire()
	return s.Collection.QueryBatch(qs)
}

// QueryBatchContext implements wrapper.ContextBatchQuerier, expiring once
// per batch.
func (s *Source) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	s.Expire()
	return s.Collection.QueryBatchContext(ctx, qs)
}
