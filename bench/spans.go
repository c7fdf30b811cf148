package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Query  int    `json:"query"`  // op id; every span of one op shares it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Answers is the number of objects a source span returned.
	Answers int `json:"answers,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// wireExchange is one captured source exchange: what would cross the wire.
type wireExchange struct {
	queries []string
	answers [][]*oem.Object
}

// tracer keeps spans in memory until the pass ends. The traced pass runs
// one client, so "the op in flight" is a single value: source spans, also
// those recorded on the far side of the wire, attach to it without any
// identifier travelling through the program.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	query    int            // op in flight
	parent   int            // span that source calls made now belong to
	wire     bool           // sources sit behind remote clients
	inflight map[string]int // client-side exchange span by first query text
	capture  bool           // record the answers of innermost source spans
	captured []wireExchange
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: map[string]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: t.query, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 { return t.endWith(id, 0) }

// endWith closes a source span, recording how many objects it returned.
func (t *tracer) endWith(id, answers int) int64 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Answers = now, answers
	return s.End - s.Start
}

// stage times fn as a child of the op's root span and makes it the parent
// of the source spans recorded while it runs.
func (t *tracer) stage(name string, root int, fn func()) {
	id := t.begin(name, root)
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
	fn()
	t.end(id)
}

// setQuery makes query the op that spans recorded from now on belong to.
func (t *tracer) setQuery(query int) {
	t.mu.Lock()
	t.query = query
	t.mu.Unlock()
}

// probe times fn as a root span beside the op in flight.
func (t *tracer) probe(name string, fn func()) {
	id := t.begin(name, 0)
	fn()
	t.end(id)
}

// beginOp starts the next op and returns its root span.
func (t *tracer) beginOp(query int) int {
	t.setQuery(query)
	return t.begin("op", 0)
}

// setCapture turns recording of source answers on or off.
func (t *tracer) setCapture(on bool) {
	t.mu.Lock()
	t.capture = on
	t.mu.Unlock()
}

// write stores the pass's spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSource is the benchmark's pass-through decorator: it forwards every
// capability the engine and the optimizer probe for, and while the tracer
// is on records one span per exchange. Placed around a raw source its
// spans are that source's busy time; placed around a remote client they
// are the round trip, and the raw source's spans behind the server nest
// inside them.
type spanSource struct {
	inner wrapper.Source
	tr    *tracer
	layer string // span name: "source.<name>" or "remote.<name>"
	outer bool   // a client-side span that server-side spans attach to
}

var (
	_ wrapper.ContextSource       = (*spanSource)(nil)
	_ wrapper.BatchQuerier        = (*spanSource)(nil)
	_ wrapper.ContextBatchQuerier = (*spanSource)(nil)
	_ wrapper.Counter             = (*spanSource)(nil)
	_ wrapper.Notifier            = (*spanSource)(nil)
)

// decorate wraps src when tr is set; without a tracer the raw source is
// used as it is, so untraced runs carry no benchmark code on the path.
func decorate(src wrapper.Source, tr *tracer, layer string, outer bool) wrapper.Source {
	if tr == nil {
		return src
	}
	return &spanSource{inner: src, tr: tr, layer: layer + "." + src.Name(), outer: outer}
}

func (s *spanSource) Name() string                       { return s.inner.Name() }
func (s *spanSource) Capabilities() wrapper.Capabilities { return s.inner.Capabilities() }

func (s *spanSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	return s.QueryContext(context.Background(), q)
}

func (s *spanSource) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	var out []*oem.Object
	err := s.exchange([]*msl.Rule{q}, func() (answers [][]*oem.Object, err error) {
		out, err = wrapper.QueryContext(ctx, s.inner, q)
		return [][]*oem.Object{out}, err
	})
	return out, err
}

func (s *spanSource) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return s.QueryBatchContext(context.Background(), qs)
}

func (s *spanSource) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	var out [][]*oem.Object
	err := s.exchange(qs, func() (answers [][]*oem.Object, err error) {
		out, err = wrapper.QueryBatchContext(ctx, s.inner, qs)
		return out, err
	})
	return out, err
}

// CountLabel forwards the optimizer's cardinality probe; a source that
// cannot count answers (0, false), which is what the planner assumes of a
// source without the method.
func (s *spanSource) CountLabel(label string) (int, bool) {
	if c, ok := s.inner.(wrapper.Counter); ok {
		return c.CountLabel(label)
	}
	return 0, false
}

// OnChange forwards the change-feed subscription, so a mediator built
// over decorated sources delta-maintains its views exactly as without.
func (s *spanSource) OnChange(fn func(wrapper.Delta)) {
	if n, ok := s.inner.(wrapper.Notifier); ok {
		n.OnChange(fn)
	}
}

// exchange runs one call to the inner source under a span.
func (s *spanSource) exchange(qs []*msl.Rule, call func() ([][]*oem.Object, error)) error {
	t := s.tr
	if !t.on.Load() || len(qs) == 0 {
		_, err := call()
		return err
	}
	// Both sides of the wire see the same query text, which is what lets
	// a server-side span find the client-side span that caused it.
	key := ""
	if t.wire {
		key = s.inner.Name() + "\x00" + qs[0].String()
	}
	t.mu.Lock()
	parent := t.parent
	if p, ok := t.inflight[key]; ok && !s.outer {
		parent = p
	}
	t.mu.Unlock()
	id := t.begin(s.layer, parent)
	if s.outer {
		t.mu.Lock()
		t.inflight[key] = id
		t.mu.Unlock()
	}
	answers, err := call()
	n := 0
	for _, a := range answers {
		n += len(a)
	}
	t.endWith(id, n)
	t.mu.Lock()
	if s.outer {
		delete(t.inflight, key)
	} else if t.capture && err == nil {
		ex := wireExchange{answers: answers}
		for _, q := range qs {
			ex.queries = append(ex.queries, q.String())
		}
		t.captured = append(t.captured, ex)
	}
	t.mu.Unlock()
	return err
}
