package remote

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Client is a wrapper.Source backed by a remote Server. Every request
// travels as an ID-tagged frame on one shared multiplexed connection:
// concurrent queries (the engine's parallel fan-out) interleave their
// frames and responses return out of order, each matched back to its
// caller by ID — no per-burst dialing, one socket per peer. A connection
// that dies is redialed and renegotiated on the next request. Use Dial to
// construct one.
type Client struct {
	addr    string
	timeout time.Duration
	name    string
	caps    wrapper.Capabilities

	muxMu  sync.Mutex
	mux    *muxConn
	closed bool

	frameLog atomic.Pointer[FrameLog]
}

var (
	_ wrapper.Source              = (*Client)(nil)
	_ wrapper.BatchQuerier        = (*Client)(nil)
	_ wrapper.ContextSource       = (*Client)(nil)
	_ wrapper.ContextBatchQuerier = (*Client)(nil)
)

// Dial connects to a remote wrapper and performs the handshake that
// fetches its name and capabilities and negotiates the protocol version.
// timeout bounds dialing and each round trip (0 means 10s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	c := &Client{addr: addr, timeout: timeout}
	resp, _, err := c.negotiate(context.Background())
	if err != nil {
		return nil, err
	}
	c.name = resp.Name
	c.caps = resp.Caps
	return c, nil
}

// negotiate dials a fresh connection, performs the unframed hello that
// offers ProtoFramed, and installs the connection as the client's shared
// mux. A refusal — a busy server, or one of another protocol version —
// is an error and leaves no connection behind.
func (c *Client) negotiate(ctx context.Context) (Response, *muxConn, error) {
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return Response{}, nil, fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	conn.SetDeadline(time.Now().Add(c.timeout))
	var resp Response
	err = enc.Encode(Request{Kind: reqHello, Proto: ProtoFramed})
	if err == nil {
		err = dec.Decode(&resp)
	}
	if err != nil {
		conn.Close()
		return Response{}, nil, fmt.Errorf("remote: %s: hello: %w", c.addr, err)
	}
	if err := respError(c.addr, resp); err != nil {
		conn.Close()
		return Response{}, nil, err
	}
	if resp.Proto != ProtoFramed {
		conn.Close()
		return Response{}, nil, fmt.Errorf("remote: %s: server speaks protocol %d, client speaks %d",
			c.addr, resp.Proto, ProtoFramed)
	}
	conn.SetDeadline(time.Time{})
	m := newMuxConn(conn, enc, dec, c.timeout, &c.frameLog)
	c.muxMu.Lock()
	old, closed := c.mux, c.closed
	if !closed {
		c.mux = m
	}
	c.muxMu.Unlock()
	if old != nil {
		old.fail(errors.New("remote: connection replaced"))
	}
	if closed {
		m.fail(errors.New("remote: client closed"))
		return Response{}, nil, fmt.Errorf("remote: %s: client closed", c.addr)
	}
	return resp, m, nil
}

// Proto reports the negotiated protocol version. A client that dialed
// successfully always speaks ProtoFramed: peers of other versions fail in
// Dial.
func (c *Client) Proto() int { return ProtoFramed }

// Name implements wrapper.Source.
func (c *Client) Name() string { return c.name }

// Capabilities implements wrapper.Source.
func (c *Client) Capabilities() wrapper.Capabilities { return c.caps }

// Query implements wrapper.Source: the rule is shipped as MSL text and
// the result objects come back over the wire. Query is safe for
// concurrent use.
func (c *Client) Query(q *msl.Rule) ([]*oem.Object, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext implements wrapper.ContextSource. The context bounds the
// whole round trip — dialing, writing, and waiting for the answer — and
// its remaining deadline budget travels with the request so the server
// abandons evaluation the client will no longer wait for.
func (c *Client) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	resp, err := c.roundTrip(ctx, Request{Kind: reqQuery, Query: q.String()})
	if err != nil {
		return nil, err
	}
	if err := respError(c.name, resp); err != nil {
		return nil, err
	}
	return resp.Objects, resp.partialError()
}

// QueryBatch implements wrapper.BatchQuerier: several queries travel in
// one network round-trip and the result sets come back in request order.
// This is what makes the engine's parameterized-query batching pay off
// against remote sources — a batch of k instantiated queries costs one
// exchange instead of k.
func (c *Client) QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error) {
	return c.QueryBatchContext(context.Background(), qs)
}

// QueryBatchContext implements wrapper.ContextBatchQuerier: QueryBatch
// bounded by ctx the same way QueryContext is. A batch bound from one
// template (the engine's parameterized probes) travels as a bind request
// — the template text once, then only the binding tuples — and any other
// batch as MSL texts.
func (c *Client) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	req, ok := bindRequest(qs)
	if !ok {
		texts := make([]string, len(qs))
		for i, q := range qs {
			texts[i] = q.String()
		}
		req = Request{Kind: reqBatch, Queries: texts}
	}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := respError(c.name, resp); err != nil {
		return nil, err
	}
	if len(resp.Batches) != len(qs) {
		return nil, fmt.Errorf("remote: %s: batch answer carries %d result sets for %d queries",
			c.name, len(resp.Batches), len(qs))
	}
	return resp.Batches, resp.partialError()
}

// bindRequest packs qs as one bind request when every rule was bound
// from the same template and every tuple has an atom encoding.
func bindRequest(qs []*msl.Rule) (Request, bool) {
	if len(qs) == 0 {
		return Request{}, false
	}
	tmpl, _, ok := qs[0].Origin()
	if !ok {
		return Request{}, false
	}
	tuples := make([][]oem.Value, len(qs))
	for i, q := range qs {
		t, tuple, ok := q.Origin()
		if !ok || t != tmpl {
			return Request{}, false
		}
		tuples[i] = tuple
	}
	data, err := encodeTuples(len(tmpl.Slots()), tuples)
	if err != nil {
		return Request{}, false
	}
	return Request{Kind: reqBind, Template: tmpl.Text(), Slots: tmpl.Slots(), Tuples: data}, true
}

// Metrics scrapes the server process's metrics registry: request counts
// and latency histograms per request kind, plus whatever else that
// process records into the registry the server was given (the engine's
// exchange counters when the remote process is itself a mediator). An
// old server that predates the metrics request answers with the field
// absent, which surfaces as an error rather than an empty snapshot.
func (c *Client) Metrics(ctx context.Context) (*metrics.Snapshot, error) {
	resp, err := c.roundTrip(ctx, Request{Kind: reqMetrics})
	if err != nil {
		return nil, err
	}
	if err := respError(c.name, resp); err != nil {
		return nil, err
	}
	if resp.Metrics == nil {
		return nil, fmt.Errorf("remote: %s: server does not serve metrics", c.name)
	}
	return resp.Metrics, nil
}

// CountLabel implements wrapper.Counter over the wire, letting the
// optimizer probe remote sources for cold-start cardinalities. A network
// failure degrades to "cannot count" rather than an error.
func (c *Client) CountLabel(label string) (int, bool) {
	resp, err := c.roundTrip(context.Background(), Request{Kind: reqCount, Label: label})
	if err != nil || !resp.CountOK {
		return 0, false
	}
	return resp.Count, true
}

// ErrServerBusy reports a connection refused by a server at its
// connection bound (Server.MaxConns). Match with errors.Is and back off —
// the server is healthy, just full.
var ErrServerBusy = errors.New("server busy")

// respError converts a Response's error fields back into the typed error
// the server-side evaluation produced: a capability rejection, a busy
// refusal (wrapped so errors.Is matches ErrServerBusy), a context error
// from the request's deadline budget (wrapped so errors.Is matches
// context.DeadlineExceeded/Canceled), or a plain remote error.
func respError(name string, resp Response) error {
	if resp.Unsupported != "" {
		return &wrapper.UnsupportedError{Source: name, Feature: resp.Unsupported}
	}
	if resp.Busy {
		return fmt.Errorf("remote: %s: %w", name, ErrServerBusy)
	}
	if resp.Err == "" {
		return nil
	}
	switch resp.CtxErr {
	case "deadline":
		return fmt.Errorf("remote: %s: %w", name, context.DeadlineExceeded)
	case "canceled":
		return fmt.Errorf("remote: %s: %w", name, context.Canceled)
	}
	return fmt.Errorf("remote: %s: %s", name, resp.Err)
}

// Close tears down the multiplexed connection; in-flight requests fail.
func (c *Client) Close() error {
	c.muxMu.Lock()
	c.closed = true
	m := c.mux
	c.mux = nil
	c.muxMu.Unlock()
	if m != nil {
		m.fail(errors.New("remote: client closed"))
	}
	return nil
}

// roundTrip sends one request as a frame on the shared multiplexed
// connection and waits for its response, bounded by ctx. A request that
// failed before its response started arriving is retried once on a fresh
// connection (the server may have restarted); a request cancelled or
// timed out by ctx is not retried and surfaces ctx's error.
func (c *Client) roundTrip(ctx context.Context, req Request) (Response, error) {
	// The transport deadline is the earlier of the client's per-round-trip
	// timeout and the context's own deadline; the remaining budget also
	// travels in the request so the server gives up evaluating in step
	// with the client giving up waiting.
	deadline := time.Now().Add(c.timeout)
	if cd, ok := ctx.Deadline(); ok {
		if cd.Before(deadline) {
			deadline = cd
		}
		remaining := time.Until(cd)
		if remaining <= 0 {
			// The deadline already passed (ctx.Err() may still read nil in
			// the instant before the context notices). Shipping the request
			// with no TimeoutMillis would let the server evaluate unbounded
			// work the client will never wait for — fail fast instead.
			return Response{}, context.DeadlineExceeded
		}
		req.TimeoutMillis = int64(remaining / time.Millisecond)
		if req.TimeoutMillis == 0 {
			req.TimeoutMillis = 1
		}
	}
	return c.muxRoundTrip(ctx, req, deadline)
}

// muxRoundTrip performs one exchange on the shared framed connection.
// Waiting is per request — a timeout abandons this frame's pending slot
// and leaves the connection (and everyone else's in-flight frames)
// untouched; only a transport failure kills the connection, which is
// then redialed once.
func (c *Client) muxRoundTrip(ctx context.Context, req Request, deadline time.Time) (Response, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Response{}, err
		}
		m, err := c.muxGet(ctx)
		if err != nil {
			return Response{}, err
		}
		id, ch, err := m.send(req)
		if err != nil {
			c.muxDrop(m)
			if cerr := ctx.Err(); cerr != nil {
				return Response{}, cerr
			}
			if attempt >= 1 {
				return Response{}, fmt.Errorf("remote: %s: %w", c.addr, err)
			}
			continue
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case resp, ok := <-ch:
			timer.Stop()
			if ok {
				return resp, nil
			}
			// The connection died with this frame in flight.
			c.muxDrop(m)
			if cerr := ctx.Err(); cerr != nil {
				return Response{}, cerr
			}
			if attempt >= 1 {
				return Response{}, fmt.Errorf("remote: %s: %w", c.addr, m.failure())
			}
		case <-timer.C:
			m.abandon(id)
			return Response{}, fmt.Errorf("remote: %s: %w", c.addr, context.DeadlineExceeded)
		case <-ctx.Done():
			timer.Stop()
			m.abandon(id)
			return Response{}, ctx.Err()
		}
	}
}

// muxGet returns the live multiplexed connection, redialing and
// re-negotiating if the previous one died.
func (c *Client) muxGet(ctx context.Context) (*muxConn, error) {
	c.muxMu.Lock()
	if c.closed {
		c.muxMu.Unlock()
		return nil, fmt.Errorf("remote: %s: client closed", c.addr)
	}
	if m := c.mux; m != nil && !m.isDead() {
		c.muxMu.Unlock()
		return m, nil
	}
	c.muxMu.Unlock()
	_, m, err := c.negotiate(ctx)
	return m, err
}

// muxDrop kills m and detaches it if it is still the client's current
// connection, so the next request dials afresh.
func (c *Client) muxDrop(m *muxConn) {
	m.fail(errors.New("remote: connection failed"))
	c.muxMu.Lock()
	if c.mux == m {
		c.mux = nil
	}
	c.muxMu.Unlock()
}
