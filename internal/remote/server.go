package remote

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/wrapper"
)

// Server exposes a wrapper.Source over TCP.
type Server struct {
	source wrapper.Source

	// IdleTimeout bounds how long an accepted connection may sit between
	// requests before the server closes it (0 = DefaultIdleTimeout; <0 =
	// no bound). Clients redial transparently, so reclaiming an idle
	// connection is invisible to them.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (0 = DefaultWriteTimeout;
	// <0 = no bound). It protects handler goroutines from a client that
	// stopped reading.
	WriteTimeout time.Duration
	// Metrics is the registry this server records request traffic into and
	// serves to metrics requests. Nil means the process-wide default — the
	// same registry the engine and the source's own cache record into, so
	// one scrape sees the whole process.
	Metrics *metrics.Registry
	// MaxConns bounds concurrently served connections. A connection beyond
	// the bound is not left to stall in the OS accept backlog: it is
	// accepted, told "server busy" in a typed response (Response.Busy, which
	// clients surface as ErrServerBusy), and closed — so an overloaded
	// server degrades into fast, explicit refusals instead of invisible
	// queueing. 0 means DefaultMaxConns; negative means unlimited. Set it
	// before Start.
	MaxConns int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	closed   bool
}

// Default connection deadlines (see Server.IdleTimeout, WriteTimeout).
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// DefaultMaxConns is the connection bound used when Server.MaxConns is 0.
const DefaultMaxConns = 256

// busyMessage travels in the refusal response's Err field so clients that
// predate the Busy flag still see a meaningful error.
const busyMessage = "server busy"

// NewServer wraps source; call Serve or Start to accept connections.
func NewServer(source wrapper.Source) *Server {
	return &Server{source: source, conns: make(map[net.Conn]bool)}
}

// effective deadline helpers: 0 means default, negative means none.
func pickTimeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// in the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("remote: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	max := s.MaxConns
	if max == 0 {
		max = DefaultMaxConns
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if max > 0 && len(s.conns) >= max {
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.refuse(conn)
			}()
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.ServeConn(conn)
		}()
	}
}

// refuse answers an over-capacity connection with a typed busy response
// and closes it. Writing before reading is safe: the refusal is the first
// and only message on the stream, and the client's pending request sits in
// the TCP buffers unread.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	s.registry().Counter("remote.busy").Inc()
	if write := pickTimeout(s.WriteTimeout, DefaultWriteTimeout); write > 0 {
		conn.SetWriteDeadline(time.Now().Add(write))
	}
	if gob.NewEncoder(conn).Encode(Response{Err: busyMessage, Busy: true}) != nil {
		return
	}
	// Closing with the client's hello unread would reset the connection,
	// and the reset can reach the client before the refusal does. Half-close
	// instead and drain until the client hangs up (or the linger ends).
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(refuseLinger))
	io.Copy(io.Discard, conn)
}

// refuseLinger bounds how long a refused connection is drained.
const refuseLinger = time.Second

// Close stops accepting, closes live connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ServeConn handles a single pre-established connection until it closes —
// useful for in-memory pipes in tests. Deadlines and idle reclamation
// apply only when conn supports them (a net.Conn does, an in-memory pipe
// may not).
func (s *Server) ServeConn(conn io.ReadWriter) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	if s.hello(conn, dec, enc) {
		s.handleFramed(conn, dec, enc)
	}
}

// hello answers the connection's opening request, which must be a hello
// offering ProtoFramed, and reports whether the connection may go on to
// framed traffic. Any other opening is answered with an error, so a peer
// of another protocol version fails at the hello rather than mid-stream.
func (s *Server) hello(conn io.ReadWriter, dec *gob.Decoder, enc *gob.Encoder) bool {
	rd, hasReadDeadline := conn.(interface{ SetReadDeadline(time.Time) error })
	wd, hasWriteDeadline := conn.(interface{ SetWriteDeadline(time.Time) error })
	if idle := pickTimeout(s.IdleTimeout, DefaultIdleTimeout); idle > 0 && hasReadDeadline {
		rd.SetReadDeadline(time.Now().Add(idle))
	}
	var req Request
	if err := dec.Decode(&req); err != nil {
		return false // disconnected, idle-expired, or malformed stream
	}
	if hasReadDeadline {
		rd.SetReadDeadline(time.Time{})
	}
	var resp Response
	switch {
	case req.Kind != reqHello:
		resp.Err = fmt.Sprintf("remote: connection opened with %q, want a hello", req.Kind)
	case req.Proto != ProtoFramed:
		resp.Err = fmt.Sprintf("remote: client speaks protocol %d, server speaks %d", req.Proto, ProtoFramed)
	default:
		resp = s.dispatch(req)
		resp.Proto = ProtoFramed
	}
	if write := pickTimeout(s.WriteTimeout, DefaultWriteTimeout); write > 0 && hasWriteDeadline {
		wd.SetWriteDeadline(time.Now().Add(write))
		defer wd.SetWriteDeadline(time.Time{})
	}
	return enc.Encode(resp) == nil && resp.Proto == ProtoFramed
}

// maxInflightFrames bounds the evaluation goroutines one framed
// connection may hold at once. Reading stops while the connection is at
// the bound, so a client that pipelines faster than the source answers
// gets transport backpressure instead of an unbounded goroutine pile.
const maxInflightFrames = 64

// handleFramed serves a connection after the framed upgrade: a read loop
// decodes request frames and hands each to its own goroutine, responses
// are written under a mutex in completion order (out-of-order relative
// to the requests), and the ID ties each response to its request. The
// gob decoder cannot resume after a read-deadline pop, so the idle bound
// is enforced by a watchdog that closes a connection with no traffic and
// no evaluating requests instead of by deadlines on the blocked read.
func (s *Server) handleFramed(conn io.ReadWriter, dec *gob.Decoder, enc *gob.Encoder) {
	write := pickTimeout(s.WriteTimeout, DefaultWriteTimeout)
	reg := s.registry()
	wd, hasWriteDeadline := conn.(interface{ SetWriteDeadline(time.Time) error })
	closer, hasClose := conn.(interface{ Close() error })

	var (
		writeMu  sync.Mutex
		inflight atomic.Int64
		lastNano atomic.Int64
	)
	lastNano.Store(time.Now().UnixNano())
	if idle := pickTimeout(s.IdleTimeout, DefaultIdleTimeout); idle > 0 && hasClose {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(idle / 4)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					quiet := time.Since(time.Unix(0, lastNano.Load()))
					if inflight.Load() == 0 && quiet >= idle {
						closer.Close() // pops the blocked frame read
						return
					}
				}
			}
		}()
	}

	sem := make(chan struct{}, maxInflightFrames)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		var f reqFrame
		if err := dec.Decode(&f); err != nil {
			return // disconnected, idle-reclaimed, or malformed stream
		}
		reg.Counter("remote.frames.recv").Inc()
		lastNano.Store(time.Now().UnixNano())
		inflight.Add(1)
		sem <- struct{}{}
		wg.Add(1)
		go func(f reqFrame) {
			defer wg.Done()
			defer func() { <-sem }()
			resp := s.dispatch(f.Req)
			writeMu.Lock()
			if write > 0 && hasWriteDeadline {
				wd.SetWriteDeadline(time.Now().Add(write))
			}
			err := enc.Encode(respFrame{ID: f.ID, Resp: resp})
			if errors.Is(err, errCodec) {
				// The answers could not be encoded (nothing was written):
				// the request fails, the connection stays.
				err = enc.Encode(respFrame{ID: f.ID, Resp: Response{Err: err.Error()}})
			}
			if err == nil && write > 0 && hasWriteDeadline {
				wd.SetWriteDeadline(time.Time{})
			}
			writeMu.Unlock()
			reg.Counter("remote.frames.sent").Inc()
			lastNano.Store(time.Now().UnixNano())
			inflight.Add(-1)
			if err != nil && hasClose {
				closer.Close() // a broken write ends the whole connection
			}
		}(f)
	}
}

// ctxErrKind classifies an evaluation error for Response.CtxErr.
func ctxErrKind(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return ""
}

// reqContext derives the evaluation context for one request from the
// deadline budget the client shipped with it.
func reqContext(req Request) (context.Context, context.CancelFunc) {
	if req.TimeoutMillis > 0 {
		return context.WithTimeout(context.Background(),
			time.Duration(req.TimeoutMillis)*time.Millisecond)
	}
	return context.Background(), func() {}
}

// registry resolves the server's metrics destination.
func (s *Server) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return metrics.Default()
}

// dispatch evaluates one request, recording per-kind traffic and latency
// so a scrape of this server reports what it has been serving. Unknown
// kinds share one bucket — the name space stays bounded whatever clients
// send.
func (s *Server) dispatch(req Request) Response {
	reg := s.registry()
	kind := req.Kind
	switch kind {
	case reqHello, reqQuery, reqCount, reqBatch, reqBind, reqMetrics:
	default:
		kind = "unknown"
	}
	start := time.Now()
	resp := s.dispatchKind(req)
	reg.Counter("remote.requests." + kind).Inc()
	reg.Histogram("remote.latency." + kind).Observe(time.Since(start))
	if resp.Err != "" {
		reg.Counter("remote.errors").Inc()
	}
	return resp
}

func (s *Server) dispatchKind(req Request) Response {
	switch req.Kind {
	case reqMetrics:
		// The snapshot precedes this request's own accounting (dispatch
		// records after evaluating), so a scrape reports the traffic
		// strictly before it.
		snap := s.registry().Snapshot()
		return Response{Metrics: &snap}
	case reqHello:
		return Response{Name: s.source.Name(), Caps: s.source.Capabilities()}
	case reqCount:
		if counter, ok := s.source.(wrapper.Counter); ok {
			n, ok := counter.CountLabel(req.Label)
			return Response{Count: n, CountOK: ok}
		}
		return Response{CountOK: false}
	case reqQuery:
		rule, err := msl.ParseQuery(req.Query)
		if err != nil {
			return Response{Err: err.Error()}
		}
		ctx, cancel := reqContext(req)
		objs, err := wrapper.QueryContext(ctx, s.source, rule)
		cancel()
		resp := answerResponse(err)
		if resp.Err == "" {
			resp.Objects = objs
		}
		return resp
	case reqBatch:
		rules := make([]*msl.Rule, len(req.Queries))
		for i, text := range req.Queries {
			rule, err := msl.ParseQuery(text)
			if err != nil {
				return Response{Err: err.Error()}
			}
			rules[i] = rule
		}
		return s.queryBatch(req, rules)
	case reqBind:
		rules, err := bindRules(req)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return s.queryBatch(req, rules)
	}
	return Response{Err: fmt.Sprintf("remote: unknown request kind %q", req.Kind)}
}

// queryBatch answers several queries in one exchange — the server side
// of wrapper.BatchQuerier. The inner source answers them in one call
// when it can batch itself (a chain of remote hops collapses into one
// exchange per hop, bound rules staying bind requests), otherwise query
// by query.
func (s *Server) queryBatch(req Request, rules []*msl.Rule) Response {
	ctx, cancel := reqContext(req)
	results, err := wrapper.QueryBatchContext(ctx, s.source, rules)
	cancel()
	resp := answerResponse(err)
	if resp.Err == "" {
		resp.Batches = results
	}
	return resp
}

// maxBindCopy bounds a bind request's amplification: binding may copy at
// most this many template nodes per byte of template text and tuples, so
// a short request naming a large template cannot make the server
// allocate out of proportion to what it was sent.
const maxBindCopy = 16

// bindRules parses a bind request's template once and binds every tuple
// it carries. The tuples are checked against the slots (arity, value
// tags, and a count the payload can hold) before anything is bound.
func bindRules(req Request) ([]*msl.Rule, error) {
	rule, err := msl.ParseQuery(req.Template)
	if err != nil {
		return nil, err
	}
	tmpl, err := msl.Compile(rule, req.Slots)
	if err != nil {
		return nil, err
	}
	tuples, err := decodeTuples(req.Tuples, len(req.Slots))
	if err != nil {
		return nil, err
	}
	payload := len(req.Template) + len(req.Tuples)
	if copies := len(tuples) * (tmpl.Nodes() + 1); copies > maxBindCopy*payload {
		return nil, fmt.Errorf("remote: bind request would copy %d template nodes for %d bytes", copies, payload)
	}
	rules := make([]*msl.Rule, len(tuples))
	for i, tuple := range tuples {
		if rules[i], err = tmpl.Bind(tuple); err != nil {
			return nil, err
		}
	}
	return rules, nil
}
