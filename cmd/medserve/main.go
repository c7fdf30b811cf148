// Command medserve runs one shared mediator as a concurrent serving tier:
// an HTTP/JSON front end for end-user clients, with admission control
// (bounded in-flight queries plus a bounded wait queue) and graceful
// shedding under overload, and optionally the gob wire protocol of
// internal/remote on a second port so other mediators can stack on top of
// this one (the tiered TSIMMIS deployment of Figure 1.1).
//
//	medserve -spec med.msl -source whois=whois.oem -source cs=tcp:host:port
//	medserve -persons 10000            # built-in scaled demo population
//
// Endpoints:
//
//	POST /query    {"query": "X :- ...", "timeout_ms": 1000, "trace": true}
//	GET  /query?q=X+:-+...             one-off queries from a browser/curl
//	GET  /metrics                      registry dump, text or ?format=json
//	GET  /healthz                      liveness
//
// Under load, a request that cannot start immediately waits in a bounded
// queue; if the queue is full or the wait exceeds -queue-wait the request
// is shed with HTTP 503 and {"busy": true}. A request admitted after
// queueing runs under a degraded execution policy (per-source timeout,
// partial answers) so an overloaded server returns fast lower bounds
// flagged "incomplete" instead of stalling everyone — the ExecPolicy /
// Result.Incomplete machinery doing double duty as load shedding.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"medmaker"
	"medmaker/internal/metrics"
	"medmaker/internal/oem"
	"medmaker/internal/remote"
	"medmaker/internal/sourceflag"
	"medmaker/internal/workload"
)

// demoSpec is the paper's MS1 view over the scaled cs/whois population —
// the same specification the bench workloads measure, so numbers line up.
const demoSpec = `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).

decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "medserve: %v\n", err)
		os.Exit(1)
	}
}

// serveOptions is everything the handler needs beyond the mediator.
type serveOptions struct {
	Registry    *metrics.Registry
	MaxInFlight int           // concurrent queries actually executing
	MaxQueue    int           // waiters beyond that before shedding
	QueueWait   time.Duration // longest a waiter holds on before 503
	ShedTimeout time.Duration // per-source budget for queued requests
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("medserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "HTTP listen address (host:0 picks a port, printed on stdout)")
	gobAddr := fs.String("gob", "", "also serve the gob wire protocol on this address (for stacking mediators)")
	gobMaxConns := fs.Int("gob-max-conns", 0, "gob connection bound (0 = default, <0 = unlimited)")
	specPath := fs.String("spec", "", "MSL specification file; omit to serve the built-in demo population (-persons)")
	name := fs.String("name", "med", "mediator name (what queries write after @)")
	var sources sourceflag.List
	fs.Var(&sources, "source", sourceflag.Usage+", with -spec")
	persons := fs.Int("persons", 10000, "demo population size (without -spec)")
	departments := fs.Int("departments", 4, "demo population departments")
	planCache := fs.Int("plan-cache", 4096, "plan cache entries (0 disables)")
	answerCache := fs.Bool("cache", true, "put an LRU answer cache in front of every source")
	parallel := fs.Int("parallel", 0, "per-query engine parallelism (0 = GOMAXPROCS)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent queries executing (0 = 4*GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 64, "admission queue length before shedding with 503")
	queueWait := fs.Duration("queue-wait", 500*time.Millisecond, "longest a request waits for a slot before 503")
	shedTimeout := fs.Duration("shed-timeout", 2*time.Second, "per-source budget for requests admitted after queueing (degraded, partial answers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	med, closeSources, err := buildMediator(buildConfig{
		Name: *name, SpecPath: *specPath, Sources: sources,
		Persons: *persons, Departments: *departments,
		PlanCacheEntries: *planCache, AnswerCache: *answerCache,
		Parallelism: *parallel,
	})
	if err != nil {
		return err
	}
	defer closeSources()

	reg := metrics.Default()
	handler := newHandler(med, serveOptions{
		Registry:    reg,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		ShedTimeout: *shedTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening %s\n", ln.Addr())

	var gobSrv *remote.Server
	if *gobAddr != "" {
		gobSrv = remote.NewServer(med)
		gobSrv.Metrics = reg
		gobSrv.MaxConns = *gobMaxConns
		bound, err := gobSrv.Start(*gobAddr)
		if err != nil {
			ln.Close()
			return err
		}
		fmt.Fprintf(stdout, "gob %s\n", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Clean shutdown: stop accepting, drain in-flight HTTP requests, close
	// the gob listener and its connections, then let background matview
	// refreshes finish.
	fmt.Fprintln(stdout, "shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if gobSrv != nil {
		gobSrv.Close()
	}
	med.WaitMatViews()
	fmt.Fprintln(stdout, "bye")
	return nil
}

// buildConfig describes the mediator to stand up.
type buildConfig struct {
	Name             string
	SpecPath         string
	Sources          []string
	Persons          int
	Departments      int
	PlanCacheEntries int
	AnswerCache      bool
	Parallelism      int
}

// buildMediator assembles the shared mediator: either from an MSL spec
// file plus -source attachments, or (without -spec) the built-in demo — a
// generated cs/whois staff population under the paper's MS1 view. The
// returned func closes the attached sources.
func buildMediator(bc buildConfig) (*medmaker.Mediator, func(), error) {
	cfg := medmaker.Config{Name: bc.Name, Parallelism: bc.Parallelism}
	if bc.PlanCacheEntries > 0 {
		cfg.PlanCache = &medmaker.PlanCacheOptions{MaxEntries: bc.PlanCacheEntries}
	}
	if bc.AnswerCache {
		cfg.Cache = &medmaker.CacheOptions{}
	}
	closeSources := func() {}
	if bc.SpecPath == "" {
		if len(bc.Sources) > 0 {
			return nil, nil, fmt.Errorf("-source requires -spec")
		}
		if bc.Persons <= 0 {
			return nil, nil, fmt.Errorf("need -spec or a positive -persons for the demo population")
		}
		staff, err := workload.GenStaff(workload.StaffConfig{
			Persons: bc.Persons, Departments: bc.Departments,
			EmployeeFraction: 0.5, Irregularity: 0.3, Seed: 1,
		})
		if err != nil {
			return nil, nil, err
		}
		cfg.Spec = demoSpec
		cfg.Sources = []medmaker.Source{
			medmaker.NewRelationalWrapper("cs", staff.DB),
			medmaker.NewRecordWrapper("whois", staff.Store),
		}
	} else {
		specText, err := os.ReadFile(bc.SpecPath)
		if err != nil {
			return nil, nil, err
		}
		cfg.Spec = string(specText)
		if cfg.Sources, closeSources, err = sourceflag.OpenAll(bc.Sources); err != nil {
			return nil, nil, err
		}
	}
	med, err := medmaker.New(cfg)
	if err != nil {
		closeSources()
		return nil, nil, err
	}
	return med, closeSources, nil
}

// gate is the admission controller: MaxInFlight slots for executing
// queries and a bounded queue of waiters behind them. Everything beyond
// queue capacity — or waiting longer than QueueWait — is shed.
type gate struct {
	slots chan struct{}
	queue chan struct{}
	wait  time.Duration
}

func newGate(opts serveOptions) *gate {
	inflight := opts.MaxInFlight
	if inflight <= 0 {
		inflight = 4 * runtime.GOMAXPROCS(0)
	}
	queue := opts.MaxQueue
	if queue < 0 {
		queue = 0
	}
	wait := opts.QueueWait
	if wait <= 0 {
		wait = 500 * time.Millisecond
	}
	return &gate{
		slots: make(chan struct{}, inflight),
		queue: make(chan struct{}, queue),
		wait:  wait,
	}
}

// admit tries to start a request: ok=false means shed it now. queued
// reports that the request waited for its slot — the handler degrades its
// execution policy in response. release (non-nil iff ok) frees the slot.
func (g *gate) admit(ctx context.Context) (release func(), queued, ok bool) {
	select {
	case g.slots <- struct{}{}:
		return g.release, false, true
	default:
	}
	select {
	case g.queue <- struct{}{}:
		defer func() { <-g.queue }()
	default:
		return nil, false, false // queue full: shed immediately
	}
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		return g.release, true, true
	case <-timer.C:
		return nil, true, false
	case <-ctx.Done():
		return nil, true, false
	}
}

func (g *gate) release() { <-g.slots }

// server is the HTTP handler state around the one shared mediator.
type server struct {
	med  *medmaker.Mediator
	reg  *metrics.Registry
	gate *gate
	shed medmaker.ExecPolicy
}

// newHandler builds the HTTP front end over med.
func newHandler(med *medmaker.Mediator, opts serveOptions) http.Handler {
	return newServer(med, opts).handler()
}

// newServer assembles the handler state; split from newHandler so tests
// can reach the admission gate.
func newServer(med *medmaker.Mediator, opts serveOptions) *server {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	shedTimeout := opts.ShedTimeout
	if shedTimeout <= 0 {
		shedTimeout = 2 * time.Second
	}
	// Pre-touch the distributed-tier counters so a /metrics scrape lists
	// them at zero before any sharded or remote traffic has arrived.
	for _, name := range []string{
		"shard.routed", "shard.scatter", "shard.exchanges", "shard.failures",
		"remote.frames.sent", "remote.frames.recv",
	} {
		reg.Counter(name).Add(0)
	}
	return &server{
		med:  med,
		reg:  reg,
		gate: newGate(opts),
		shed: medmaker.ExecPolicy{
			PerSourceTimeout: shedTimeout,
			OnSourceError:    medmaker.OnSourceErrorPartial,
		},
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// queryRequest is the POST /query body; GET supplies q / timeout_ms /
// trace as URL parameters instead.
type queryRequest struct {
	// Query is the MSL query text.
	Query string `json:"query"`
	// Lorel marks Query as a LOREL "select … from … where …" query to
	// translate first.
	Lorel bool `json:"lorel,omitempty"`
	// TimeoutMillis bounds the whole evaluation; 0 means none.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Trace asks for the structured execution trace in the response.
	Trace bool `json:"trace,omitempty"`
}

// queryResponse is the /query answer.
type queryResponse struct {
	// Objects are the result objects as OEM JSON.
	Objects []json.RawMessage `json:"objects"`
	Count   int               `json:"count"`
	// Incomplete flags a degraded (lower-bound) answer; SourceErrors lists
	// the failures behind it.
	Incomplete   bool     `json:"incomplete,omitempty"`
	SourceErrors []string `json:"source_errors,omitempty"`
	// Queued reports that the request waited for admission and ran under
	// the degraded shedding policy.
	Queued bool `json:"queued,omitempty"`
	// Trace is the execution record when the request asked for one.
	Trace *medmaker.TraceSummary `json:"trace,omitempty"`
}

// errorResponse is any non-200 /query answer.
type errorResponse struct {
	Error string `json:"error"`
	// Busy marks a shed request: the server is healthy, just full — retry
	// with backoff.
	Busy bool `json:"busy,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// parseQueryRequest accepts GET parameters or a JSON (or raw MSL) POST
// body.
func parseQueryRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		req.Trace = r.URL.Query().Get("trace") != ""
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			if _, err := fmt.Sscan(ms, &req.TimeoutMillis); err != nil {
				return req, fmt.Errorf("bad timeout_ms %q", ms)
			}
		}
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err != nil {
			return req, err
		}
		trimmed := strings.TrimSpace(string(body))
		if strings.HasPrefix(trimmed, "{") {
			if err := json.Unmarshal(body, &req); err != nil {
				return req, err
			}
		} else {
			req.Query = trimmed // raw MSL text is fine too
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("empty query")
	}
	return req, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("serve.requests").Inc()
	req, err := parseQueryRequest(r)
	if err != nil {
		s.reg.Counter("serve.errors").Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	queryText := req.Query
	if req.Lorel {
		rule, err := medmaker.TranslateLorel(queryText)
		if err != nil {
			s.reg.Counter("serve.errors").Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		queryText = rule.String()
	}
	rule, err := medmaker.ParseQuery(queryText)
	if err != nil {
		s.reg.Counter("serve.errors").Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	release, queued, ok := s.gate.admit(r.Context())
	if queued {
		s.reg.Counter("serve.queued").Inc()
	}
	if !ok {
		s.reg.Counter("serve.shed").Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server busy", Busy: true})
		return
	}
	defer release()

	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}

	start := time.Now()
	var (
		res *medmaker.QueryResult
		qt  *medmaker.QueryTrace
	)
	if req.Trace && !queued {
		res, qt, err = s.med.QueryTraced(ctx, rule)
	} else {
		// Queued requests run degraded: bounded per-source work, partial
		// answers instead of stalls. (They skip tracing — the trace runs
		// under the mediator's default policy.)
		policy := s.med.Policy()
		if queued {
			policy = s.shed
			s.reg.Counter("serve.degraded").Inc()
		}
		res, err = s.med.QueryPolicy(ctx, rule, policy)
	}
	s.reg.Histogram("serve.latency").Observe(time.Since(start))
	if err != nil {
		s.reg.Counter("serve.errors").Inc()
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}

	resp := queryResponse{Objects: make([]json.RawMessage, 0, len(res.Objects)), Queued: queued}
	for _, o := range res.Objects {
		data, err := oem.ToJSON(o)
		if err != nil {
			s.reg.Counter("serve.errors").Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		resp.Objects = append(resp.Objects, data)
	}
	resp.Count = len(resp.Objects)
	resp.Incomplete = res.Incomplete
	for _, se := range res.SourceErrors {
		resp.SourceErrors = append(resp.SourceErrors, se.Error())
	}
	if qt != nil {
		summary := qt.Snapshot()
		resp.Trace = &summary
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics dumps the registry: the plan cache, answer caches, engine
// exchanges, serve.* admission counters, and (when the gob port is on)
// the remote server's traffic, all in one scrape.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, snap.String())
}
