package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"medmaker"
	"medmaker/internal/metrics"
)

func demoHandler(t *testing.T, reg *metrics.Registry, opts serveOptions) (http.Handler, *medmaker.Mediator) {
	t.Helper()
	med, closeSources, err := buildMediator(buildConfig{
		Name: "med", Persons: 200, Departments: 4,
		PlanCacheEntries: 256, AnswerCache: true, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeSources)
	opts.Registry = reg
	return newHandler(med, opts), med
}

func postQuery(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp queryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response body: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func TestServeQueryEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	h, med := demoHandler(t, reg, serveOptions{})

	// JSON body.
	rec, resp := postQuery(t, h, `{"query": "P :- P:<cs_person {<name N>}>@med.", "trace": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// The MS1 view selects dept CS: 200 persons / 4 departments.
	if resp.Count != 50 || len(resp.Objects) != 50 {
		t.Fatalf("count = %d, objects = %d, want 50", resp.Count, len(resp.Objects))
	}
	if resp.Trace == nil || len(resp.Trace.Phases) == 0 {
		t.Fatal("trace requested but absent")
	}

	// Raw MSL body and GET both work.
	rec, resp = postQuery(t, h, `P :- P:<cs_person {<relation 'employee'>}>@med.`)
	if rec.Code != http.StatusOK || resp.Count == 0 {
		t.Fatalf("raw-body query: status %d count %d", rec.Code, resp.Count)
	}
	getReq := httptest.NewRequest(http.MethodGet, "/query?q="+
		"P+:-+P:%3Ccs_person+%7B%3Crelation+'employee'%3E%7D%3E@med.", nil)
	getRec := httptest.NewRecorder()
	h.ServeHTTP(getRec, getReq)
	if getRec.Code != http.StatusOK {
		t.Fatalf("GET query: status %d: %s", getRec.Code, getRec.Body.String())
	}

	// Parse errors are 400, not 500.
	rec, _ = postQuery(t, h, `{"query": "this is not MSL"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", rec.Code)
	}

	// The plan cache saw the repeated template.
	if st := med.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("no plan cache hits after repeated queries: %+v", st)
	}

	// /metrics serves both formats; /healthz answers.
	mRec := httptest.NewRecorder()
	h.ServeHTTP(mRec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mRec.Code != http.StatusOK || !strings.Contains(mRec.Body.String(), "serve.requests") {
		t.Fatalf("/metrics: %d\n%s", mRec.Code, mRec.Body.String())
	}
	jRec := httptest.NewRecorder()
	h.ServeHTTP(jRec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var snap metrics.Snapshot
	if err := json.Unmarshal(jRec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics?format=json: %v", err)
	}
	if snap.Counter("serve.requests") == 0 {
		t.Fatal("serve.requests not counted")
	}
	hRec := httptest.NewRecorder()
	h.ServeHTTP(hRec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hRec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", hRec.Code)
	}
}

// With one slot and no queue, concurrent requests shed with a typed 503.
func TestServeShedsWhenSaturated(t *testing.T) {
	reg := metrics.NewRegistry()
	h, _ := demoHandler(t, reg, serveOptions{
		MaxInFlight: 1, MaxQueue: 0, QueueWait: 10 * time.Millisecond,
	})
	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	busies := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/query",
				strings.NewReader(`P :- P:<cs_person {<name N>}>@med.`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			if rec.Code == http.StatusServiceUnavailable {
				var e errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err == nil {
					busies[i] = e.Busy
				}
			}
		}(i)
	}
	wg.Wait()
	okN, shedN := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			okN++
		case http.StatusServiceUnavailable:
			shedN++
			if !busies[i] {
				t.Errorf("client %d shed without busy flag", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, code)
		}
	}
	if okN == 0 {
		t.Error("every request shed; at least the slot holder must answer")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("serve.shed"); got != int64(shedN) {
		t.Errorf("serve.shed = %d, observed %d refusals", got, shedN)
	}
	if got := snap.Counter("serve.requests"); got != clients {
		t.Errorf("serve.requests = %d, want %d", got, clients)
	}
}

// A queued-then-admitted request runs degraded and reports Queued. The
// slot is occupied directly through the gate so queueing is deterministic.
func TestServeQueuedRunsDegraded(t *testing.T) {
	reg := metrics.NewRegistry()
	med, closeSources, err := buildMediator(buildConfig{
		Name: "med", Persons: 200, Departments: 4,
		PlanCacheEntries: 256, AnswerCache: true, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeSources)
	srv := newServer(med, serveOptions{
		Registry: reg, MaxInFlight: 1, MaxQueue: 8, QueueWait: 10 * time.Second,
	})
	h := srv.handler()

	srv.gate.slots <- struct{}{} // occupy the only slot
	done := make(chan struct{})
	var rec *httptest.ResponseRecorder
	var resp queryResponse
	go func() {
		defer close(done)
		rec, resp = postQuery(t, h, `P :- P:<cs_person {<name N>}>@med.`)
	}()
	// Wait for the request to enter the queue, then free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.gate.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	<-srv.gate.slots
	<-done

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Queued {
		t.Error("queued request did not report Queued")
	}
	snap := reg.Snapshot()
	if q := snap.Counter("serve.queued"); q != 1 {
		t.Errorf("serve.queued = %d, want 1", q)
	}
	if d := snap.Counter("serve.degraded"); d != 1 {
		t.Errorf("serve.degraded = %d, want 1 (degraded policy not applied)", d)
	}
	if s := snap.Counter("serve.shed"); s != 0 {
		t.Errorf("serve.shed = %d with a deep queue and long wait", s)
	}
}

func TestGateQueueFull(t *testing.T) {
	g := newGate(serveOptions{MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})
	release, queued, ok := g.admit(t.Context())
	if !ok || queued {
		t.Fatalf("first admit: queued=%v ok=%v", queued, ok)
	}
	// Fill the single queue slot with a waiter.
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		_, queued, ok := g.admit(t.Context())
		if ok || !queued {
			t.Errorf("waiter: queued=%v ok=%v, want timed-out queue wait", queued, ok)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter enter the queue
	if _, _, ok := g.admit(t.Context()); ok {
		t.Fatal("third admit succeeded past a full queue")
	}
	<-waiterDone
	release()
	if release2, _, ok := g.admit(t.Context()); !ok {
		t.Fatal("admit after release failed")
	} else {
		release2()
	}
}

// TestSpecSourceTargets: -source takes the same targets as medmaker's —
// a JSON file with an object label, CSV tables, an event log seeded from
// an OEM file — and the mediator answers the paper's query over them.
func TestSpecSourceTargets(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"med.msl": `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).
decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.`,
		"people.json":  `[{"name": "Joe Chung", "dept": "CS", "relation": "employee"}]`,
		"whois.oem":    `<person, set, {<name, 'Joe Chung'>, <dept, 'CS'>, <relation, 'employee'>}>`,
		"employee.csv": "first_name,last_name,title\nJoe,Chung,professor\n",
		"student.csv":  "first_name,last_name,year\nNick,Naive,3\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	cs := "cs=" + path("employee.csv") + "+" + path("student.csv")
	for _, whois := range []string{"whois=" + path("people.json") + ":person", "whois=stream:" + path("whois.oem")} {
		med, _, err := buildMediator(buildConfig{Name: "med", SpecPath: path("med.msl"), Sources: []string{whois, cs}})
		if err != nil {
			t.Fatalf("%s: %v", whois, err)
		}
		objs, err := med.QueryString(`JC :- JC:<cs_person {<name 'Joe Chung'>}>@med.`)
		if err != nil {
			t.Fatalf("%s: %v", whois, err)
		}
		if out := medmaker.FormatOEM(objs...); len(objs) != 1 || !strings.Contains(out, "'professor'") {
			t.Errorf("%s: answer %s, want Joe Chung the professor", whois, out)
		}
	}
}
