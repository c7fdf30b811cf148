package remote

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

func startServer(t *testing.T, src wrapper.Source) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(src)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func whoisSource(t *testing.T) wrapper.Source {
	t.Helper()
	src, err := oemstore.FromText("whois", `
	    <person, set, {<name, 'Joe Chung'>, <dept, 'CS'>, <relation, 'employee'>, <e_mail, 'chung@cs'>}>
	    <person, set, {<name, 'Nick Naive'>, <dept, 'CS'>, <relation, 'student'>, <year, 3>}>`)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestHandshakeAndQuery(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Name() != "whois" {
		t.Fatalf("name = %q", client.Name())
	}
	if !client.Capabilities().Wildcards {
		t.Fatal("capabilities not transferred")
	}
	q := msl.MustParseRule(`<out N> :- <person {<name N> <dept 'CS'>}>@whois.`)
	got, err := client.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("remote query returned %d objects", len(got))
	}
}

func TestUnsupportedErrorCrossesWire(t *testing.T) {
	limited := &wrapper.Limited{Inner: whoisSource(t), Caps: wrapper.Capabilities{MultiPattern: true}}
	addr, _ := startServer(t, limited)
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Capabilities().ValueConditions {
		t.Fatal("limited capabilities not transferred")
	}
	q := msl.MustParseRule(`<out N> :- <person {<name N> <dept 'CS'>}>@whois.`)
	_, err = client.Query(q)
	var ue *wrapper.UnsupportedError
	if !errors.As(err, &ue) || ue.Feature != "value conditions" {
		t.Fatalf("expected typed UnsupportedError, got %v", err)
	}
}

func TestQueryParseErrorReported(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Force a malformed query across the wire.
	resp, err := client.roundTrip(context.Background(), Request{Kind: reqQuery, Query: "<<<"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("malformed query not rejected")
	}
	if resp.Unsupported != "" {
		t.Fatal("parse error misclassified as capability error")
	}
}

func TestUnknownRequestKind(t *testing.T) {
	srv := NewServer(whoisSource(t))
	resp := srv.dispatch(Request{Kind: "bogus"})
	if !strings.Contains(resp.Err, "unknown request") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for j := 0; j < 20; j++ {
				got, err := client.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != 2 {
					errs <- errors.New("wrong result size")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRedialAfterServerRestart(t *testing.T) {
	src := whoisSource(t)
	srv := NewServer(src)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Kill the server (dropping the live connection) and restart on the
	// same address.
	srv.Close()
	srv2 := NewServer(src)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	got, err := client.Query(q)
	if err != nil {
		t.Fatalf("redial failed: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("post-redial query returned %d objects", len(got))
	}
}

func TestCountLabelOverWire(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n, ok := client.CountLabel("person"); !ok || n != 2 {
		t.Fatalf("CountLabel(person) = %d, %v", n, ok)
	}
	if n, ok := client.CountLabel("ghost"); !ok || n != 0 {
		t.Fatalf("CountLabel(ghost) = %d, %v", n, ok)
	}
}

// uncountable wraps a source hiding any Counter implementation.
type uncountable struct{ wrapper.Source }

func TestCountLabelUnsupported(t *testing.T) {
	addr, _ := startServer(t, &uncountable{whoisSource(t)})
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, ok := client.CountLabel("person"); ok {
		t.Fatal("counting should be unsupported")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

func TestQueryBatchOverWire(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	qs := []*msl.Rule{
		msl.MustParseRule(`<out N> :- <person {<name N> <relation 'employee'>}>@whois.`),
		msl.MustParseRule(`<out N> :- <person {<name N> <relation 'student'>}>@whois.`),
		msl.MustParseRule(`<out N> :- <person {<name N> <relation 'nobody'>}>@whois.`),
	}
	results, err := client.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch returned %d result sets, want 3", len(results))
	}
	// Result sets come back in request order, empty sets included.
	for i, want := range []string{"Joe Chung", "Nick Naive", ""} {
		if want == "" {
			if len(results[i]) != 0 {
				t.Fatalf("result set %d has %d objects, want 0", i, len(results[i]))
			}
			continue
		}
		if len(results[i]) != 1 {
			t.Fatalf("result set %d has %d objects, want 1", i, len(results[i]))
		}
		if v, _ := results[i][0].AtomString(); v != want {
			t.Fatalf("result set %d = %q, want %q", i, v, want)
		}
	}
}

func TestQueryBatchParseErrorOverWire(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A server-side failure on any query in the batch fails the exchange.
	resp, err := client.roundTrip(context.Background(), Request{Kind: reqBatch, Queries: []string{"not msl"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("malformed batched query accepted")
	}
}
