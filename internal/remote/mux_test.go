package remote

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/oemstore"
	"medmaker/internal/wrapper"
)

// slowSource delays queries whose pattern binds name to a value starting
// with "Slow", so one in-flight request can straddle many fast ones.
type slowSource struct {
	inner wrapper.Source
	delay time.Duration
}

func (s *slowSource) Name() string                       { return s.inner.Name() }
func (s *slowSource) Capabilities() wrapper.Capabilities { return s.inner.Capabilities() }
func (s *slowSource) Query(q *msl.Rule) ([]*oem.Object, error) {
	return s.QueryContext(context.Background(), q)
}

func (s *slowSource) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if pc, ok := q.Tail[0].(*msl.PatternConjunct); ok {
		if key, bound := wrapper.ShardKey(pc.Pattern, "name"); bound && strings.HasPrefix(key, "Slow") {
			select {
			case <-time.After(s.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return wrapper.QueryContext(ctx, s.inner, q)
}

func slowWhois(t *testing.T, delay time.Duration) wrapper.Source {
	t.Helper()
	src, err := oemstore.FromText("whois", `
	    <person, set, {<name, 'Joe Chung'>, <dept, 'CS'>}>
	    <person, set, {<name, 'Slow Poke'>, <dept, 'CS'>}>`)
	if err != nil {
		t.Fatal(err)
	}
	return &slowSource{inner: src, delay: delay}
}

func TestFramedNegotiation(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Proto() != ProtoFramed {
		t.Fatalf("negotiated proto %d, want framed (%d)", client.Proto(), ProtoFramed)
	}
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	got, err := client.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("framed query returned %d objects", len(got))
	}
}

// TestVersionMismatchFailsAtHello: a peer of another protocol version is
// refused at the hello, in both directions, instead of failing mid-stream.
func TestVersionMismatchFailsAtHello(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := gob.NewEncoder(conn).Encode(Request{Kind: reqHello, Proto: ProtoFramed - 1}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Proto == ProtoFramed || !strings.Contains(resp.Err, "protocol") {
		t.Fatalf("old-version hello answered %+v, want a protocol refusal", resp)
	}

	// A server that answers the hello with another version.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var req Request
		if gob.NewDecoder(c).Decode(&req) == nil {
			gob.NewEncoder(c).Encode(Response{Name: "old", Proto: ProtoFramed - 1})
		}
	}()
	_, err = Dial(ln.Addr().String(), 2*time.Second)
	<-served
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("dial to an old-version server: err = %v, want a protocol error", err)
	}
}

// TestFramesInterleave is the multiplexing evidence: one slow and many
// fast requests share one connection, and the frame log shows a response
// arriving after the response to a later-sent request.
func TestFramesInterleave(t *testing.T) {
	addr, _ := startServer(t, slowWhois(t, 150*time.Millisecond))
	client, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	log := client.EnableFrameLog(0)

	slow := msl.MustParseRule(`X :- X:<person {<name 'Slow Poke'>}>@whois.`)
	fast := msl.MustParseRule(`X :- X:<person {<name 'Joe Chung'>}>@whois.`)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := client.Query(slow); err != nil {
			errs <- fmt.Errorf("slow: %w", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the slow frame ship first
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Query(fast); err != nil {
				errs <- fmt.Errorf("fast: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !log.Interleaved() {
		t.Fatalf("no out-of-order responses observed; frames:\n%+v", log.Events())
	}
}

func TestMuxConcurrentRequests(t *testing.T) {
	addr, _ := startServer(t, whoisSource(t))
	client, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@whois.`)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
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
	if client.Proto() != ProtoFramed {
		t.Fatal("concurrent load downgraded the connection")
	}
}

// TestMuxDeadlineAbandonsFrame: a caller's deadline expiring abandons its
// frame without killing the shared connection — the next request on the
// same client succeeds with no redial.
func TestMuxDeadlineAbandonsFrame(t *testing.T) {
	addr, _ := startServer(t, slowWhois(t, 400*time.Millisecond))
	client, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	slow := msl.MustParseRule(`X :- X:<person {<name 'Slow Poke'>}>@whois.`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.QueryContext(ctx, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	fast := msl.MustParseRule(`X :- X:<person {<name 'Joe Chung'>}>@whois.`)
	got, err := client.Query(fast)
	if err != nil {
		t.Fatalf("connection unusable after an abandoned frame: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("post-abandon query returned %d objects", len(got))
	}
	if client.Proto() != ProtoFramed {
		t.Fatal("abandoned frame downgraded the connection")
	}
}

// TestMuxCancelAbandonsFrame mirrors the deadline test for explicit
// cancellation.
func TestMuxCancelAbandonsFrame(t *testing.T) {
	addr, _ := startServer(t, slowWhois(t, 400*time.Millisecond))
	client, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	slow := msl.MustParseRule(`X :- X:<person {<name 'Slow Poke'>}>@whois.`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := client.QueryContext(ctx, slow); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	fast := msl.MustParseRule(`X :- X:<person {<name 'Joe Chung'>}>@whois.`)
	if _, err := client.Query(fast); err != nil {
		t.Fatalf("connection unusable after a canceled frame: %v", err)
	}
}

// TestMuxRedialAfterServerRestart: the shared framed connection dies with
// the server; the client transparently renegotiates on the next request.
func TestMuxRedialAfterServerRestart(t *testing.T) {
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
	if client.Proto() != ProtoFramed {
		t.Fatal("initial dial not framed")
	}
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
	if client.Proto() != ProtoFramed {
		t.Fatal("redial lost the framed protocol")
	}
}
