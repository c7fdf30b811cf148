package streamsource

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

func event(i int) *oem.Object {
	return oem.NewSet("", "reading",
		oem.New("", "sensor", fmt.Sprintf("s%d", i%3)),
		oem.New("", "value", i),
	)
}

func TestAppendAndQuery(t *testing.T) {
	s := New("stream", Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append(event(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	q := msl.MustParseRule(`<out V> :- <reading {<sensor 's0'> <value V>}>@stream.`)
	got, err := s.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(got) != 2 { // values 0 and 3
		t.Fatalf("got %d answers, want 2", len(got))
	}
	if n, ok := s.CountLabel("reading"); !ok || n != 5 {
		t.Fatalf("CountLabel = %d,%v want 5,true", n, ok)
	}
}

func TestCountRetention(t *testing.T) {
	s := New("stream", Options{MaxEvents: 3})
	var mu sync.Mutex
	var inserted, deleted int
	s.OnChange(func(d wrapper.Delta) {
		mu.Lock()
		inserted += len(d.Inserted)
		deleted += len(d.Deleted)
		mu.Unlock()
	})
	for i := 0; i < 5; i++ {
		if err := s.Append(event(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Appended() != 5 {
		t.Fatalf("Appended = %d, want 5", s.Appended())
	}
	// Oldest two evicted: remaining values are 2,3,4.
	q := msl.MustParseRule(`<out V> :- <reading {<value V>}>@stream.`)
	got, err := s.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("window has %d events, want 3", len(got))
	}
	mu.Lock()
	defer mu.Unlock()
	if inserted != 5 || deleted != 2 {
		t.Fatalf("deltas: %d inserted, %d deleted; want 5, 2", inserted, deleted)
	}
}

func TestAgeRetention(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	s := New("stream", Options{MaxAge: time.Minute, Clock: clock})
	if err := s.Append(event(0), event(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	advance(30 * time.Second)
	if err := s.Append(event(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// 61s after the first batch: events 0 and 1 age out; query must not
	// see them even before an explicit Expire.
	advance(31 * time.Second)
	q := msl.MustParseRule(`<out V> :- <reading {<value V>}>@stream.`)
	got, err := s.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("stale events served: got %d answers, want 1", len(got))
	}
	if s.Len() != 1 {
		t.Fatalf("Len after lazy expiry = %d, want 1", s.Len())
	}
	advance(2 * time.Minute)
	if evicted := s.Expire(); len(evicted) != 1 {
		t.Fatalf("Expire evicted %d, want 1", len(evicted))
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestDeltaCarriesAppendAndEvictionTogether(t *testing.T) {
	s := New("stream", Options{MaxEvents: 1})
	var got []wrapper.Delta
	var mu sync.Mutex
	s.OnChange(func(d wrapper.Delta) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	if err := s.Append(event(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(event(1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("got %d deltas, want 2", len(got))
	}
	second := got[1]
	if len(second.Inserted) != 1 || len(second.Deleted) != 1 {
		t.Fatalf("second delta = %d inserted / %d deleted, want 1/1", len(second.Inserted), len(second.Deleted))
	}
	if second.Source != "stream" {
		t.Fatalf("delta source = %q", second.Source)
	}
}

func TestRejectsInvalidEvents(t *testing.T) {
	s := New("stream", Options{})
	if err := s.Append(&oem.Object{Label: ""}); err == nil {
		t.Fatal("empty-label event accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after rejected append", s.Len())
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s := New("stream", Options{MaxEvents: 16})
	q := msl.MustParseRule(`<out V> :- <reading {<value V>}>@stream.`)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Append(event(w*100 + i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Query(q); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() > 16 {
		t.Fatalf("window overflow: %d", s.Len())
	}
}

// TestExpiryAtEveryEntryPoint checks that each query entry point expires
// aged-out events before reading: the embedded collection's own entry
// points would serve them.
func TestExpiryAtEveryEntryPoint(t *testing.T) {
	q := msl.MustParseRule(`<out V> :- <reading {<value V>}>@stream.`)
	ctx := context.Background()
	for name, query := range map[string]func(*Source) ([]*oem.Object, error){
		"Query":        func(s *Source) ([]*oem.Object, error) { return s.Query(q) },
		"QueryContext": func(s *Source) ([]*oem.Object, error) { return s.QueryContext(ctx, q) },
		"QueryBatch": func(s *Source) ([]*oem.Object, error) {
			got, err := s.QueryBatch([]*msl.Rule{q})
			if err != nil {
				return nil, err
			}
			return got[0], nil
		},
		"QueryBatchContext": func(s *Source) ([]*oem.Object, error) {
			got, err := s.QueryBatchContext(ctx, []*msl.Rule{q})
			if err != nil {
				return nil, err
			}
			return got[0], nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			s := New("stream", Options{MaxAge: time.Minute, Clock: func() time.Time { return now }})
			if err := s.Append(event(0)); err != nil {
				t.Fatal(err)
			}
			now = now.Add(59 * time.Second)
			if err := s.Append(event(1)); err != nil {
				t.Fatal(err)
			}
			now = now.Add(2 * time.Second) // event 0 is now 61s old
			got, err := query(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("%s served %d events, want 1 (aged-out event left out)", name, len(got))
			}
			if s.Len() != 1 {
				t.Fatalf("Len after %s = %d, want 1", name, s.Len())
			}
		})
	}
}
