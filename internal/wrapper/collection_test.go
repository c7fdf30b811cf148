package wrapper

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

func person(name string, year int) *oem.Object {
	return oem.NewSet("", "person", oem.New("", "name", name), oem.New("", "year", year))
}

func TestCollectionAddAssignsAndRejectsOIDs(t *testing.T) {
	c := NewCollection("w", FullCapabilities())
	p := oem.NewSet("&p1", "person", oem.New("&n1", "name", "Joe"), oem.New("", "year", 3))
	if err := c.Add(p); err != nil {
		t.Fatal(err)
	}
	if p.Sub("year").OID != "&w1" {
		t.Fatalf("auto oid %s, want &w1", p.Sub("year").OID)
	}
	anon := person("Sue", 1)
	if err := c.Add(anon); err != nil {
		t.Fatal(err)
	}
	if anon.OID == oem.NilOID || anon.Sub("name").OID == oem.NilOID {
		t.Fatal("collection did not assign oids")
	}
	// A collision at any depth, with the collection or within one Add,
	// rejects the whole Add.
	for _, objs := range [][]*oem.Object{
		{oem.NewSet("", "person", oem.New("&n1", "name", "Ann"))},
		{person("Ann", 1), oem.NewSet("&x", "a"), oem.NewSet("&x", "b")},
	} {
		if err := c.Add(objs...); err == nil {
			t.Fatalf("colliding oids accepted: %v", objs)
		}
	}
	if err := c.Add(&oem.Object{OID: "&bad"}); err == nil {
		t.Fatal("empty label accepted")
	}
	if got := c.Export(); len(got) != 2 || got[0] != p || got[1] != anon {
		t.Fatalf("Export after rejected adds = %v", got)
	}
	if n, _ := c.CountLabel("person"); n != 2 {
		t.Fatalf("CountLabel = %d, want 2", n)
	}
	// The oids of a removed object may be reused.
	if removed := c.Remove("&p1", "&nope"); len(removed) != 1 || removed[0] != p {
		t.Fatalf("Remove = %v", removed)
	}
	if err := c.Add(oem.NewSet("", "person", oem.New("&n1", "name", "Ann"))); err != nil {
		t.Fatalf("re-adding a removed oid: %v", err)
	}
}

// TestCollectionSnapshots checks that a snapshot taken before a mutation
// is unaffected by it: Add appends past its end and Remove rebuilds.
func TestCollectionSnapshots(t *testing.T) {
	c := NewCollection("w", FullCapabilities())
	for i := 0; i < 4; i++ {
		if err := c.Add(person(fmt.Sprint(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Export()
	kept := slices.Clone(before)
	c.Remove(before[1].OID, before[2].OID)
	if err := c.Add(person("new", 9)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, kept) {
		t.Fatal("a published snapshot changed under Remove/Add")
	}
	if got := c.Export(); len(got) != 3 || got[0] != kept[0] || got[1] != kept[3] {
		t.Fatalf("Export after Remove/Add = %v", got)
	}
	// Appending to an exported slice never writes into the collection.
	grown := append(c.Export(), person("mine", 0))
	if c.Len() != 3 || len(grown) != 4 {
		t.Fatal("appending to an export reached the collection")
	}
	if n, _ := c.CountLabel("person"); n != 3 {
		t.Fatalf("CountLabel = %d, want 3", n)
	}
}

// TestCollectionDeltaAfterUnlock mutates the collection from another
// goroutine inside a change-feed callback: that only completes if the
// delta is emitted after the writer lock is released.
func TestCollectionDeltaAfterUnlock(t *testing.T) {
	c := NewCollection("w", FullCapabilities())
	var deltas []Delta
	c.OnChange(func(d Delta) {
		deltas = append(deltas, d)
		if len(deltas) > 1 {
			return
		}
		if c.Len() != 1 {
			t.Errorf("callback sees Len %d, want 1", c.Len())
		}
		done := make(chan error, 1)
		go func() { done <- c.Add(person("second", 2)) }()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Error("mutation from a callback blocked: delta emitted under the lock")
		}
	})
	if err := c.Add(person("first", 1)); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 || len(deltas[0].Inserted) != 1 || deltas[0].Source != "w" {
		t.Fatalf("deltas = %+v", deltas)
	}
	c.Remove(deltas[0].Inserted[0].OID)
	if len(deltas) != 3 || len(deltas[2].Deleted) != 1 {
		t.Fatalf("delete delta = %+v", deltas[len(deltas)-1])
	}
}

func TestCollectionConcurrentReaders(t *testing.T) {
	c := NewCollection("w", FullCapabilities())
	q := msl.MustParseRule(`<out N> :- <person {<name N> <year 1>}>@w.`)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			o := person(fmt.Sprint(i), i%3)
			if err := c.Add(o); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				c.Remove(o.OID)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tops := c.Export()
				for j, o := range tops {
					if o == nil {
						t.Errorf("nil object at %d of %d", j, len(tops))
						return
					}
				}
				if _, err := c.QueryBatch([]*msl.Rule{q, q}); err != nil {
					t.Error(err)
					return
				}
				c.CountLabel("person")
			}
		}()
	}
	wg.Wait()
	if c.Len() != 150 {
		t.Fatalf("Len = %d, want 150", c.Len())
	}
}

func TestCollectionChecksCapabilities(t *testing.T) {
	c := NewCollection("w", Capabilities{ValueConditions: true})
	q := msl.MustParseRule(`<out N> :- <person {<name N>}>@w AND <person {<name N> <year 1>}>@w.`)
	var ue *UnsupportedError
	if _, err := c.Query(q); !errors.As(err, &ue) || ue.Feature != "multi-pattern queries" {
		t.Fatalf("multi-pattern query on a single-pattern collection: %v", err)
	}
}

// TestCollectionSupplierProperty drives a collection through random
// interleaved Adds and Removes and checks, for random queries, that the
// candidate supplier never under-supplies — every top-level object a
// full scan matches for a conjunct is among its candidates — and that
// answers with pushdown on equal answers with it ablated and the
// full-scan reference.
func TestCollectionSupplierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"person", "dept", "item"}
	consts := []string{`'a'`, `'b'`, `1`, `2`, `2.0`}
	atoms := []any{"a", "b", 1, 2, 2.0}
	members := []string{"name", "year", "tag"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var leaf func(depth int) *oem.Object
	leaf = func(depth int) *oem.Object {
		o := oem.NewSet("", labels[rng.Intn(len(labels))])
		for n := rng.Intn(4); n > 0; n-- {
			var sub *oem.Object
			if depth < 2 && rng.Intn(4) == 0 {
				sub = leaf(depth + 1) // nested: only wildcards reach it
			} else {
				sub = oem.New("", members[rng.Intn(len(members))], atoms[rng.Intn(len(atoms))])
			}
			o.Value = append(o.Value.(oem.Set), sub)
		}
		return o
	}
	query := func() string {
		l, m, k := pick(labels), pick(members), pick(consts)
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf(`X :- X:<%s {<%s %s>}>@c.`, l, m, k)
		case 1:
			return fmt.Sprintf(`X :- X:<%%%s {<%s %s>}>@c.`, l, m, k)
		case 2:
			return fmt.Sprintf(`X :- X:<%s {<%s %s> | R:{<%s %s>}}>@c.`, l, m, k, pick(members), pick(consts))
		case 3:
			return fmt.Sprintf(`<out L> :- <L {<%s %s>}>@c.`, m, k)
		case 4:
			return fmt.Sprintf(`<out N> :- <%s {<name N>}>@c AND NOT <%s {<name N> <%s %s>}>@c.`, l, pick(labels), m, k)
		default:
			return fmt.Sprintf(`<out {<n N> <v V>}> :- <%s {<name N> <%s %s>}>@c AND <%s {<name N> <year V>}>@c.`, l, m, k, pick(labels))
		}
	}

	c := NewCollection("c", FullCapabilities())
	ref := oem.NewIDGen("ref")
	for step := 0; step < 300; step++ {
		if tops := c.Export(); rng.Intn(4) == 0 && len(tops) > 0 {
			c.Remove(tops[rng.Intn(len(tops))].OID)
		} else {
			batch := make([]*oem.Object, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = leaf(0)
			}
			if err := c.Add(batch...); err != nil {
				t.Fatal(err)
			}
		}
		q := msl.MustParseRule(query())
		x := c.ext.Load()
		for _, conj := range q.Tail {
			pc := conj.(*msl.PatternConjunct)
			cands, err := c.candidates(x, pc)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, o := range x.tops {
				got, err := match.Tops(pc.Pattern, pc.ObjVar, []*oem.Object{o}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) > 0 && !slices.Contains(cands, o) {
					t.Fatalf("step %d: %s under-supplies for %s: missing\n%s", step, pc, q, oem.Format(o))
				}
			}
		}
		want, err := Eval(q, x.tops, ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, push := range []bool{true, false} {
			c.SetPushdown(push)
			got, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("step %d, pushdown %v: %s answers %d objects, full scan %d", step, push, q, len(got), len(want))
			}
		}
		c.SetPushdown(true)
	}
}

// sameAnswers compares answers as multisets of structures, ignoring oids.
func sameAnswers(a, b []*oem.Object) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, o := range a {
		for j, p := range b {
			if !used[j] && o.StructuralEqual(p) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}
