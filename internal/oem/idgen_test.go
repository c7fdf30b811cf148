package oem

import (
	"slices"
	"sync"
	"testing"
)

func TestIDGenUnique(t *testing.T) {
	g := NewIDGen("m")
	seen := make(map[OID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]OID, 200)
			for i := range local {
				local[i] = g.Next()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, oid := range local {
				if seen[oid] {
					t.Errorf("duplicate oid %s", oid)
				}
				seen[oid] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != 1600 {
		t.Fatalf("generated %d unique oids, want 1600", len(seen))
	}
	if seen[""] {
		t.Fatal("generated a nil oid")
	}
}

func TestAssignOIDs(t *testing.T) {
	o := NewSet("", "a", New("", "b", 1), NewSet("&keep", "c", New("", "d", 2)))
	AssignOIDs(o, NewIDGen("x"))
	o.Walk(func(obj *Object, _ int) bool {
		if obj.OID == NilOID {
			t.Errorf("object %s still has no oid", obj.Label)
		}
		return true
	})
	if o.Sub("c").OID != "&keep" {
		t.Fatal("AssignOIDs overwrote an existing oid")
	}
}

// TestDedupStructural checks the structural duplicate elimination the
// handcoded baseline uses: first occurrences survive in order, later
// structural duplicates are dropped and reported.
func TestDedupStructural(t *testing.T) {
	mk := func() *Object {
		return NewSet("", "person", New("", "name", "Joe"), New("", "dept", "CS"))
	}
	first, other := mk(), NewSet("", "person", New("", "name", "Sue"))
	objs := []*Object{first, mk(), other, mk()}
	orig := slices.Clone(objs)
	var dropped []*Object
	got := DedupStructural(objs, func(o *Object) { dropped = append(dropped, o) })
	if !slices.Equal(got, []*Object{first, other}) {
		t.Fatalf("kept %d objects, want the first Joe and Sue", len(got))
	}
	if len(dropped) != 2 || dropped[0] != objs[1] || dropped[1] != objs[3] {
		t.Fatalf("dropped %v, want objs[1] and objs[3]", dropped)
	}
	if !slices.Equal(objs, orig) {
		t.Fatal("DedupStructural modified its input")
	}
}
