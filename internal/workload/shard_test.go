package workload

import (
	"fmt"
	"sort"
	"testing"

	"medmaker/internal/oem"
	"medmaker/internal/relational"
	"medmaker/internal/semistruct"
)

// exportKeys canonicalizes a source export as sorted structural
// fingerprints, ignoring oids.
func exportKeys(objs []*oem.Object) []string {
	keys := make([]string, len(objs))
	for i, o := range objs {
		c := o.Clone()
		c.Walk(func(obj *oem.Object, _ int) bool {
			obj.OID = oem.NilOID
			return true
		})
		keys[i] = oem.Format(c)
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d objects sharded vs %d flat", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: object %d differs\nsharded: %s\nflat:    %s", what, i, got[i], want[i])
		}
	}
}

// TestGenStaffShardedUnionEqualsFlat: the union of the shard extents is
// exactly the flat extent — same people, same irregular fields — and
// every object sits in the shard its partition key hashes to.
func TestGenStaffShardedUnionEqualsFlat(t *testing.T) {
	const shards = 4
	cfg := StaffConfig{
		Persons: 120, Departments: 4, EmployeeFraction: 0.6, Irregularity: 0.3,
		WhoisOnly: 10, CSOnly: 10, Seed: 11,
	}
	s, err := GenStaffSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DBs) != shards || len(s.Stores) != shards {
		t.Fatalf("got %d dbs, %d stores", len(s.DBs), len(s.Stores))
	}

	// whois: union of shard stores == flat store.
	var whoisUnion []*oem.Object
	for i, st := range s.Stores {
		exp := semistruct.NewWrapper(fmt.Sprintf("w%d", i), st).Export()
		for _, o := range exp {
			name, _ := o.Sub("name").AtomString()
			if want := ShardOf(name, shards); want != i {
				t.Fatalf("whois record %q in shard %d, hashes to %d", name, i, want)
			}
		}
		whoisUnion = append(whoisUnion, exp...)
	}
	flatWhois := semistruct.NewWrapper("whois", s.Store).Export()
	sameKeys(t, "whois", exportKeys(whoisUnion), exportKeys(flatWhois))

	// cs: union of shard databases == flat database.
	var csUnion []*oem.Object
	for i, db := range s.DBs {
		exp := relational.NewWrapper(fmt.Sprintf("cs%d", i), db).Export()
		for _, o := range exp {
			last, _ := o.Sub("last_name").AtomString()
			if want := ShardOf(last, shards); want != i {
				t.Fatalf("cs row %q in shard %d, hashes to %d", last, i, want)
			}
		}
		csUnion = append(csUnion, exp...)
	}
	flatCS := relational.NewWrapper("cs", s.DB).Export()
	sameKeys(t, "cs", exportKeys(csUnion), exportKeys(flatCS))
}

// TestGenStaffShardedMatchesGenStaff: sharding must not perturb the flat
// population — GenStaff and GenStaffSharded(cfg).Staff are identical.
func TestGenStaffShardedMatchesGenStaff(t *testing.T) {
	cfg := StaffConfig{Persons: 60, Departments: 3, EmployeeFraction: 0.5, Irregularity: 0.4, Seed: 5}
	flat, err := GenStaff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := GenStaffSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "whois",
		exportKeys(semistruct.NewWrapper("w", sharded.Store).Export()),
		exportKeys(semistruct.NewWrapper("w", flat.Store).Export()))
	sameKeys(t, "cs",
		exportKeys(relational.NewWrapper("c", sharded.DB).Export()),
		exportKeys(relational.NewWrapper("c", flat.DB).Export()))
	if len(flat.Names) != len(sharded.Names) {
		t.Fatalf("names: %d flat vs %d sharded", len(flat.Names), len(sharded.Names))
	}
}

func TestGenStaffShardedRejectsZeroShards(t *testing.T) {
	if _, err := GenStaffSharded(StaffConfig{Persons: 1}, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestShardOfBalancesWorkloadNames: the generator's partition keys — full
// names "Fdddd Ldddd" for whois, last names "Ldddd" for cs — spread within
// ±10% of an even share over every shard at 2, 4 and 8 shards. Keys of one
// character layout differ only in their digits, which an unmixed FNV-1a
// modulo a power of two cannot tell apart.
func TestShardOfBalancesWorkloadNames(t *testing.T) {
	const names = 20000
	for _, n := range []int{2, 4, 8} {
		for _, key := range []struct {
			what string
			of   func(i int) string
		}{
			{"full name", func(i int) string { return fmt.Sprintf("F%04d L%04d", i, i) }},
			{"last name", func(i int) string { return fmt.Sprintf("L%04d", i) }},
		} {
			counts := make([]int, n)
			for i := 0; i < names; i++ {
				counts[ShardOf(key.of(i), n)]++
			}
			even := float64(names) / float64(n)
			for s, c := range counts {
				if float64(c) < 0.9*even || float64(c) > 1.1*even {
					t.Fatalf("%d shards, %s keys: shard %d holds %d (counts %v), want %.0f±10%%", n, key.what, s, c, counts, even)
				}
			}
		}
	}
}
