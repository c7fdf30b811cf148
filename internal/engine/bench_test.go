package engine

import (
	"context"
	"fmt"
	"testing"

	"medmaker/internal/match"
)

// benchTable builds an n-row table binding K to i%keys and V to i — a
// join/dedup input with controllable key cardinality.
func benchTable(n, keys int) *Table {
	t := newProjTable([]string{"K", "V"})
	for i := 0; i < n; i++ {
		e := match.Env{
			"K": match.BindString(fmt.Sprintf("k%03d", i%keys)),
			"V": match.BindString(fmt.Sprintf("v%06d", i)),
		}
		t.AppendEnv(e)
	}
	return t
}

func benchExecutors() []struct {
	name string
	ex   *Executor
} {
	return []struct {
		name string
		ex   *Executor
	}{
		{"par=1", &Executor{Parallelism: 1}},
		{"par=8", &Executor{Parallelism: 8}},
	}
}

// BenchmarkHashJoin measures the partitioned hash join over columnar
// tables: build-side hashing, partitioning, and probe.
func BenchmarkHashJoin(b *testing.B) {
	left := benchTable(4096, 512)
	right := benchTable(4096, 512)
	n := &JoinNode{Shared: []string{"K"}, Needed: []string{"K", "V"}}
	for _, be := range benchExecutors() {
		b.Run(be.name, func(b *testing.B) {
			rs := newRunState(be.ex, context.Background(), n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := n.run(rs, &rs.rec.ops[0], []*Table{left, right})
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

// BenchmarkDedup measures duplicate elimination: morsel-parallel row
// hashing plus the sequential first-occurrence scan.
func BenchmarkDedup(b *testing.B) {
	in := benchTable(8192, 1024)
	n := &DedupNode{Vars: []string{"K"}}
	for _, be := range benchExecutors() {
		b.Run(be.name, func(b *testing.B) {
			rs := newRunState(be.ex, context.Background(), n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := n.run(rs, &rs.rec.ops[0], []*Table{in})
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != 1024 {
					b.Fatalf("dedup kept %d rows", out.Len())
				}
			}
		})
	}
}
