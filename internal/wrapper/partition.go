package wrapper

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// ShardIndex maps a partition-key value to a member index in [0, n):
// FNV-1a 64 of the key, mixed by the murmur3 finalizer before the
// modulo. The mix matters: the low bits of FNV-1a depend only on the low
// bits of each byte, so keys sharing a character layout (workload names
// "Fdddd Ldddd") would otherwise fill half the shards of any power-of-two
// count and leave the rest empty. The hash is stable, so data loaders and
// query routing agree across processes and runs.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// ShardKey extracts the constant the pattern binds the partition key to:
// a non-wildcard element <keyLabel 'v'> of the pattern's top-level set.
// ok=false means the pattern does not pin the key and the query must
// scatter.
func ShardKey(p *msl.ObjectPattern, keyLabel string) (string, bool) {
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return "", false
	}
	for _, e := range sp.Elems {
		ep, isPat := e.(*msl.ObjectPattern)
		if !isPat || ep.Wildcard || ep.LabelName() != keyLabel {
			continue
		}
		if c, isConst := ep.Value.(*msl.Const); isConst {
			if s, isStr := c.Value.(oem.String); isStr {
				return string(s), true
			}
		}
	}
	return "", false
}

// Partitioned presents N member sources holding a hash-partitioned
// extent as one logical source: every top-level object lives in exactly
// one member, chosen by ShardIndex over the value of its key-label
// subobject. Queries that bind the key to a constant route to the one
// member that can hold matches; all other queries scatter to every
// member concurrently and gather the union.
//
// Capabilities are the intersection of the members' capabilities with
// MultiPattern forced off: a multi-pattern query is a source-local join,
// and evaluating it per shard would miss pairs that straddle shards —
// single-pattern queries are union-safe because each candidate object is
// wholly inside one member. The mediator's optimizer reacts as it does
// to any capability-poor source, decomposing joins above the partition.
//
// A member failure does not fail the call: the survivors' union comes
// back with a *PartialError naming each failed member, so the partition
// degrades the same way registered in a mediator, behind an answer cache
// or served over the wire.
type Partitioned struct {
	composite
	keyLabel string
}

var (
	_ ContextSource        = (*Partitioned)(nil)
	_ ContextBatchQuerier  = (*Partitioned)(nil)
	_ Counter              = (*Partitioned)(nil)
	_ InvalidationNotifier = (*Partitioned)(nil)
	_ Notifier             = (*Partitioned)(nil)
)

// NewPartitioned builds the logical source name over members, partitioned
// by the value of the keyLabel subobject. Member order is shard order and
// must match the order the data was partitioned in.
func NewPartitioned(name, keyLabel string, members ...Source) (*Partitioned, error) {
	c, err := newComposite("partitioned", name, members)
	if err != nil {
		return nil, err
	}
	if keyLabel == "" {
		return nil, fmt.Errorf("wrapper: partitioned source %q needs a partition key label", name)
	}
	c.caps.MultiPattern = false
	return &Partitioned{composite: c, keyLabel: keyLabel}, nil
}

// ShardFor reports the single member that can answer q — a query whose
// single positive pattern conjunct pins the partition key to a constant —
// and ok=false when q must scatter to every member.
func (p *Partitioned) ShardFor(q *msl.Rule) (int, bool) {
	var pat *msl.ObjectPattern
	for _, conj := range q.Tail {
		pc, ok := conj.(*msl.PatternConjunct)
		if !ok || pc.Negated {
			return 0, false
		}
		if pat != nil {
			return 0, false // multi-pattern: should not arrive, never route
		}
		pat = pc.Pattern
	}
	if pat == nil {
		return 0, false
	}
	key, ok := ShardKey(pat, p.keyLabel)
	if !ok {
		return 0, false
	}
	return ShardIndex(key, len(p.members)), true
}

// Query implements Source.
func (p *Partitioned) Query(q *msl.Rule) ([]*oem.Object, error) {
	return p.QueryContext(context.Background(), q)
}

// QueryContext implements ContextSource: route to the key's shard, or
// scatter to every member concurrently and gather the union in member
// order. Gathered answers are structurally deduplicated, matching what a
// single source holding the whole extent would return (its binding-level
// duplicate elimination spans shards there).
func (p *Partitioned) QueryContext(ctx context.Context, q *msl.Rule) ([]*oem.Object, error) {
	if err := CheckCapabilities(q, p.caps, p.name); err != nil {
		return nil, err
	}
	res, err := p.answer(ctx, []*msl.Rule{q}, false)
	return res[0], err
}

// QueryBatchContext implements ContextBatchQuerier: the routable queries
// of one member travel as one sub-batch, so a batch of k point queries
// still costs at most one exchange per member. The result slice is
// parallel to qs.
func (p *Partitioned) QueryBatchContext(ctx context.Context, qs []*msl.Rule) ([][]*oem.Object, error) {
	for i, q := range qs {
		if err := CheckCapabilities(q, p.caps, p.name); err != nil {
			return nil, &QueryError{Source: p.name, Index: i, Err: err}
		}
	}
	return p.answer(ctx, qs, true)
}

// answer routes each query to its key's shard or scatters it to every
// member. A member's share — its routed queries, then its part of each
// scatter — runs concurrently with the others' under the caller's run
// policy (see enterMembers), and ends at its first failed call. When
// batch is set and the member batches, its routed queries travel as one
// sub-batch; otherwise each query is its own call, with its own
// per-member timeout.
func (p *Partitioned) answer(ctx context.Context, qs []*msl.Rule, batch bool) ([][]*oem.Object, error) {
	routed := make([][]int, len(p.members))
	var scatter []int
	for i, q := range qs {
		if shard, ok := p.ShardFor(q); ok {
			routed[shard] = append(routed[shard], i)
		} else {
			scatter = append(scatter, i)
		}
	}
	reg := metrics.Default()
	reg.Counter("shard.routed").Add(int64(len(qs) - len(scatter)))
	reg.Counter("shard.scatter").Add(int64(len(scatter)))

	out := make([][]*oem.Object, len(qs))
	// perShard[j][shard] is the shard's part of the j'th scatter.
	perShard := make([][][]*oem.Object, len(scatter))
	for j := range perShard {
		perShard[j] = make([][]*oem.Object, len(p.members))
	}
	scope, release := enterMembers(ctx)
	defer release()
	call := func(fn func(context.Context) error) error {
		err := scope.call(fn)
		if err == nil {
			reg.Counter("shard.exchanges").Inc()
		}
		return err
	}
	share := func(shard int) error {
		m, idx := p.members[shard], routed[shard]
		if batch && len(idx) > 0 && Batches(m) {
			sub := make([]*msl.Rule, len(idx))
			for j, i := range idx {
				sub[j] = qs[i]
			}
			if err := call(func(ctx context.Context) error {
				res, err := QueryBatchContext(ctx, m, sub)
				if err == nil && len(res) != len(idx) {
					err = fmt.Errorf("answered %d of %d queries", len(res), len(idx))
				}
				for j := 0; err == nil && j < len(idx); j++ {
					out[idx[j]] = res[j]
				}
				return err
			}); err != nil {
				return err
			}
			idx = nil
		}
		one := func(dst *[]*oem.Object, q *msl.Rule) error {
			return call(func(ctx context.Context) (err error) {
				*dst, err = QueryContext(ctx, m, q)
				return err
			})
		}
		for _, i := range idx {
			if err := one(&out[i], qs[i]); err != nil {
				return err
			}
		}
		for j, i := range scatter {
			if err := one(&perShard[j][shard], qs[i]); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, len(p.members))
	var busy []int
	for shard, idx := range routed {
		switch {
		case len(idx) == 0 && len(scatter) == 0:
		case scope.skip(p.members[shard]):
			errs[shard] = errMemberDown
		default:
			busy = append(busy, shard)
		}
	}
	// The first share runs on the caller's goroutine: a routed query
	// spawns none.
	var wg sync.WaitGroup
	for k := 1; k < len(busy); k++ {
		wg.Add(1)
		go func(shard int) { defer wg.Done(); errs[shard] = share(shard) }(busy[k])
	}
	if len(busy) > 0 {
		errs[busy[0]] = share(busy[0])
	}
	wg.Wait()
	for j, i := range scatter {
		out[i] = GatherUnion(perShard[j])
	}
	var failed []*ShardError
	for shard, err := range errs {
		if err == nil {
			continue
		}
		if err != errMemberDown {
			reg.Counter("shard.failures").Inc()
		}
		failed = append(failed, p.memberError(shard, err))
	}
	if failed != nil {
		return out, &PartialError{Failed: failed}
	}
	return out, nil
}

// CountLabel implements Counter: the union cardinality is the sum over
// members; if any member cannot count, neither can the composite.
func (p *Partitioned) CountLabel(label string) (int, bool) {
	total := 0
	for _, m := range p.members {
		c, ok := m.(Counter)
		if !ok {
			return 0, false
		}
		n, ok := c.CountLabel(label)
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// OnChange implements Notifier by forwarding the registration to every
// member with a change feed; member deltas are re-labelled with the
// composite's name, since consumers know the partition only as one
// logical source. Members without a feed stay silent — pair Partitioned
// with OnInvalidate subscriptions when members only invalidate.
func (p *Partitioned) OnChange(fn func(Delta)) {
	for _, m := range p.members {
		if n, ok := m.(Notifier); ok {
			n.OnChange(func(d Delta) {
				d.Source = p.name
				fn(d)
			})
		}
	}
}

// GatherUnion concatenates per-shard answers in shard order, dropping
// structural duplicates — the cross-shard half of the duplicate
// elimination a single source's evaluation would have applied to its
// bindings. Within one shard the member already deduplicated.
func GatherUnion(perShard [][]*oem.Object) []*oem.Object {
	total := 0
	for _, objs := range perShard {
		total += len(objs)
	}
	if total == 0 {
		return nil
	}
	dedup := oem.NewDeduper(total)
	out := make([]*oem.Object, 0, total)
	for _, objs := range perShard {
		for _, o := range objs {
			if !dedup.Seen(o) {
				out = append(out, o)
			}
		}
	}
	return out
}
