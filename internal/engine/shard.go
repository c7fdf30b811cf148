package engine

import (
	"fmt"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// This file is the engine side of partitioned sources (wrapper.Sharded):
// instead of calling the composite's own Query — which would scatter
// outside the run's failure policy — the query node routes or scatters
// member by member. A routed query (partition key bound by the pushed
// conditions) costs one member exchange; a scatter fans the same query
// to every member on the morsel pool at width 1 (one member per morsel,
// so N shards overlap their network latency across min(N, parallelism)
// workers) and gathers the union in member order. Each member exchange
// runs under sourceCtx/sourceFailed with the member's name, so
// PerSourceTimeout bounds each shard separately, OnErrorSkip
// circuit-breaks one shard without silencing its siblings, and
// Result.SourceErrors plus engine.Stats attribute failures to the shard
// that produced them — the ExecPolicy-aware partial results of a
// degraded partition.

// queryShards evaluates one instantiated query against a sharded source.
// skipped=true reports that at least one member's contribution is
// missing (policy-absorbed failure); the surviving members' union is
// still returned.
func (n *QueryNode) queryShards(rs *runState, sh wrapper.Sharded, q *msl.Rule) ([]*oem.Object, bool, error) {
	members := sh.Members()
	reg := metrics.Default()
	if shard, ok := sh.ShardFor(q); ok {
		reg.Counter("shard.routed").Inc()
		return n.queryMember(rs, members[shard], q)
	}
	reg.Counter("shard.scatter").Inc()
	perShard := make([][]*oem.Object, len(members))
	skips := make([]bool, len(members))
	err := rs.runMorselsWidth(n, len(members), 1, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			objs, skipped, err := n.queryMember(rs, members[i], q)
			if err != nil {
				return err
			}
			perShard[i], skips[i] = objs, skipped
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	anySkipped := false
	for _, s := range skips {
		anySkipped = anySkipped || s
	}
	return wrapper.GatherUnion(perShard), anySkipped, nil
}

// queryMember is querySource against one member shard: same context,
// policy, trace, and statistics plumbing, attributed to the member's
// name (for failures and circuit-breaking) and to the composite's name
// (for the optimizer's per-source statistics, which describe the logical
// source the plan references).
func (n *QueryNode) queryMember(rs *runState, member wrapper.Source, q *msl.Rule) ([]*oem.Object, bool, error) {
	reg := metrics.Default()
	if rs.sourceDown(member.Name()) {
		return nil, true, nil
	}
	ctx, cancel := rs.sourceCtx(n)
	start := time.Now()
	objs, qerr := wrapper.QueryContext(ctx, member, q)
	elapsed := time.Since(start)
	cancel()
	if qerr != nil {
		reg.Counter("shard.failures").Inc()
		return nil, true, rs.sourceFailed(member.Name(), qerr)
	}
	reg.Counter("shard.exchanges").Inc()
	rs.recordExchange(n, 1, elapsed)
	rs.ex.recordQuery(n, len(objs))
	return objs, false, nil
}

// fetchChunkSharded is the batched path over a sharded source: the
// chunk's distinct queries regroup by target shard, each routed group
// ships as one batched exchange to its member (when the member batches),
// and unroutable queries scatter individually through queryShards.
// qs[i] is answered into out[i].
func (n *QueryNode) fetchChunkSharded(rs *runState, sh wrapper.Sharded, qs []*msl.Rule, out [][]*oem.Object) error {
	members := sh.Members()
	groups := make([][]int, len(members))
	for i, q := range qs {
		if shard, ok := sh.ShardFor(q); ok {
			groups[shard] = append(groups[shard], i)
			continue
		}
		objs, _, err := n.queryShards(rs, sh, q)
		if err != nil {
			return err
		}
		out[i] = objs
	}
	for shard, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		if err := n.fetchMemberBatch(rs, members[shard], qs, idx, out); err != nil {
			return err
		}
	}
	return nil
}

// fetchMemberBatch ships one routed group — the queries qs[i] for i in
// idx — to its member shard: one batched exchange when the member
// batches and the group has more than one query, per-query exchanges
// otherwise.
func (n *QueryNode) fetchMemberBatch(rs *runState, member wrapper.Source, qs []*msl.Rule, idx []int, out [][]*oem.Object) error {
	reg := metrics.Default()
	reg.Counter("shard.routed").Add(int64(len(idx)))
	canBatch := false
	switch member.(type) {
	case wrapper.ContextBatchQuerier, wrapper.BatchQuerier:
		canBatch = true
	}
	if !canBatch || len(idx) == 1 {
		for _, i := range idx {
			objs, _, err := n.queryMember(rs, member, qs[i])
			if err != nil {
				return err
			}
			out[i] = objs
		}
		return nil
	}
	if rs.sourceDown(member.Name()) {
		return nil // every answer stays empty
	}
	group := make([]*msl.Rule, len(idx))
	for j, i := range idx {
		group[j] = qs[i]
	}
	ctx, cancel := rs.sourceCtx(n)
	start := time.Now()
	res, err := wrapper.QueryBatchContext(ctx, member, group)
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		reg.Counter("shard.failures").Inc()
		return rs.sourceFailed(member.Name(), err)
	}
	if len(res) != len(group) {
		return fmt.Errorf("engine: batch query to shard %s returned %d answers for %d queries",
			member.Name(), len(res), len(group))
	}
	reg.Counter("shard.exchanges").Inc()
	rs.recordExchange(n, len(idx), elapsed)
	for j, i := range idx {
		out[i] = res[j]
		rs.ex.recordQuery(n, len(res[j]))
	}
	return nil
}
