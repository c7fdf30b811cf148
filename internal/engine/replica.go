package engine

import (
	"fmt"
	"sort"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// This file is the engine side of replicated sources (wrapper.Replicated):
// one logical source over N answer-equivalent members. Instead of calling
// the composite's own Query — which fails over in fixed registration
// order — the query node ranks members by the latency and error-rate
// EWMAs the statistics store accumulated for them (Stats.ReplicaScore),
// sends each exchange to the best-scoring member, and fails over to the
// next-ranked member on error. Unobserved members rank first so the
// router explores every replica before settling on the fastest, and
// because RecordLatency decays a member's error EWMA while RecordError
// raises it, a member that recovers is re-tried once its score drops back
// below its siblings'. Only when every member fails does the exchange
// fail, attributed to the composite under the run's ExecPolicy — the
// hedged-failover contract: a single healthy replica keeps the source
// answering.

// rankReplicas orders the members for one exchange: unobserved members
// first (exploration), then by ascending replica score; the sort is
// stable, so equal scores keep registration order.
func rankReplicas(stats *Stats, members []wrapper.Source) []wrapper.Source {
	out := append([]wrapper.Source(nil), members...)
	if stats == nil {
		return out
	}
	scores := make(map[string]float64, len(out))
	for _, m := range out {
		if sc, ok := stats.ReplicaScore(m.Name()); ok {
			scores[m.Name()] = sc
		} else {
			scores[m.Name()] = -1
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return scores[out[i].Name()] < scores[out[j].Name()]
	})
	return out
}

// queryReplicas evaluates one instantiated query against a replicated
// source: best-scored member first, failing over on error. skipped=true
// means every member failed (or was circuit-broken) and the policy
// absorbed it.
func (n *QueryNode) queryReplicas(rs *runState, rep wrapper.Replicated, q *msl.Rule) ([]*oem.Object, bool, error) {
	reg := metrics.Default()
	var lastErr error
	for _, m := range rankReplicas(rs.ex.Stats, rep.Replicas()) {
		if rs.sourceDown(m.Name()) {
			continue
		}
		if err := rs.cancelled(); err != nil {
			return nil, true, err
		}
		ctx, cancel := rs.sourceCtx(n)
		start := time.Now()
		objs, qerr := wrapper.QueryContext(ctx, m, q)
		elapsed := time.Since(start)
		cancel()
		if qerr != nil {
			lastErr = &wrapper.ReplicaError{Source: rep.Name(), Member: m.Name(), Err: qerr}
			reg.Counter("replica.failover").Inc()
			if rs.ex.Stats != nil {
				rs.ex.Stats.RecordError(m.Name(), qerr)
			}
			continue
		}
		reg.Counter("replica.exchanges").Inc()
		reg.Counter("replica.routed." + m.Name()).Inc()
		rs.recordExchange(n, 1, elapsed)
		rs.ex.recordLatency(m.Name(), elapsed)
		rs.ex.recordQuery(n, len(objs))
		return objs, false, nil
	}
	if lastErr == nil {
		// Every member was circuit-broken by earlier failures.
		return nil, true, nil
	}
	return nil, true, rs.sourceFailed(n.Source, lastErr)
}

// fetchChunkReplicated is the batched path over a replicated source: the
// whole chunk ships as one exchange to the best-scored batch-capable
// member, failing over member by member; if no batch-capable member
// answers, the chunk degrades to per-query exchanges through
// queryReplicas (which fails over on its own). qs[i] is answered into
// out[i].
func (n *QueryNode) fetchChunkReplicated(rs *runState, rep wrapper.Replicated, qs []*msl.Rule, out [][]*oem.Object) error {
	reg := metrics.Default()
	if len(qs) > 1 {
		for _, m := range rankReplicas(rs.ex.Stats, rep.Replicas()) {
			switch m.(type) {
			case wrapper.ContextBatchQuerier, wrapper.BatchQuerier:
			default:
				continue
			}
			if rs.sourceDown(m.Name()) {
				continue
			}
			if err := rs.cancelled(); err != nil {
				return err
			}
			ctx, cancel := rs.sourceCtx(n)
			start := time.Now()
			res, err := wrapper.QueryBatchContext(ctx, m, qs)
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				reg.Counter("replica.failover").Inc()
				if rs.ex.Stats != nil {
					rs.ex.Stats.RecordError(m.Name(), err)
				}
				continue
			}
			if len(res) != len(qs) {
				return fmt.Errorf("engine: batch query to replica %s returned %d answers for %d queries",
					m.Name(), len(res), len(qs))
			}
			reg.Counter("replica.exchanges").Inc()
			reg.Counter("replica.routed." + m.Name()).Inc()
			rs.recordExchange(n, len(qs), elapsed)
			rs.ex.recordLatency(m.Name(), elapsed)
			for i := range qs {
				out[i] = res[i]
				rs.ex.recordQuery(n, len(res[i]))
			}
			return nil
		}
	}
	for i, q := range qs {
		objs, _, err := n.queryReplicas(rs, rep, q)
		if err != nil {
			return err
		}
		out[i] = objs
	}
	return nil
}
