package wrapper

import (
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// BatchQuerier is an optional Source extension: a source that can answer
// several queries in one exchange implements it, and the datamerge
// engine's parameterized-query batching then ships the distinct
// instantiated queries of a query node in batches instead of one network
// round-trip per input tuple. The result slice is parallel to qs —
// results[i] answers qs[i] — which is what lets the engine hash-distribute
// answers back to the originating rows.
//
// Sources that do not implement BatchQuerier still work: the engine (and
// the QueryBatch helper) fall back to one Query call per rule.
type BatchQuerier interface {
	QueryBatch(qs []*msl.Rule) ([][]*oem.Object, error)
}

// Batches reports whether src answers a batch in one call (it implements
// BatchQuerier or ContextBatchQuerier) rather than one query after
// another.
func Batches(src Source) bool {
	switch src.(type) {
	case BatchQuerier, ContextBatchQuerier:
		return true
	}
	return false
}

// QueryBatch answers several queries against src in as few exchanges as
// the source allows: one, when src implements BatchQuerier, otherwise one
// Query call per rule. The returned slice is parallel to qs.
func QueryBatch(src Source, qs []*msl.Rule) ([][]*oem.Object, error) {
	if bq, ok := src.(BatchQuerier); ok {
		return bq.QueryBatch(qs)
	}
	return EachQuery(src, qs)
}

// EachQuery answers qs with one Query call per rule, returning the result
// sets parallel to qs. In-process wrappers use it to implement
// BatchQuerier — accepting a whole batch in one call is what makes the
// engine's batching count a single exchange against them. A failure at
// query i surfaces as a *QueryError carrying the index and source name,
// so callers (and the engine's failure policy) know which query to blame.
func EachQuery(src Source, qs []*msl.Rule) ([][]*oem.Object, error) {
	out := make([][]*oem.Object, len(qs))
	for i, q := range qs {
		objs, err := src.Query(q)
		if err != nil {
			return nil, &QueryError{Source: src.Name(), Index: i, Err: err}
		}
		out[i] = objs
	}
	return out, nil
}
