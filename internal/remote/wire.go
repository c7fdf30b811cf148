// Package remote runs wrappers behind a TCP protocol, giving MedMaker the
// distributed deployment of the TSIMMIS architecture (Figure 1.1): the
// mediator process talks to wrapper processes over the network, shipping
// MSL queries one way and OEM objects the other.
//
// The protocol is a gob stream per connection. It opens with an unframed
// handshake (a hello Request answered by name and capabilities) in which
// the client offers its protocol version; a server speaking the same
// version accepts, and every later message carries a frame ID — the client
// pipelines concurrent requests on the one shared connection and the
// server answers them out of order as each finishes. Peers of different
// versions fail at the hello. Gob frames each message's envelope; the OEM
// answers inside travel in a hand-written binary codec (see Answers).
// Servers handle each connection in its own goroutine; a Client is itself
// a wrapper.Source, so remote and in-process sources are interchangeable
// to the mediator.
package remote

import (
	"errors"

	"medmaker/internal/metrics"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// request kinds.
const (
	reqHello   = "hello"   // handshake: fetch name and capabilities
	reqQuery   = "query"   // evaluate the MSL text in Query
	reqCount   = "count"   // count top-level objects with Label
	reqBatch   = "batch"   // evaluate every MSL text in Queries, one exchange
	reqBind    = "bind"    // bind Template once per tuple in Tuples, one exchange
	reqMetrics = "metrics" // scrape the server's metrics registry
)

// ProtoFramed is the protocol version negotiated in the hello exchange:
// after the unframed hello, every message is a frame carrying an ID,
// requests may be pipelined, and responses return in completion order —
// one shared connection serves concurrent callers. Version 1 was an
// unframed lockstep protocol, version 2 carried answers as gob-reflected
// object trees, and version 3 had no bind request; none is spoken any
// more, and a peer offering or accepting anything but ProtoFramed is
// refused at the hello.
const ProtoFramed = 4

// Request is one client→server message.
type Request struct {
	Kind    string
	Query   string   // MSL text for reqQuery
	Label   string   // label for reqCount
	Queries []string // MSL texts for reqBatch
	// Template, Slots and Tuples are a reqBind: the MSL text of a
	// parameterized query, its slot variables, and the binding tuples in
	// the tuple codec (see encodeTuples). The server parses the template
	// once and answers one result set per tuple, in order.
	Template string
	Slots    []string
	Tuples   []byte
	// TimeoutMillis, when positive, is the client's remaining deadline
	// budget for this request; the server bounds its own evaluation by it
	// so work whose answer the client will discard is abandoned early.
	// Zero means no client deadline.
	TimeoutMillis int64
	// Proto, on a hello, is the protocol version the client speaks.
	Proto int
}

// reqFrame is one client→server message after a framed upgrade: the
// request, tagged with a connection-unique ID its response will echo.
type reqFrame struct {
	ID  uint64
	Req Request
}

// respFrame is one server→client message after a framed upgrade.
// Responses carry their request's ID and may arrive in any order.
type respFrame struct {
	ID   uint64
	Resp Response
}

// Response is one server→client message.
type Response struct {
	// Name and Caps answer a hello.
	Name string
	Caps wrapper.Capabilities
	// Objects answer a query.
	Objects Answers
	// Batches answer a batch or bind request, one result set per query
	// or tuple, in request order.
	Batches AnswerBatches
	// Count and CountOK answer a count request (CountOK is false when
	// the remote source cannot count cheaply).
	Count   int
	CountOK bool
	// Metrics answers a metrics request with a snapshot of the server
	// process's registry. A pointer so old servers — whose responses omit
	// the field entirely — are distinguishable from an empty registry.
	Metrics *metrics.Snapshot
	// Err is a non-empty error message; Unsupported carries the feature
	// name when the error was a capability rejection, so the client can
	// reconstitute a typed *wrapper.UnsupportedError.
	Err         string
	Unsupported string
	// Busy marks a refusal by a server at its connection bound (see
	// Server.MaxConns); the client surfaces it as ErrServerBusy so callers
	// can back off or shed instead of treating overload as failure.
	Busy bool
	// CtxErr marks an Err caused by the request's own deadline budget
	// ("deadline") or cancellation ("canceled"), so the client surfaces
	// the matching context error instead of an opaque string — the same
	// error the client's own deadline would have produced had it popped
	// first.
	CtxErr string
	// Proto, on a hello response, is ProtoFramed when the server accepted
	// the client's version; a refused hello carries Err instead.
	Proto int
	// Failed marks a query or batch answer as a partitioned source's
	// surviving union; the client returns it with a *wrapper.PartialError.
	Failed []FailedMember
}

// FailedMember is a *wrapper.ShardError on the wire.
type FailedMember struct {
	Source, Member string
	Shard          int
	Err            string
}

// answerResponse is the envelope for an evaluation that ended with err;
// the caller adds the answer unless Err is set.
func answerResponse(err error) Response {
	if err == nil {
		return Response{}
	}
	var pe *wrapper.PartialError
	if errors.As(err, &pe) {
		failed := make([]FailedMember, len(pe.Failed))
		for i, f := range pe.Failed {
			failed[i] = FailedMember{Source: f.Source, Member: f.Member, Shard: f.Shard, Err: f.Err.Error()}
		}
		return Response{Failed: failed}
	}
	resp := Response{Err: err.Error(), CtxErr: ctxErrKind(err)}
	var ue *wrapper.UnsupportedError
	if errors.As(err, &ue) {
		resp.Unsupported = ue.Feature
	}
	return resp
}

// partialError rebuilds a partial answer's *wrapper.PartialError.
func (r Response) partialError() error {
	if len(r.Failed) == 0 {
		return nil
	}
	pe := &wrapper.PartialError{Failed: make([]*wrapper.ShardError, len(r.Failed))}
	for i, f := range r.Failed {
		pe.Failed[i] = &wrapper.ShardError{Source: f.Source, Member: f.Member, Shard: f.Shard, Err: errors.New(f.Err)}
	}
	return pe
}

// WireObject is what an answer object is on the wire: the object itself,
// encoded by the answer codec (see Answers).
//
// Deprecated: kept for callers of the former gob-reflected form; use
// *oem.Object.
type WireObject = *oem.Object

// ToWire returns o unchanged.
//
// Deprecated: answers cross the wire as *oem.Object; see Answers.
func ToWire(o *oem.Object) WireObject { return o }

// FromWire returns w unchanged.
//
// Deprecated: answers cross the wire as *oem.Object; see Answers.
func FromWire(w WireObject) (*oem.Object, error) { return w, nil }
