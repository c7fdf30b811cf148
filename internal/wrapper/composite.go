package wrapper

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// composite is what Partitioned and Replicas share: one logical source
// over member sources. A composite routes, fails over and degrades
// itself, applying the caller's run policy to each member call.
type composite struct {
	name    string
	members []Source
	caps    Capabilities
}

// newComposite validates a composite of the given kind ("partitioned",
// "replicated") and intersects its members' capabilities field-wise.
// Member names must be unique and differ from the composite's: failures
// are attributed, and circuit-broken, by member name.
func newComposite(kind, name string, members []Source) (composite, error) {
	if name == "" {
		return composite{}, fmt.Errorf("wrapper: %s source needs a name", kind)
	}
	if len(members) == 0 {
		return composite{}, fmt.Errorf("wrapper: %s source %q needs at least one member", kind, name)
	}
	caps := FullCapabilities()
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name() == name {
			return composite{}, fmt.Errorf("wrapper: %s source %q cannot contain a member with its own name", kind, name)
		}
		if seen[m.Name()] {
			return composite{}, fmt.Errorf("wrapper: %s source %q has two members named %q", kind, name, m.Name())
		}
		seen[m.Name()] = true
		mc := m.Capabilities()
		caps.ValueConditions = caps.ValueConditions && mc.ValueConditions
		caps.RestConstraints = caps.RestConstraints && mc.RestConstraints
		caps.Wildcards = caps.Wildcards && mc.Wildcards
		caps.MultiPattern = caps.MultiPattern && mc.MultiPattern
	}
	return composite{name: name, members: members, caps: caps}, nil
}

// Name implements Source.
func (c *composite) Name() string { return c.name }

// Capabilities implements Source.
func (c *composite) Capabilities() Capabilities { return c.caps }

// OnInvalidate implements InvalidationNotifier by forwarding the
// registration to every member that notifies: a mutation in any member
// invalidates derived state over the whole logical source.
func (c *composite) OnInvalidate(fn func()) {
	for _, m := range c.members {
		if n, ok := m.(InvalidationNotifier); ok {
			n.OnInvalidate(fn)
		}
	}
}

// ShardError attributes a failure inside a composite source to the
// member that produced it.
type ShardError struct {
	// Source is the composite's logical name.
	Source string
	// Member is the failing member's name; Shard its index in member
	// order.
	Member string
	Shard  int
	// Err is the member's error.
	Err error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("wrapper: source %q member %d (%s): %v", e.Source, e.Shard, e.Member, e.Err)
}

// Unwrap exposes the member's error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// ReplicaError is the ShardError of a replicated source: the last
// member tried when every member failed.
type ReplicaError = ShardError

// PartialError accompanies a composite source's answer when members
// failed or were skipped as circuit-broken: the answer is the survivors'
// union, and Failed names each member that contributed nothing, in
// member order.
type PartialError struct {
	Failed []*ShardError
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("wrapper: partial answer without %v", e.Unwrap())
}

// Unwrap exposes every member's *ShardError to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// runPolicy is what WithRunPolicy carries.
type runPolicy struct {
	run     context.Context
	timeout time.Duration
	down    func(member string) bool
}

type runPolicyKey struct{}

// WithRunPolicy returns ctx carrying one query run's policy toward the
// members of composite sources: each member call is bounded by its own
// timeout (0: no bound beyond the run's), and a member for which down
// reports true (if down is set) is skipped. A mediator sets it once per
// run. A zero policy adds nothing, except to mask an outer run's.
func WithRunPolicy(ctx context.Context, timeout time.Duration, down func(member string) bool) context.Context {
	if timeout > 0 || down != nil {
		return context.WithValue(ctx, runPolicyKey{}, &runPolicy{run: ctx, timeout: timeout, down: down})
	}
	if ctx.Value(runPolicyKey{}) != nil {
		return context.WithValue(ctx, runPolicyKey{}, (*runPolicy)(nil))
	}
	return ctx
}

// memberScope is a composite's view of one call: the context its member
// calls derive from, and the caller's run policy (zero when none).
type memberScope struct {
	ctx context.Context
	runPolicy
}

// enterMembers opens the member scope for one composite call. Under a
// member timeout, the caller's own deadline — the run's per-exchange
// bound on the composite as a whole — gives way to the run's
// cancellation, so every member call, a failover included, gets a full
// budget. The returned func releases the scope.
func enterMembers(ctx context.Context) (memberScope, func()) {
	s := memberScope{ctx: ctx}
	rp, _ := ctx.Value(runPolicyKey{}).(*runPolicy)
	if rp == nil {
		return s, func() {}
	}
	s.runPolicy = *rp
	if rp.timeout <= 0 {
		return s, func() {}
	}
	base, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := context.AfterFunc(rp.run, cancel)
	s.ctx = base
	return s, func() { stop(); cancel() }
}

// skip reports whether the run has circuit-broken the member.
func (s memberScope) skip(member Source) bool {
	return s.down != nil && s.down(member.Name())
}

// errMemberDown is the failure a composite reports for a member it
// skipped as circuit-broken. The answer lacks that member's share, so it
// must still come with a *PartialError: a cache in front of the
// composite would otherwise store it as complete.
var errMemberDown = errors.New("skipped: down for this run")

// memberError attributes err to the composite's i'th member.
func (c *composite) memberError(i int, err error) *ShardError {
	return &ShardError{Source: c.name, Member: c.members[i].Name(), Shard: i, Err: err}
}

// call makes one member call under the scope's per-member timeout.
func (s memberScope) call(fn func(ctx context.Context) error) error {
	if s.timeout <= 0 {
		return fn(s.ctx)
	}
	ctx, cancel := context.WithTimeout(s.ctx, s.timeout)
	defer cancel()
	return fn(ctx)
}
