package medmaker

import (
	"context"
	"errors"

	"medmaker/internal/engine"
	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/plan"
	"medmaker/internal/wrapper"
)

// buildView materializes one view extent for the matview manager by
// answering its fetch query through the live strategy (untraced: the
// build's exchanges belong to no particular query).
func (m *Mediator) buildView(ctx context.Context, fetch *Rule) ([]*Object, bool, error) {
	res, err := m.run(ctx, m.liveStrategy(fetch), m.policy, nil)
	if err != nil {
		return nil, false, err
	}
	return res.Objects, res.Incomplete, nil
}

// errNoDelta reports a view specification the delta rule is not sound
// for (see deltaRules).
var errNoDelta = errors.New("medmaker: view is not delta-evaluable")

// buildViewDelta evaluates the incremental effect of an insert into
// source on one materialized view — the delta rule of semi-naive
// evaluation. Its plan is the view's fetch query expanded as usual, minus
// the rules not reading source (the insert cannot change their answers),
// with source read as an in-memory extent that each run binds to the
// inserted objects, every other source live. The plan is data-independent,
// so with Config.PlanCache it compiles once per (view, source); the
// extent is scanned in place, so nothing about source reaches the
// statistics store. The sources have already been mutated, so "new ⋈
// old" and "new ⋈ new" derivations both surface, and the result is
// exactly the set of view objects the insert adds (up to structural
// duplicates, which the matview manager filters against the extent).
//
// ok=false reports a specification the delta rule is not sound for —
// fused (skolem) specs and the rule shapes deltaRules rejects — making
// the manager fall back to a full rebuild.
func (m *Mediator) buildViewDelta(ctx context.Context, fetch *Rule, source string, inserted []*Object) ([]*Object, bool, bool, error) {
	if m.fused {
		return nil, false, false, nil
	}
	st := &step{rule: fetch, expand: true, delta: source, keyPrefix: deltaKeyPrefix + source + " ",
		extents: map[string]plan.Extent{source: {View: source, Size: len(inserted)}}}
	physical, err := m.planFor(ctx, st, nil)
	if errors.Is(err, errNoDelta) {
		return nil, false, false, nil
	}
	if err != nil {
		return nil, false, false, err
	}
	res, err := m.execute(ctx, physical.Root, engine.Extents{source: inserted}, m.policy, nil)
	if err != nil {
		return nil, false, false, err
	}
	return res.Objects, res.Incomplete, true, nil
}

// deltaRules keeps the expanded rules that read source, for the delta
// rule of an insert into it; none means the insert cannot add view
// objects, and the empty program is the correct delta. It fails with
// errNoDelta for rules that survive expansion with mediator
// self-references, negated conjuncts (non-monotone: an insert can retract
// answers), and rules reading source more than once (one extent
// substitution would miss new⋈old combinations on the other occurrence).
func (m *Mediator) deltaRules(rules []*msl.Rule, source string) ([]*msl.Rule, error) {
	var delta []*msl.Rule
	for _, r := range rules {
		reads := 0
		for _, c := range r.Tail {
			pc, ok := c.(*msl.PatternConjunct)
			if !ok {
				continue
			}
			if pc.Source == "" || pc.Source == m.name || pc.Negated {
				return nil, errNoDelta
			}
			if pc.Source == source {
				reads++
			}
		}
		if reads > 1 {
			return nil, errNoDelta
		}
		if reads == 1 {
			delta = append(delta, r)
		}
	}
	return delta, nil
}

// applyDelta reacts to one source mutation reported through a change
// feed: the mutated source's answer-cache entries are dropped (counted
// under cache.invalidated), the materialized views depending on it are
// delta-maintained (or marked stale when only a rebuild is sound), and
// this mediator's own invalidation listeners fire so consumers of a
// higher tier conservatively drop their derived state. Cached plans are
// untouched: plans resolve sources by name at execution time and are
// data-independent.
func (m *Mediator) applyDelta(d wrapper.Delta) {
	m.dropAnswers(d.Source)
	if m.matviews != nil {
		m.matviews.ApplyDelta(context.Background(), d.Source, d.Inserted, d.Deleted)
	}
	m.notifyListeners()
}

// InvalidateCaches drops every cached source answer — call it when a
// source's data is known to have changed and Config.Cache is in use.
func (m *Mediator) InvalidateCaches() {
	m.dropAnswers("")
	m.notifyListeners()
}

// dropAnswers drops the answer-cache entries of source ("" for every
// source), counting them under cache.invalidated.
func (m *Mediator) dropAnswers(source string) {
	dropped := 0
	m.cacheMu.Lock()
	for _, c := range m.caches {
		dropped += c.Invalidate(source)
	}
	m.cacheMu.Unlock()
	metrics.Default().Counter("cache.invalidated").Add(int64(dropped))
}

// Invalidate marks every cached derivation of name — answer caches and
// materialized-view extents alike — as stale, in one call. name selects:
//
//   - a source name: that source's answer cache is dropped and every
//     materialized view depending on it is marked stale;
//   - a view label (with Config.Materialize): that view's extent is
//     marked stale;
//   - "": everything.
//
// Stale extents keep serving the live-fallback path until a background
// refresh replaces them; the next contained query triggers one.
// Invalidate returns the number of view extents it marked stale.
func (m *Mediator) Invalidate(name string) int {
	m.dropAnswers(name)
	if m.plans != nil {
		m.plans.Invalidate(name)
	}
	stale := 0
	if m.matviews != nil {
		stale = m.matviews.Invalidate(name)
	}
	m.notifyListeners()
	return stale
}

// OnInvalidate implements wrapper.InvalidationNotifier: fn runs after
// every Invalidate (and InvalidateCaches) on this mediator, with no
// locks held. A tier-1 mediator registers itself here when this mediator
// is added as one of its sources, making invalidation transitive up the
// mediation tiers; do not build notification cycles.
func (m *Mediator) OnInvalidate(fn func()) {
	m.notifyMu.Lock()
	m.listeners = append(m.listeners, fn)
	m.notifyMu.Unlock()
}

// notifyListeners fires the registered invalidation callbacks outside
// every mediator lock.
func (m *Mediator) notifyListeners() {
	m.notifyMu.Lock()
	fns := append([]func(){}, m.listeners...)
	m.notifyMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Refresh rebuilds the named materialized view's extent synchronously
// (label "" rebuilds all of them, in declaration order), through the
// live pipeline. A no-op without Config.Materialize. Use it to warm
// extents ahead of traffic instead of paying the build on first query.
func (m *Mediator) Refresh(ctx context.Context, label string) error {
	if m.matviews == nil {
		return nil
	}
	return m.matviews.Refresh(ctx, label)
}

// WaitMatViews blocks until every in-flight background extent refresh
// has finished — deterministic shutdown and tests.
func (m *Mediator) WaitMatViews() {
	if m.matviews != nil {
		m.matviews.Wait()
	}
}
