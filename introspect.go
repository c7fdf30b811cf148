package medmaker

import (
	"context"
	"fmt"
	"strings"

	"medmaker/internal/matview"
	"medmaker/internal/msl"
	"medmaker/internal/plan"
	"medmaker/internal/trace"
	"medmaker/internal/veao"
)

// Expand runs only the View Expander & Algebraic Optimizer, returning the
// logical datamerge program for a query.
func (m *Mediator) Expand(q *Rule) (*veao.Program, error) {
	return m.expander.Expand(q)
}

// ExpandContext is Expand bounded by ctx: expansion of adversarial
// specifications can blow up combinatorially, so the rewriting itself
// honors cancellation.
func (m *Mediator) ExpandContext(ctx context.Context, q *Rule) (*veao.Program, error) {
	return m.expander.ExpandContext(ctx, q)
}

// Plan runs view expansion and cost-based optimization, returning the
// physical datamerge graph and the logical program it came from.
func (m *Mediator) Plan(q *Rule) (*plan.Plan, *veao.Program, error) {
	return m.PlanContext(context.Background(), q)
}

// PlanContext is Plan bounded by ctx, which covers both expansion and
// per-rule plan construction. It plans q itself, live, whatever strategy
// Query would pick for it (see Explain).
func (m *Mediator) PlanContext(ctx context.Context, q *Rule) (*plan.Plan, *veao.Program, error) {
	return m.compilePlan(ctx, &step{rule: q, expand: true}, nil)
}

// Explain returns a human-readable account of how the mediator would
// answer the MSL query text: the strategy Query picks and, for each plan
// it runs, the logical datamerge program (or the query over extents) and
// the physical datamerge graph. A query a materialized view covers shows
// the scan of the view's extent; one answered through the fused view
// shows the view's fetch, then the query's plan over the view. Explain
// queries no source and builds, reads and counts no extent.
func (m *Mediator) Explain(q string) (string, error) {
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	s := m.strategyFor(rule)
	steps := []*step{s.rule}
	switch {
	case s.matview != nil:
		fmt.Fprintf(&sb, "-- note: Query answers this from the materialized extent of %s while it is fresh,\n", strings.Join(s.matview.Views, ", "))
		sb.WriteString("-- and live otherwise; a cold extent is built first.\n")
		steps = []*step{matviewStep(s.matview, &matview.Served{})}
	case s.fetch != nil:
		sb.WriteString("-- note: Query answers this over the whole view (semantic oids, a negated view\n")
		sb.WriteString("-- condition or a view rest predicate): plan 1 fetches it, plan 2 scans it as " + fusedViewSource + ".\n")
		steps = []*step{s.fetch, s.rule}
	}
	for _, st := range steps {
		physical, logical, err := m.compilePlan(context.Background(), st, nil)
		if err != nil {
			return "", err
		}
		if st.expand {
			sb.WriteString("-- logical datamerge program --\n" + logical.String())
		} else {
			fmt.Fprintf(&sb, "-- query over the view --\n%s\n", st.rule)
		}
		sb.WriteString("-- physical datamerge graph --\n")
		physical.Print(&sb)
	}
	return sb.String(), nil
}

// ExplainAnalyze answers the MSL query text and returns the executed
// plan annotated with what actually happened: per-operator actual row
// counts against the optimizer's estimates, source exchanges and their
// latency distributions, cache traffic, and phase timings that sum to
// the total wall time. The query really runs (sources are queried);
// use Explain for a static plan.
func (m *Mediator) ExplainAnalyze(q string) (string, error) {
	return m.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext is ExplainAnalyze bounded by ctx.
func (m *Mediator) ExplainAnalyzeContext(ctx context.Context, q string) (string, error) {
	qt := trace.New(q)
	qt.Phase(trace.PhaseParse)
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return "", err
	}
	res, err := m.queryTraced(ctx, rule, m.policy, qt)
	qt.End()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	qt.Render(&sb)
	fmt.Fprintf(&sb, "-- %d result objects --\n", len(res.Objects))
	return sb.String(), nil
}

// MatViewStats snapshots the materialized-view manager's counters; the
// zero value when Config.Materialize is unset.
func (m *Mediator) MatViewStats() MatViewStats {
	if m.matviews == nil {
		return MatViewStats{}
	}
	return m.matviews.Stats()
}

// MatViews returns the labels of the materialized views, in declaration
// order; empty without Config.Materialize.
func (m *Mediator) MatViews() []string {
	if m.matviews == nil {
		return nil
	}
	return m.matviews.Labels()
}

// CacheStats returns per-source answer-cache counters, keyed by source
// name; the map is empty when Config.Cache is unset.
func (m *Mediator) CacheStats() map[string]CacheStats {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	out := make(map[string]CacheStats, len(m.caches))
	for _, c := range m.caches {
		out[c.Name()] = c.Stats()
	}
	return out
}

// PlanCacheStats snapshots the plan cache's counters; the zero value when
// Config.PlanCache is unset.
func (m *Mediator) PlanCacheStats() PlanCacheStats {
	if m.plans == nil {
		return PlanCacheStats{}
	}
	return m.plans.Stats()
}

// Policy returns the default execution policy queries run under
// (Config.Policy); QueryPolicy overrides it per call.
func (m *Mediator) Policy() ExecPolicy { return m.policy }

// QueryStats returns the mediator's learned statistics store.
func (m *Mediator) QueryStats() *Stats { return m.stats }

// Spec returns the mediator's parsed specification.
func (m *Mediator) Spec() *SpecProgram { return m.spec }

// Sources returns the names of the registered sources, sorted.
func (m *Mediator) Sources() []string { return m.sources.Names() }
