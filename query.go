package medmaker

import (
	"context"
	"io"
	"strings"

	"medmaker/internal/engine"
	"medmaker/internal/lorel"
	"medmaker/internal/matview"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/plan"
	"medmaker/internal/trace"
	"medmaker/internal/veao"
	"medmaker/internal/wrapper"
)

// Query answers an MSL query rule; it implements Source, which is what
// lets mediators serve as sources of other mediators. The returned
// objects are materialized results with mediator-issued object-ids.
//
// For specifications using semantic object-ids, queries are answered
// against the materialized fused view: a condition may only hold on the
// fusion of fragments derived by different rules (e.g. office from one
// source and salary from another under one person(N)), so per-rule
// expansion would silently miss answers. Non-fusion specifications use
// ordinary view expansion.
func (m *Mediator) Query(q *Rule) ([]*Object, error) {
	return m.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by ctx; it implements ContextSource.
// Cancellation or an expired deadline aborts the whole answer path —
// view expansion, planning, and execution, including in-flight source
// exchanges — and surfaces as ctx.Err(). Every goroutine the engine
// started has exited by the time QueryContext returns.
//
// A run the mediator's policy let degrade (QueryResult.Incomplete)
// answers the way a composite source that lost a member does: the
// surviving objects together with a *wrapper.PartialError holding one
// ShardError per SourceError. A mediator serving as another's source thus
// hands its degradation up — the upper tier records the failed sources
// and its answer cache stores nothing — instead of passing a lower bound
// off as complete.
func (m *Mediator) QueryContext(ctx context.Context, q *Rule) ([]*Object, error) {
	res, err := m.QueryPolicy(ctx, q, m.policy)
	if err != nil {
		return nil, err
	}
	return res.Objects, m.partialError(res)
}

// partialError is res's degradation record as a composite source reports
// it, or nil for a complete answer. Shard numbers the failures in the
// order the run observed them.
func (m *Mediator) partialError(res *QueryResult) error {
	if !res.Incomplete {
		return nil
	}
	failed := make([]*wrapper.ShardError, len(res.SourceErrors))
	for i, se := range res.SourceErrors {
		failed[i] = &wrapper.ShardError{Source: m.name, Member: se.Source, Shard: i, Err: se.Err}
	}
	return &wrapper.PartialError{Failed: failed}
}

// QueryPolicy is QueryContext under an explicit execution policy,
// returning the full QueryResult: the objects plus the degradation
// record. With a skipping policy a failed source no longer aborts the
// query; the healthy sources' contributions come back with
// QueryResult.Incomplete set and the failures listed, so callers can
// distinguish a full answer from a lower bound.
func (m *Mediator) QueryPolicy(ctx context.Context, q *Rule, policy ExecPolicy) (*QueryResult, error) {
	return m.queryTraced(ctx, q, policy, nil)
}

// QueryTraced answers q like QueryContext while recording a structured
// execution trace: phase timings, per-operator actual-vs-estimated
// cardinalities, source exchanges, and cache traffic. The trace is
// complete (ended) when QueryTraced returns, including on error — render
// it with QueryTrace.Render or snapshot it with QueryTrace.Snapshot.
// Tracing does not force sequential execution; parallel workers merge
// their records race-free.
func (m *Mediator) QueryTraced(ctx context.Context, q *Rule) (*QueryResult, *QueryTrace, error) {
	qt := trace.New(q.String())
	res, err := m.queryTraced(ctx, q, m.policy, qt)
	qt.End()
	return res, qt, err
}

// queryTraced is the single answer path behind QueryPolicy and
// QueryTraced; qt may be nil (every trace hook is a no-op then), unless
// Config.Trace is set, which records every query and writes its flow
// when the query ends. It runs what strategyFor decides: a rewrite over
// materialized extents first, if any, which the matview manager may
// decline (staleness, a build failure), then the live steps.
func (m *Mediator) queryTraced(ctx context.Context, q *Rule, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	if m.trace != nil {
		if qt == nil {
			qt = trace.New(q.String())
		}
		defer m.writeFlow(qt)
	}
	ctx = trace.NewContext(ctx, qt)
	qt.Phase(trace.PhaseExpand)
	s := m.strategyFor(q)
	if m.matviews != nil {
		res, served, err := m.queryMatView(ctx, s.matview, policy, qt)
		if err != nil || served {
			return res, err
		}
	}
	return m.run(ctx, s, policy, qt)
}

// strategy is how the mediator answers one query: strategyFor decides
// it, Query runs it and Explain prints it.
type strategy struct {
	// matview is the query rewritten over materialized extents, nil when
	// no materialized view covers it; Query runs the steps below when
	// the extents are not fresh.
	matview *matview.Rewrite
	// rule is q itself or, when fetch is set, q over the fused view that
	// fetch answers, read as the fusedViewSource extent.
	fetch, rule *step
}

// step is one plan of a strategy and what compiling it takes: whether
// rule reads this mediator's view and is expanded first (a rule over
// extents is planned as written), the source whose delta rules alone are
// kept (deltaRules), and the names the plan reads as in-memory extents.
type step struct {
	rule    *Rule
	expand  bool
	delta   string
	extents map[string]plan.Extent
	// keyPrefix prefixes the rule's canonical text in the plan-cache key;
	// uncached steps compile on every call.
	keyPrefix string
	uncached  bool
}

// Plan-cache key prefixes of the steps that are not a query's own plan:
// a canonical query text never starts with a NUL byte.
const fusedKeyPrefix, deltaKeyPrefix = "\x00fused ", "\x00delta "

// strategyFor decides how q is answered: from materialized extents when
// a configured view covers it, and otherwise (or when the extents are
// not fresh) by liveStrategy.
func (m *Mediator) strategyFor(q *Rule) *strategy {
	s := m.liveStrategy(q)
	if m.matviews != nil {
		s.matview = m.matviews.Rewrite(q)
	}
	return s
}

// liveStrategy answers q from the sources: over the fused view when
// needsFusedView holds, else by expanding q itself.
func (m *Mediator) liveStrategy(q *Rule) *strategy {
	if !m.needsFusedView(q) {
		return &strategy{rule: &step{rule: q, expand: true}}
	}
	fetch, rewritten := m.fusedViewRules(q)
	return &strategy{fetch: &step{rule: fetch, expand: true}, rule: &step{rule: rewritten,
		keyPrefix: fusedKeyPrefix, extents: map[string]plan.Extent{fusedViewSource: {View: fusedViewSource}}}}
}

// run executes s's live steps, binding the fused view's answer for the
// rule's plan. Degradation while fetching the view carries into the
// answer: conditions evaluated against the view are a lower bound then.
func (m *Mediator) run(ctx context.Context, s *strategy, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	if s.fetch == nil {
		return m.runStep(ctx, s.rule, nil, policy, qt)
	}
	qt.Annotate("fused_view", 1)
	view, err := m.runStep(ctx, s.fetch, nil, policy, qt)
	if err != nil {
		return nil, err
	}
	s.rule.extents[fusedViewSource] = plan.Extent{View: fusedViewSource, Size: len(view.Objects)}
	res, err := m.runStep(ctx, s.rule, engine.Extents{fusedViewSource: view.Objects}, policy, qt)
	if err != nil {
		return nil, err
	}
	res.Incomplete = res.Incomplete || view.Incomplete
	res.SourceErrors = append(append([]*SourceError(nil), view.SourceErrors...), res.SourceErrors...)
	return res, nil
}

// runStep plans st and executes the plan with exts bound.
func (m *Mediator) runStep(ctx context.Context, st *step, exts engine.Extents, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	physical, err := m.planFor(ctx, st, qt)
	if err != nil {
		return nil, err
	}
	qt.Phase(trace.PhaseExecute)
	return m.execute(ctx, physical.Root, exts, policy, qt)
}

// planFor produces st's physical plan, through the plan cache when
// Config.PlanCache is set. Cached plans are immutable operator
// descriptions (all run state lives in the engine's per-run state) that
// resolve sources and extents by name at execution time, so one plan
// serves any number of concurrent queries and survives data changes and
// AddSource refreshes that keep the name and capabilities. A hit is
// annotated "cached-plan" on the trace and opens no phase: a warm live
// query's expand phase stays open but empty, with no plan phase at all.
// A hit also runs the drift check (maybeReplan), so a serving tier's
// cached plans follow the statistics instead of freezing the first order
// ever picked.
func (m *Mediator) planFor(ctx context.Context, st *step, qt *trace.QueryTrace) (*plan.Plan, error) {
	if m.plans == nil || st.uncached {
		physical, _, err := m.compilePlan(ctx, st, qt)
		return physical, err
	}
	key := st.keyPrefix + plan.CacheKey(st.rule)
	compiled, hit, err := m.plans.GetOrCompile(ctx, key, func(ctx context.Context) (*plan.Compiled, error) {
		return m.compile(ctx, st, qt)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		qt.Annotate("cached-plan", 1)
		m.maybeReplan(key, st, compiled, qt)
	}
	return compiled.Plan, nil
}

// compilePlan is the one compile function, behind every strategy step,
// delta rules and PlanContext: it expands st's rule if st says so, in
// the phase the caller opened, then opens the plan phase and plans the
// program over the live sources and st's extents. qt may be nil.
func (m *Mediator) compilePlan(ctx context.Context, st *step, qt *trace.QueryTrace) (*plan.Plan, *veao.Program, error) {
	logical := &veao.Program{Rules: []*msl.Rule{st.rule}, Decls: m.spec.Decls}
	var err error
	if st.expand {
		if logical, err = m.ExpandContext(ctx, st.rule); err != nil {
			return nil, nil, err
		}
	}
	if st.delta != "" {
		if logical.Rules, err = m.deltaRules(logical.Rules, st.delta); err != nil {
			return nil, nil, err
		}
	}
	qt.Phase(trace.PhasePlan)
	physical, err := plan.New(m.sources, m.extfns, m.stats, m.planOpts).Over(st.extents).BuildContext(ctx, logical)
	return physical, logical, err
}

// compile packages compilePlan's result for the plan cache, recording
// the statistics generation the plan was built under. The generation is
// read before compilation, so statistics arriving mid-compile register
// as drift on the next hit rather than being missed.
func (m *Mediator) compile(ctx context.Context, st *step, qt *trace.QueryTrace) (*plan.Compiled, error) {
	gen := m.stats.Generation()
	physical, logical, err := m.compilePlan(ctx, st, qt)
	if err != nil {
		return nil, err
	}
	deps, all := m.planDeps(st.rule, logical)
	return &plan.Compiled{Plan: physical, Deps: deps, DependsOnAll: all, StatsGen: gen}, nil
}

// maybeReplan revalidates a hit plan against the current statistics: if
// the store drifted past plan.DriftRatio from the estimates baked into
// it and no refresh of key is already running, st is recompiled in the
// background and the cache entry replaced on success. The hit keeps
// serving the old plan — a drifted plan is correct, just possibly slow —
// so the foreground query never waits. The trace notes "plan.drift".
func (m *Mediator) maybeReplan(key string, st *step, compiled *plan.Compiled, qt *trace.QueryTrace) {
	if !plan.Drifted(compiled, m.stats, 0) || !m.plans.BeginRefresh(key) {
		return
	}
	qt.Annotate("plan.drift", 1)
	bg := *st
	bg.rule = st.rule.Clone() // the caller's rule must not escape into the goroutine
	m.replanWG.Add(1)
	go func() {
		defer m.replanWG.Done()
		fresh, err := m.compile(context.Background(), &bg, nil)
		if err != nil {
			fresh = nil // clear the claim; a later drift check retries
		}
		m.plans.CompleteRefresh(key, fresh)
	}()
}

// WaitReplans blocks until every background plan revalidation started by
// the drift check has finished — deterministic shutdown and tests. A
// no-op without Config.PlanCache.
func (m *Mediator) WaitReplans() { m.replanWG.Wait() }

// planDeps collects the names whose invalidation must drop q's cached
// plan: every source the expanded program reads, plus the view labels the
// original query asked this mediator for (so a matview-related Invalidate
// of a label also retires plans compiled for queries over it). A variable
// view label — or any mediator-directed conjunct surviving expansion —
// defeats static analysis and marks the plan dependent on everything.
func (m *Mediator) planDeps(q *Rule, logical *veao.Program) (deps []string, all bool) {
	seen := map[string]bool{}
	for _, r := range logical.Rules {
		for _, c := range r.Tail {
			pc, ok := c.(*msl.PatternConjunct)
			if !ok {
				continue
			}
			if pc.Source == "" || pc.Source == m.name {
				return nil, true
			}
			seen[pc.Source] = true
		}
	}
	for _, c := range q.Tail {
		pc, ok := c.(*msl.PatternConjunct)
		if !ok || (pc.Source != "" && pc.Source != m.name) {
			continue
		}
		label := pc.Pattern.LabelName()
		if label == "" {
			return nil, true
		}
		seen[label] = true
	}
	deps = make([]string, 0, len(seen))
	for n := range seen {
		deps = append(deps, n)
	}
	return deps, false
}

// queryMatView offers rw — q rewritten over materialized extents, nil
// when no view covers q — to the matview manager and, on a hit, answers
// it from the extents with zero source exchanges. served is false
// whenever the live path should run instead: no covering fresh extent, or
// any failure that isn't the caller's context ending — materialization
// is an optimization and must never make a query fail that live
// expansion could answer.
func (m *Mediator) queryMatView(ctx context.Context, rw *matview.Rewrite, policy ExecPolicy, qt *trace.QueryTrace) (res *QueryResult, served bool, err error) {
	sv, outcome, err := m.matviews.Serve(ctx, rw)
	if err == nil {
		qt.Annotate("matview."+outcome.String(), 1)
		if outcome != matview.Hit {
			return nil, false, nil
		}
		if sv.Built {
			qt.Annotate("matview.build", 1)
		}
		if res, err = m.runStep(ctx, matviewStep(rw, sv), sv.Extents, policy, qt); err == nil {
			// An extent built from a degraded (skipping-policy) run is a
			// lower bound; answers served from it are too.
			res.Incomplete = res.Incomplete || sv.Incomplete
			return res, true, nil
		}
	}
	if ctx.Err() != nil {
		return nil, false, err
	}
	qt.Annotate("matview.error", 1)
	return nil, false, nil
}

// matviewStep is the step answering rw from its views' extents, sized
// by the ones sv binds.
//
// It is compiled on every call, never cached. Planning a hit costs
// 30–36 µs (Serve 17 µs more) against 2.37–2.58 ms of execution, while
// caching all 2000 of the mutate_read benchmark's warm query texts would
// keep 2.96 MiB (1552 B each) on a 28.51 MiB heap, +10.4 % (in-process
// runs at 20 000 persons, 2 vCPUs).
func matviewStep(rw *matview.Rewrite, sv *matview.Served) *step {
	st := &step{rule: rw.Query, uncached: true, extents: map[string]plan.Extent{}}
	for _, label := range rw.Views {
		name := matview.ExtentSource(label)
		st.extents[name] = plan.Extent{View: label, Size: len(sv.Extents[name])}
	}
	return st
}

// needsFusedView reports whether q is answered by the fused-view strategy
// rather than per-rule expansion (see liveStrategy). It holds for every
// query on a specification with semantic object-ids, where a condition
// may hold only on the fusion of fragments different rules derive, and
// for query forms per-rule expansion cannot answer:
//
//   - a negated condition on this mediator's own view (an object is
//     absent from the view only if *no* rule derives it);
//   - a predicate over a rest variable of a view condition (the rest of
//     a virtual object only exists at runtime, after construction).
func (m *Mediator) needsFusedView(q *Rule) bool {
	if m.fused {
		return true
	}
	viewRests := map[string]bool{}
	for _, c := range q.Tail {
		pc, ok := c.(*msl.PatternConjunct)
		if !ok || (pc.Source != "" && pc.Source != m.name) {
			continue
		}
		if pc.Negated {
			return true
		}
		collectRestVars(pc.Pattern, viewRests)
	}
	if len(viewRests) == 0 {
		return false
	}
	for _, c := range q.Tail {
		if pr, ok := c.(*msl.PredicateConjunct); ok {
			for _, a := range pr.Args {
				if v, isVar := a.(*msl.Var); isVar && viewRests[v.Name] {
					return true
				}
			}
		}
	}
	return false
}

func collectRestVars(p *msl.ObjectPattern, out map[string]bool) {
	sp, ok := p.Value.(*msl.SetPattern)
	if !ok {
		return
	}
	if sp.Rest != nil {
		out[sp.Rest.Name] = true
	}
	for _, e := range sp.Elems {
		if ep, isPat := e.(*msl.ObjectPattern); isPat {
			collectRestVars(ep, out)
		}
	}
	for _, rc := range sp.RestConstraints {
		collectRestVars(rc, out)
	}
}

// fusedViewSource is the source name the fused-view strategy places the
// fetched view under.
const fusedViewSource = "_fusedview"

// fusedViewRules returns the two rules of the fused-view strategy: fetch
// reads every view object through normal expansion (a bare label-variable
// pattern matches every rule head, and the plan's FuseNode fuses and
// deduplicates), and rewritten is q with its mediator conjuncts reading
// the fetched view under fusedViewSource. Pass-through source conjuncts
// and predicates of q still work: rewritten is planned over the live
// sources plus the view, so conditions see the fused objects.
func (m *Mediator) fusedViewRules(q *Rule) (fetch, rewritten *Rule) {
	fetch = &msl.Rule{
		Head: []msl.HeadTerm{&msl.Var{Name: "V"}},
		Tail: []msl.Conjunct{&msl.PatternConjunct{
			ObjVar:  &msl.Var{Name: "V"},
			Pattern: &msl.ObjectPattern{Label: &msl.Var{Name: "FetchLabel"}},
			Source:  m.name,
		}},
	}
	rewritten = q.Clone()
	for _, c := range rewritten.Tail {
		if pc, ok := c.(*msl.PatternConjunct); ok && (pc.Source == "" || pc.Source == m.name) {
			pc.Source = fusedViewSource
		}
	}
	return fetch, rewritten
}

// QueryString parses and answers an MSL query given as text. It returns
// the answer's objects alone: under a skipping policy they may be a lower
// bound, which QueryPolicy reports.
func (m *Mediator) QueryString(q string) ([]*Object, error) {
	return m.QueryStringContext(context.Background(), q)
}

// QueryStringContext is QueryString bounded by ctx (see QueryContext).
func (m *Mediator) QueryStringContext(ctx context.Context, q string) ([]*Object, error) {
	rule, err := msl.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return m.objects(ctx, rule)
}

// objects answers q under the mediator's policy and returns the objects
// alone — the end-user forms' answer (QueryString, QueryLorel).
func (m *Mediator) objects(ctx context.Context, q *Rule) ([]*Object, error) {
	res, err := m.QueryPolicy(ctx, q, m.policy)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// QueryBatch implements BatchQuerier by answering the queries one by one
// in-process — a mediator's exchanges with its own sources already batch,
// so the interface exists for symmetry when mediators are layered.
func (m *Mediator) QueryBatch(qs []*Rule) ([][]*Object, error) {
	return m.QueryBatchContext(context.Background(), qs)
}

// QueryBatchContext implements ContextBatchQuerier (see QueryBatch). A
// degraded query keeps its answer: the batch returns every answer with
// one *wrapper.PartialError listing the failures of all its queries.
func (m *Mediator) QueryBatchContext(ctx context.Context, qs []*Rule) ([][]*Object, error) {
	return wrapper.EachQueryContext(ctx, m, qs)
}

// QueryLorel answers a LOREL-style end-user query ("select … from …
// where …") by translating it to MSL. From-items without an explicit
// source ("from person X") range over this mediator's own view.
// Aggregate select lists (count, sum, min, max, avg) fold the base
// query's distinct bindings into a single <result {…}> object.
func (m *Mediator) QueryLorel(q string) ([]*Object, error) {
	return m.QueryLorelContext(context.Background(), q)
}

// QueryLorelContext is QueryLorel bounded by ctx (see QueryContext).
func (m *Mediator) QueryLorelContext(ctx context.Context, q string) ([]*Object, error) {
	translated, err := lorel.TranslateQuery(q)
	if err != nil {
		return nil, err
	}
	if translated.Rule != nil {
		return m.objects(ctx, translated.Rule)
	}
	result, err := translated.Fold(func(r *Rule) ([]*Object, error) {
		return m.objects(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	oem.AssignOIDs(result, m.gen)
	return []*Object{result}, nil
}

// Execute runs a previously-built physical plan through the datamerge
// engine and returns the constructed result objects.
func (m *Mediator) Execute(p *plan.Plan) ([]*Object, error) {
	return m.ExecuteContext(context.Background(), p)
}

// ExecuteContext is Execute bounded by ctx (see QueryContext for the
// cancellation guarantees).
func (m *Mediator) ExecuteContext(ctx context.Context, p *plan.Plan) ([]*Object, error) {
	var qt *trace.QueryTrace
	if m.trace != nil {
		qt = trace.New("")
		defer m.writeFlow(qt)
	}
	res, err := m.execute(ctx, p.Root, nil, m.policy, qt)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// writeFlow writes qt's Figure 3.6 flow to Config.Trace in one piece.
// Rendering happens outside traceMu and only the write holds it: a
// Config.Trace writer need not be safe for concurrent use, concurrent
// queries' blocks never interleave, and no query waits on another's
// execution.
func (m *Mediator) writeFlow(qt *trace.QueryTrace) {
	var flow strings.Builder
	qt.RenderFlow(&flow)
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	io.WriteString(m.trace, flow.String())
}

// execute runs a physical graph over the mediator's sources and the
// extents exts binds, under ctx and policy, returning the answer with its
// degradation record; it is the one place the facade builds an engine
// executor. A non-nil qt receives the run's structured execution record.
func (m *Mediator) execute(ctx context.Context, root engine.Node, exts engine.Extents, policy ExecPolicy, qt *trace.QueryTrace) (*QueryResult, error) {
	ex := &engine.Executor{
		Sources:     m.sources,
		Extents:     exts,
		Extfn:       m.extfns,
		IDGen:       m.gen,
		Stats:       m.stats,
		Recorder:    qt,
		Parallelism: m.parallel,
		QueryBatch:  m.batch,
		Policy:      policy,
	}
	return ex.RunResult(ctx, root)
}
