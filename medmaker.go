// Package medmaker is a Go implementation of MedMaker, the TSIMMIS
// mediation system of Papakonstantinou, Garcia-Molina, and Ullman (ICDE
// 1996): declaratively-specified mediators that provide integrated views
// over heterogeneous information sources.
//
// Sources export data in the Object Exchange Model (OEM) through wrappers;
// a mediator is specified in the Mediator Specification Language (MSL) as
// a set of rules defining virtual integrated objects; and queries — also
// MSL — are answered by the Mediator Specification Interpreter (MSI):
// view expansion and algebraic optimization, cost-based planning into a
// physical datamerge graph, and execution by the datamerge engine.
//
// A minimal mediator over one source:
//
//	src, _ := medmaker.NewOEMSourceFromText("people", `
//	    <person, set, {<name, 'Ann'>, <dept, 'CS'>}>`)
//	med, _ := medmaker.New(medmaker.Config{
//	    Name:    "med",
//	    Spec:    `<staff {<name N>}> :- <person {<name N> <dept 'CS'>}>@people.`,
//	    Sources: []medmaker.Source{src},
//	})
//	objs, _ := med.QueryString(`X :- X:<staff {<name N>}>@med.`)
//
// Mediators implement the Source interface themselves, so views can be
// layered: a mediator integrates wrappers and other mediators alike, as in
// the TSIMMIS architecture of the paper's Figure 1.1.
package medmaker

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"medmaker/internal/engine"
	"medmaker/internal/extfn"
	"medmaker/internal/lorel"
	"medmaker/internal/matview"
	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/plan"
	"medmaker/internal/trace"
	"medmaker/internal/veao"
	"medmaker/internal/wrapper"
)

// Re-exported core types. The aliases make the internal implementations
// part of the public API without duplication.
type (
	// Object is an OEM object <oid, label, type, value>.
	Object = oem.Object
	// OID is an OEM object identifier.
	OID = oem.OID
	// Value is an OEM value: an atomic value or a set of subobjects.
	Value = oem.Value
	// Rule is a parsed MSL rule (specification rule or query).
	Rule = msl.Rule
	// SpecProgram is a parsed MSL text: rules plus external declarations.
	SpecProgram = msl.Program
	// Source is anything a mediator can query: a wrapper or another
	// mediator.
	Source = wrapper.Source
	// Capabilities advertises the query features a source supports.
	Capabilities = wrapper.Capabilities
	// Func is an external function implementation (see the MSL "by"
	// declarations).
	Func = extfn.Func
	// PlanOptions control the cost-based optimizer.
	PlanOptions = plan.Options
	// OrderMode selects the optimizer's join-order strategy.
	OrderMode = plan.OrderMode
	// ExpandOptions control view expansion.
	ExpandOptions = veao.Options
	// Stats is the optimizer's statistics store, learned from past
	// queries.
	Stats = engine.Stats
	// CacheOptions configure the per-source answer cache (Config.Cache).
	CacheOptions = wrapper.CacheOptions
	// CacheStats is a snapshot of one source cache's counters.
	CacheStats = wrapper.CacheStats
	// PlanCacheOptions configure the compiled-plan cache (Config.PlanCache).
	PlanCacheOptions = plan.CacheOptions
	// PlanCacheStats is a snapshot of the plan cache's counters.
	PlanCacheStats = plan.CacheStats
	// BatchQuerier is the optional Source extension for answering several
	// queries in one exchange; batch-capable sources make the engine's
	// parameterized-query batching collapse round-trips.
	BatchQuerier = wrapper.BatchQuerier
	// ContextSource is the optional Source extension for queries bounded
	// by a context.Context: cancellation and deadlines propagate into the
	// source instead of merely abandoning its answer. All bundled sources
	// (including mediators themselves) implement it.
	ContextSource = wrapper.ContextSource
	// ContextBatchQuerier combines ContextSource and BatchQuerier: a whole
	// batch in one exchange, bounded by a context.
	ContextBatchQuerier = wrapper.ContextBatchQuerier
	// ExecPolicy bounds and degrades per-source work during execution: a
	// per-exchange timeout and the reaction to source failures. The zero
	// value is the paper's all-or-nothing behavior.
	ExecPolicy = engine.Policy
	// ErrorMode selects an ExecPolicy's reaction to a failing source.
	ErrorMode = engine.ErrorMode
	// SourceError is one recorded source failure in a degraded answer.
	SourceError = engine.SourceError
	// QueryResult is a query answer together with its degradation record:
	// the objects, whether any source's contribution is missing, and the
	// per-source failures behind it.
	QueryResult = engine.Result
	// QueryTrace is the structured execution record of one query: phase
	// timings (parse, expand, plan, execute), per-operator row counts and
	// wall time, and per-source exchange latency. Produced by QueryTraced
	// and ExplainAnalyze.
	QueryTrace = trace.QueryTrace
	// TraceSummary is a QueryTrace snapshot: plain data, JSON-friendly.
	TraceSummary = trace.Summary
	// MetricsRegistry is a process-wide registry of named counters and
	// latency histograms. The engine reports every source exchange into
	// DefaultMetrics(), and remote servers expose their registry for
	// scraping (see the remote package's Client.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's values.
	MetricsSnapshot = metrics.Snapshot
	// MatViewOptions configure the materialized-view manager
	// (Config.Materialize): which view heads to materialize and the
	// freshness policy.
	MatViewOptions = matview.Options
	// MatView selects one view head for materialization, with an
	// optional narrowing pattern and a TTL.
	MatView = matview.View
	// MatViewStats is a snapshot of the materialized-view manager's
	// counters: hits, misses, staleness fallbacks, refreshes.
	MatViewStats = matview.Stats
)

// DefaultMetrics returns the process-wide metrics registry.
func DefaultMetrics() *MetricsRegistry { return metrics.Default() }

// ExecPolicy.OnSourceError values.
const (
	// OnSourceErrorFail aborts the query on the first source failure (the
	// default).
	OnSourceErrorFail = engine.OnErrorFail
	// OnSourceErrorSkip drops a failing source for the rest of the query
	// and flags the answer Incomplete.
	OnSourceErrorSkip = engine.OnErrorSkip
	// OnSourceErrorPartial drops only the failing exchange, retrying the
	// source on later exchanges, and flags the answer Incomplete.
	OnSourceErrorPartial = engine.OnErrorPartial
)

// DefaultQueryBatch is the parameterized-query batch size used when
// Config.QueryBatch is zero.
const DefaultQueryBatch = 16

// Join-order strategies for PlanOptions.Order.
const (
	// OrderHeuristic places the patterns with the most conditions
	// outermost (the paper's heuristic).
	OrderHeuristic = plan.OrderHeuristic
	// OrderStats orders by estimated result sizes learned from past
	// queries.
	OrderStats = plan.OrderStats
	// OrderAsWritten keeps the rule's textual order.
	OrderAsWritten = plan.OrderAsWritten
	// OrderReversed inverts the heuristic (worst-case baseline).
	OrderReversed = plan.OrderReversed
	// OrderAdaptive orders by the bind-join cost model over execution
	// feedback: condition-aware cardinalities, learned join
	// selectivities, and observed source latencies. Falls back to the
	// heuristic until the store has observations.
	OrderAdaptive = plan.OrderAdaptive
)

// DefaultPlanOptions returns the optimizer defaults: heuristic order,
// condition pushdown, parameterized queries, duplicate elimination.
func DefaultPlanOptions() PlanOptions { return plan.DefaultOptions() }

// ParseOEM parses objects in the textual OEM format.
func ParseOEM(text string) ([]*Object, error) { return oem.Parse(text) }

// FormatOEM renders objects in the flat textual OEM format of the paper's
// figures.
func FormatOEM(objs ...*Object) string { return oem.Format(objs...) }

// ParseQuery parses an MSL query (a single rule).
func ParseQuery(text string) (*Rule, error) { return msl.ParseQuery(text) }

// TranslateLorel translates a LOREL-style end-user query (footnote 4 of
// the paper: "select … from … where …") into the equivalent MSL rule.
func TranslateLorel(text string) (*Rule, error) { return lorel.Translate(text) }

// ParseSpec parses an MSL mediator specification.
func ParseSpec(text string) (*SpecProgram, error) { return msl.ParseProgram(text) }

// Config describes a mediator to New.
type Config struct {
	// Name is the mediator's source name (what queries write after "@").
	Name string
	// Spec is the MSL specification text; SpecProgram takes precedence
	// when non-nil.
	Spec string
	// SpecProgram is a pre-parsed specification.
	SpecProgram *SpecProgram
	// Sources are the wrappers and mediators the specification's rules
	// refer to.
	Sources []Source
	// Functions registers external functions by name, in addition to the
	// standard library (name_to_lnfn, lnfn_to_name, normalize_author, …).
	Functions map[string]Func
	// Plan overrides the optimizer options; zero value means defaults
	// (heuristic order, pushdown, parameterized queries, dup-elim).
	Plan *PlanOptions
	// Expand overrides view-expansion options.
	Expand ExpandOptions
	// Trace, when set, receives Figure 3.6's flow for every query: each
	// operator of the physical graph and the binding table leaving it,
	// rendered from the query's QueryTrace and written in one piece when
	// the query ends, even on error. It does not force sequential
	// execution. Materialized-view builds and deltas belong to no query
	// and print nothing.
	Trace io.Writer
	// Parallelism is the engine's worker count: independent subtrees
	// evaluate concurrently, parameterized-query tuples fan across that
	// many workers, and local operators (extraction, joins, dedup,
	// external predicates) split their inputs into morsels executed on a
	// pool of that size. Sources must tolerate concurrent queries (all
	// bundled wrappers do) and external functions must be pure. Results
	// are identical to sequential execution, including order. 0 (the
	// default) means runtime.GOMAXPROCS(0); use 1 (or any value below 1)
	// for strictly sequential execution.
	Parallelism int
	// QueryBatch bounds how many queries a query node sends per exchange
	// to a source that answers a batch in one call (BatchQuerier); any
	// other source gets one query per exchange. Above 1, the node sends
	// one query per distinct instantiation of its input tuples. 0 means
	// DefaultQueryBatch; 1 restores the paper's one query per input
	// tuple.
	QueryBatch int
	// Pipeline is kept so that existing configurations still compile.
	//
	// Deprecated: ignored; the engine has one executor.
	Pipeline bool
	// Cache, when non-nil, puts an LRU answer cache in front of every
	// source, keyed by normalized query text, with the given size and TTL.
	// Each query's cache hits and misses reach the statistics store with
	// the rest of what the query observed, when it ends, and feed the
	// optimizer's cost model. Use Mediator.InvalidateCaches when a source
	// changes.
	Cache *CacheOptions
	// PlanCache, when non-nil, caches compiled query plans (the expanded
	// program plus the physical datamerge graph) in a bounded LRU keyed by
	// the query's canonical text: variables alpha-renamed and conjunct
	// order canonicalized, so the repeated query templates a serving tier
	// sees compile once and then skip parse→expand→plan entirely.
	// Compilation is singleflighted — N cold clients asking the same query
	// cost one compile — and cached plans are dropped when AddSource
	// replaces a source or Invalidate names a dependency. Off (nil) by
	// default: replanning every call lets the optimizer react to freshly
	// learned statistics, which some workloads (and benchmarks) rely on.
	PlanCache *PlanCacheOptions
	// Materialize, when non-nil, enables the materialized-view manager:
	// the listed view heads are materialized into local extents (built by
	// running the live pipeline once, on first demand or via Refresh), and
	// queries whose mediator conjuncts are contained in a fresh extent are
	// served from it with zero source exchanges. Everything else — no
	// covering view, TTL expiry, invalidation, a failed build — falls back
	// to live expansion transparently. See Mediator.Refresh and
	// Mediator.Invalidate for freshness control.
	Materialize *MatViewOptions
	// Policy is the default execution policy for every query: a per-source
	// exchange timeout and the failure reaction (fail the query, skip the
	// source, or skip the exchange). QueryPolicy overrides it per call.
	// The zero value reproduces the paper's all-or-nothing behavior.
	Policy ExecPolicy
}

// Mediator is a declaratively-specified integrated view over a set of
// sources. It is safe for concurrent queries, and is itself a Source.
type Mediator struct {
	name     string
	spec     *msl.Program
	sources  *wrapper.Registry
	extfns   *extfn.Table
	expander *veao.Expander
	planOpts plan.Options
	stats    *engine.Stats
	gen      *oem.IDGen
	trace    io.Writer
	parallel int
	batch    int
	policy   ExecPolicy
	cacheCfg *wrapper.CacheOptions
	cacheMu  sync.Mutex
	caches   []*wrapper.Cache
	plans    *plan.Cache
	replanWG sync.WaitGroup // in-flight background plan revalidations
	matviews *matview.Manager
	// fused marks specifications whose heads carry skolem object-ids:
	// queries then evaluate against the materialized, fused view (see
	// Query), because a condition may only hold on the fusion of
	// fragments produced by different rules.
	fused bool

	// notifyMu guards listeners, the callbacks registered through
	// OnInvalidate by consumers holding state derived from this mediator
	// (a tier-1 mediator this one is registered in as a source).
	notifyMu  sync.Mutex
	listeners []func()

	traceMu sync.Mutex // serializes writes of whole flow blocks to trace
}

var (
	_ Source                       = (*Mediator)(nil)
	_ ContextSource                = (*Mediator)(nil)
	_ BatchQuerier                 = (*Mediator)(nil)
	_ ContextBatchQuerier          = (*Mediator)(nil)
	_ wrapper.InvalidationNotifier = (*Mediator)(nil)
)

// New builds a mediator from its specification, resolving external
// declarations against the standard library plus cfg.Functions.
func New(cfg Config) (*Mediator, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("medmaker: mediator needs a name")
	}
	spec := cfg.SpecProgram
	if spec == nil {
		parsed, err := msl.ParseProgram(cfg.Spec)
		if err != nil {
			return nil, err
		}
		spec = parsed
	}
	if len(spec.Rules) == 0 {
		return nil, fmt.Errorf("medmaker: specification of %q has no rules", cfg.Name)
	}
	reg := extfn.NewRegistry()
	for name, fn := range cfg.Functions {
		reg.Register(name, fn)
	}
	table, err := extfn.NewTable(reg, spec.Decls)
	if err != nil {
		return nil, err
	}
	par := cfg.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	opts := plan.DefaultOptions()
	if cfg.Plan != nil {
		opts = *cfg.Plan
	}
	if opts.Parallelism == 0 {
		// Let the optimizer's local-cost model see the executor it plans
		// for (explicit PlanOptions may still pin a different degree).
		opts.Parallelism = par
	}
	batch := cfg.QueryBatch
	if batch == 0 {
		batch = DefaultQueryBatch
	}
	m := &Mediator{
		name:     cfg.Name,
		spec:     spec,
		sources:  wrapper.NewRegistry(),
		extfns:   table,
		expander: veao.NewExpander(spec, cfg.Name, cfg.Expand),
		planOpts: opts,
		stats:    engine.NewStats(),
		gen:      oem.NewIDGen(cfg.Name),
		trace:    cfg.Trace,
		parallel: par,
		batch:    batch,
		policy:   cfg.Policy,
		fused:    plan.HasSemanticOIDs(spec.Rules),
	}
	if cfg.Cache != nil {
		cacheCfg := *cfg.Cache
		m.cacheCfg = &cacheCfg
	}
	if cfg.PlanCache != nil {
		// Before the AddSource loop: AddSource invalidates plans by name.
		m.plans = plan.NewCache(*cfg.PlanCache)
	}
	for _, src := range cfg.Sources {
		m.AddSource(src)
	}
	if err := validateSpec(cfg.Name, spec, table, m.sources); err != nil {
		return nil, err
	}
	if cfg.Materialize != nil {
		mgr, err := matview.NewManager(cfg.Name, spec, *cfg.Materialize, m.buildView)
		if err != nil {
			return nil, err
		}
		mgr.SetDeltaFunc(m.buildViewDelta)
		m.matviews = mgr
	}
	return m, nil
}

// validateSpec rejects specifications with statically-detectable faults:
// unsafe rules (head variables never bound in the tail), undeclared
// predicates, and references to sources that are neither registered nor
// the mediator itself.
func validateSpec(name string, spec *msl.Program, table *extfn.Table, sources *wrapper.Registry) error {
	for ri, r := range spec.Rules {
		tailVars := map[string]bool{}
		for _, c := range r.Tail {
			// Negated conjuncts bind nothing, so they cannot make a head
			// variable safe.
			if pc, ok := c.(*msl.PatternConjunct); ok && pc.Negated {
				continue
			}
			tmp := &msl.Rule{Tail: []msl.Conjunct{c}}
			for _, v := range tmp.Vars() {
				tailVars[v] = true
			}
		}
		for _, hv := range r.HeadVars() {
			if !tailVars[hv] {
				return fmt.Errorf("medmaker: %s: rule %d is unsafe: head variable %s never appears in the tail",
					name, ri+1, hv)
			}
		}
		for _, c := range r.Tail {
			switch t := c.(type) {
			case *msl.PredicateConjunct:
				if !table.Knows(t.Name) {
					return fmt.Errorf("medmaker: %s: rule %d uses undeclared predicate %q",
						name, ri+1, t.Name)
				}
			case *msl.PatternConjunct:
				if t.Source == "" || t.Source == name {
					continue // a reference to this mediator's own view
				}
				if _, ok := sources.Lookup(t.Source); !ok {
					return fmt.Errorf("medmaker: %s: rule %d references unknown source %q (registered: %v)",
						name, ri+1, t.Source, sources.Names())
				}
			}
		}
	}
	return nil
}

// Name implements Source.
func (m *Mediator) Name() string { return m.name }

// Capabilities implements Source. Mediators evaluate conditions and rest
// constraints by pushing them through view expansion; wildcard searches
// over virtual objects are not supported (query the sources directly).
func (m *Mediator) Capabilities() Capabilities {
	return Capabilities{ValueConditions: true, RestConstraints: true, Wildcards: false, MultiPattern: true}
}

// AddSource registers or replaces a source at runtime. Mediators serve
// autonomous, changing environments: when a source is upgraded or moves
// (e.g. from in-process to remote), swap it in under the same name and
// the unchanged specification keeps working. Queries already executing
// finish against the source they resolved. With Config.Cache set the
// source is registered behind a fresh answer cache.
func (m *Mediator) AddSource(src Source) {
	// Subscribe to the raw source (before any cache wrapping) so a
	// source that reports invalidation — a mediator serving a lower tier,
	// a partitioned source relaying its members — drops this mediator's
	// derived state: its answer cache for that source, plan-cache entries
	// and materialized views depending on it. This is what keeps a
	// two-tier deployment's tier-1 honest when Invalidate is called on
	// the tier-2 mediator.
	if notifier, ok := src.(wrapper.InvalidationNotifier); ok {
		name := src.Name()
		notifier.OnInvalidate(func() { m.Invalidate(name) })
	}
	// A change feed is the finer-grained channel: the source describes
	// each mutation, so instead of dropping everything derived from it,
	// the mediator drops only its answer cache and delta-maintains the
	// materialized views that depend on it. Every bundled mutable source
	// (OEM store, relational, record store, partitions thereof) notifies
	// here; no bundled source implements both channels for the same
	// mutation, so the two subscriptions never double-fire.
	if notifier, ok := src.(wrapper.Notifier); ok {
		notifier.OnChange(m.applyDelta)
	}
	if m.cacheCfg != nil {
		cache := wrapper.NewCache(src, *m.cacheCfg)
		m.cacheMu.Lock()
		m.caches = append(m.caches, cache)
		m.cacheMu.Unlock()
		src = cache
	}
	m.sources.Add(src)
	if m.plans != nil {
		// A replacement may advertise different capabilities; a cached
		// plan that pushed conditions into the old source would be wrong.
		m.plans.Invalidate(src.Name())
	}
}
