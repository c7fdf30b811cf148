// Package matview is MedMaker's materialized-view manager: the serving
// layer between the virtual view system and the datamerge executor.
//
// The MSI treats every mediator view as virtual — each query re-expands
// the specification and re-executes a datamerge graph against the
// sources. For repeated queries the dominant cost is the source
// exchanges, so matview materializes selected view heads into local
// extents (built by running the ordinary pipeline once) and answers
// later queries from them when every mediator conjunct of the query is
// contained in a materialized view head (veao.Covers): the extent then
// holds all candidate objects, and evaluating the query over it is
// answer-preserving while performing zero source exchanges. Serving has
// two steps: Rewrite, the pure covering check, and Serve, which reads,
// builds and counts. An extent is the slice of objects the build
// answered, scanned in place by the caller: nothing here indexes or
// copies them.
//
// Freshness is managed per view: a TTL ages extents out, Invalidate
// drops them by view label or by underlying source name, and a stale
// extent is rebuilt in the background — singleflighted, so a thundering
// herd of queries costs one rebuild — while queries fall back to live
// expansion until the rebuild lands. Every miss, for whatever reason, is
// transparently answered live; materialization is purely an accelerator.
package matview

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medmaker/internal/metrics"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/veao"
)

// extentPrefix namespaces the source names extents are registered under,
// keeping them out of the way of real sources.
const extentPrefix = "_matview."

// View selects one view head for materialization.
type View struct {
	// Label is the view's head label ("cs_person"); queries on this label
	// are candidates for extent answering.
	Label string
	// Pattern optionally narrows what is materialized, as an MSL object
	// pattern ("<cs_person {<dept 'CS'>}>"). Its label must equal Label.
	// Empty materializes every object of the view: "<Label S>".
	Pattern string
	// TTL ages the extent out; once exceeded, queries fall back to live
	// expansion and a background rebuild is started. 0 means no expiry
	// (explicit Invalidate/Refresh only).
	TTL time.Duration
}

// DefaultRecoverInterval is the minimum spacing between background
// re-refresh attempts of an extent that was built Incomplete, used when
// Options.RecoverInterval is zero.
const DefaultRecoverInterval = time.Second

// Options configure a Manager (medmaker.Config.Materialize).
type Options struct {
	// Views lists the view heads to materialize.
	Views []View
	// Clock overrides the time source for TTL checks (tests); nil means
	// time.Now.
	Clock func() time.Time
	// Metrics receives matview.* counters and the refresh-latency
	// histogram; nil means metrics.Default().
	Metrics *metrics.Registry
	// RecoverInterval bounds how often a fresh-but-Incomplete extent —
	// one built while a source was degraded — retries a background
	// rebuild so it does not stay Incomplete forever once the source
	// recovers. 0 means DefaultRecoverInterval; negative disables
	// recovery refreshes.
	RecoverInterval time.Duration
}

// BuildFunc materializes one extent: it answers the fetch query through
// the live pipeline, returning the view's objects and whether the answer
// was degraded (Incomplete).
type BuildFunc func(ctx context.Context, fetch *msl.Rule) ([]*oem.Object, bool, error)

// DeltaFunc evaluates the incremental effect of a source mutation on one
// view: given the view's fetch query, the mutated source's name, and the
// objects the mutation inserted, it returns the view objects the
// insertion adds. The source itself has already been mutated, so the
// implementation evaluates the fetch with the mutated source replaced by
// an in-memory extent of just the inserted objects, every other source
// live — semi-naive evaluation's delta rule. incomplete reports a
// degraded evaluation; ok=false reports that the view's specification is
// not delta-evaluable for this source (non-monotone rules, a source
// joined with itself) and the caller must fall back to a full rebuild.
type DeltaFunc func(ctx context.Context, fetch *msl.Rule, source string, inserted []*oem.Object) (objs []*oem.Object, incomplete, ok bool, err error)

// Stats is a snapshot of a manager's counters. Hits are queries served
// from extents; Misses are queries no fresh extent could answer (no
// covering view, or build failure); Stale counts misses caused
// specifically by TTL expiry or invalidation, which also trigger a
// background rebuild. Refreshes and RefreshErrors count completed
// extent builds. Deltas counts source mutations applied incrementally
// into an extent; DeltaFallbacks counts mutations that had to mark the
// extent stale for a full rebuild instead (deletes, incomplete extents,
// non-delta-evaluable specs, races).
type Stats struct {
	Hits, Misses, Stale, Refreshes, RefreshErrors int64
	Deltas, DeltaFallbacks                        int64
}

// Outcome classifies one Serve attempt.
type Outcome int

const (
	// Miss: the query is not answerable from any fresh extent; answer it
	// live.
	Miss Outcome = iota
	// Stale: a covering extent exists but aged out or was invalidated; a
	// background rebuild was started, answer this query live.
	Stale
	// Hit: the returned Served answers the query from extents alone.
	Hit
)

// String names the outcome for traces and logs.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// Rewrite is a query rewritten to read materialized extents: each of its
// mediator conjuncts retargeted to the extent source of the view
// covering it. Making one reads, builds and counts nothing.
type Rewrite struct {
	Query *msl.Rule
	// Views are the labels of the covering views, in first-use order.
	Views []string
}

// Served is what a hit binds for the rewritten query: the extents it
// reads and the carried-over degradation flag.
type Served struct {
	// Extents holds each view's objects under its extent source name
	// (shared with the manager: do not mutate them).
	Extents map[string][]*oem.Object
	// Built reports that at least one extent was materialized
	// synchronously for this query (a cold hit).
	Built bool
	// Incomplete carries degradation from materialization time: extents
	// built while a source was down are lower bounds, and so is every
	// answer served from them.
	Incomplete bool
}

// Manager owns the materialized extents of one mediator. It is safe for
// concurrent use.
type Manager struct {
	mediator string
	build    BuildFunc
	delta    DeltaFunc // nil: every mutation falls back to rebuild
	now      func() time.Time
	reg      *metrics.Registry
	views    map[string]*matView // by label
	labels   []string            // sorted
	recover  time.Duration       // <0: disabled
	wg       sync.WaitGroup      // background rebuilds in flight

	hits, misses, stale    atomic.Int64
	refreshes, refreshErrs atomic.Int64
	deltas, deltaFallbacks atomic.Int64
}

// matView is one view's configuration and current extent.
type matView struct {
	label   string
	pattern *msl.ObjectPattern
	ttl     time.Duration
	// deps are the source names this view's rules transitively read;
	// Invalidate(source) marks dependent views stale. allSources makes
	// the view depend on everything (a rule's source could not be
	// determined statically).
	deps       map[string]bool
	allSources bool

	mu         sync.Mutex
	objs       []*oem.Object
	incomplete bool
	builtAt    time.Time // zero until the first build installs an extent
	stale      bool
	building   *buildFlight
	// gen counts mutations applied (or attempted) against this view; a
	// rebuild that overlapped a mutation sees gen move and installs its
	// extent already stale, since its build may predate the mutation.
	gen uint64
	// dedup holds the structural fingerprints of every object in the
	// extent, so delta applications drop answers the extent already has
	// (the delta rule re-derives answers joining new data with new data).
	dedup *oem.Deduper
	// lastRecover spaces the background re-refresh attempts of an extent
	// stuck Incomplete.
	lastRecover time.Time
}

// buildFlight is one in-progress extent build; concurrent demands join
// it instead of rebuilding (singleflight).
type buildFlight struct {
	done chan struct{}
	err  error
}

// NewManager prepares materialization of the given views for the named
// mediator, whose specification is spec. build is invoked — possibly
// concurrently — to materialize extents through the live pipeline.
func NewManager(mediator string, spec *msl.Program, opts Options, build BuildFunc) (*Manager, error) {
	if len(opts.Views) == 0 {
		return nil, fmt.Errorf("matview: no views configured")
	}
	now := opts.Clock
	if now == nil {
		now = time.Now
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	rec := opts.RecoverInterval
	if rec == 0 {
		rec = DefaultRecoverInterval
	}
	m := &Manager{
		mediator: mediator,
		build:    build,
		now:      now,
		reg:      reg,
		views:    make(map[string]*matView, len(opts.Views)),
		recover:  rec,
	}
	for _, v := range opts.Views {
		if v.Label == "" {
			return nil, fmt.Errorf("matview: view needs a label")
		}
		if _, dup := m.views[v.Label]; dup {
			return nil, fmt.Errorf("matview: view %q configured twice", v.Label)
		}
		pattern := &msl.ObjectPattern{
			Label: msl.NewConst(v.Label),
			Value: &msl.Var{Name: "MatViewValue"},
		}
		if v.Pattern != "" {
			parsed, err := parsePattern(v.Pattern)
			if err != nil {
				return nil, fmt.Errorf("matview: view %q: %w", v.Label, err)
			}
			if got := parsed.LabelName(); got != v.Label {
				return nil, fmt.Errorf("matview: view %q: pattern label is %q", v.Label, got)
			}
			pattern = parsed
		}
		mv := &matView{label: v.Label, pattern: pattern, ttl: v.TTL}
		mv.deps, mv.allSources = sourceDeps(spec, mediator, v.Label)
		m.views[v.Label] = mv
		m.labels = append(m.labels, v.Label)
	}
	sort.Strings(m.labels)
	return m, nil
}

// parsePattern parses a standalone MSL object pattern by wrapping it in
// a one-conjunct query.
func parsePattern(text string) (*msl.ObjectPattern, error) {
	r, err := msl.ParseQuery("MatViewX :- MatViewX:" + text + "@matview.")
	if err != nil {
		return nil, err
	}
	return r.Tail[0].(*msl.PatternConjunct).Pattern, nil
}

// sourceDeps computes the source names the rules deriving label
// transitively read, following view-over-view references through the
// mediator's own rules. allSources is reported when a dependency could
// not be pinned down (a variable-labelled head or conjunct), making the
// view conservatively depend on every source.
func sourceDeps(spec *msl.Program, mediator, label string) (deps map[string]bool, allSources bool) {
	deps = make(map[string]bool)
	pendingLabels := []string{label}
	seen := map[string]bool{label: true}
	for len(pendingLabels) > 0 {
		l := pendingLabels[0]
		pendingLabels = pendingLabels[1:]
		for _, r := range spec.Rules {
			if !derives(r, l) {
				continue
			}
			for _, c := range r.Tail {
				pc, ok := c.(*msl.PatternConjunct)
				if !ok {
					continue
				}
				if pc.Source != "" && pc.Source != mediator {
					deps[pc.Source] = true
					continue
				}
				// A reference to the mediator's own view: recurse on its
				// label; a variable label could be any view.
				sub := pc.Pattern.LabelName()
				if sub == "" {
					return deps, true
				}
				if !seen[sub] {
					seen[sub] = true
					pendingLabels = append(pendingLabels, sub)
				}
			}
		}
	}
	return deps, false
}

// derives reports whether rule r's head can construct an object labelled
// l. A head whose label is not a constant can derive anything.
func derives(r *msl.Rule, l string) bool {
	for _, h := range r.Head {
		op, ok := h.(*msl.ObjectPattern)
		if !ok {
			return true // bare variable head: label unknown
		}
		name := op.LabelName()
		if name == "" || name == l {
			return true
		}
	}
	return false
}

// ExtentSource returns the source name the named view's extent is
// registered under in served plans.
func ExtentSource(label string) string { return extentPrefix + label }

// Labels returns the configured view labels, sorted.
func (m *Manager) Labels() []string { return append([]string(nil), m.labels...) }

// SetDeltaFunc installs the incremental evaluator ApplyDelta uses for
// insert-only mutations. Call it once, before the manager sees queries
// or deltas; with no delta func every mutation falls back to a rebuild.
func (m *Manager) SetDeltaFunc(fn DeltaFunc) { m.delta = fn }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:           m.hits.Load(),
		Misses:         m.misses.Load(),
		Stale:          m.stale.Load(),
		Refreshes:      m.refreshes.Load(),
		RefreshErrors:  m.refreshErrs.Load(),
		Deltas:         m.deltas.Load(),
		DeltaFallbacks: m.deltaFallbacks.Load(),
	}
}

// Wait blocks until background rebuilds started so far have finished —
// a test and shutdown hook.
func (m *Manager) Wait() { m.wg.Wait() }

// Rewrite is the covering check: when every mediator conjunct of q is
// contained in a configured view head, it returns q rewritten over those
// views' extents; otherwise nil. It is pure — no extent is read, built or
// counted — so Explain may call it.
func (m *Manager) Rewrite(q *msl.Rule) *Rewrite {
	rw := &Rewrite{Query: q.Clone()}
	for _, c := range rw.Query.Tail {
		pc, ok := c.(*msl.PatternConjunct)
		if !ok {
			continue // predicates evaluate mediator-side either way
		}
		if pc.Source != "" && pc.Source != m.mediator {
			continue // a direct source conjunct passes through unchanged
		}
		v := m.covering(pc.Pattern)
		if v == nil {
			return nil
		}
		pc.Source = ExtentSource(v.label)
		if !slices.Contains(rw.Views, v.label) {
			rw.Views = append(rw.Views, v.label)
		}
	}
	if len(rw.Views) == 0 {
		return nil
	}
	return rw
}

// Serve decides whether rw — Rewrite's result, nil when nothing covers
// the query — can be answered from fresh extents now, and counts the
// outcome. On Hit the returned Served binds the extents rw.Query reads;
// on Miss or Stale the caller answers live (Stale additionally started a
// background rebuild). Absent extents of covering views are built
// synchronously — the cold path — so the first query pays the
// materialization and later ones enjoy it. An error is returned only for
// a failed synchronous build; the caller should fall back to live
// expansion unless the error is the context's own.
func (m *Manager) Serve(ctx context.Context, rw *Rewrite) (*Served, Outcome, error) {
	if rw == nil {
		m.miss()
		return nil, Miss, nil
	}
	served := &Served{Extents: make(map[string][]*oem.Object, len(rw.Views))}
	for _, label := range rw.Views {
		v := m.views[label]
		objs, incomplete, fresh, built, err := m.ensure(ctx, v)
		if err != nil {
			m.miss()
			return nil, Miss, err
		}
		if !fresh {
			// Aged out or invalidated: rebuild behind this query's back
			// and let it run live.
			m.stale.Add(1)
			m.reg.Counter("matview.stale").Inc()
			m.refreshAsync(v)
			return nil, Stale, nil
		}
		served.Built = served.Built || built
		served.Incomplete = served.Incomplete || incomplete
		served.Extents[ExtentSource(v.label)] = objs
	}
	m.hits.Add(1)
	m.reg.Counter("matview.hits").Inc()
	return served, Hit, nil
}

func (m *Manager) miss() {
	m.misses.Add(1)
	m.reg.Counter("matview.misses").Inc()
}

// covering returns the configured view whose pattern subsumes p, or nil.
func (m *Manager) covering(p *msl.ObjectPattern) *matView {
	v, ok := m.views[p.LabelName()]
	if !ok || !veao.Covers(v.pattern, p) {
		return nil
	}
	return v
}

// ensure returns a consistent read of v's extent and its incomplete
// flag, building it synchronously when absent.
// fresh=false reports a present-but-expired extent (the caller decides
// what to do; ensure does not rebuild it). built=true reports that this
// call performed the synchronous build. A fresh extent that is stuck
// Incomplete additionally triggers a bounded background re-refresh, so
// recovered sources eventually clear the degradation (satisfying queries
// meanwhile keep being served, conservatively flagged Incomplete).
func (m *Manager) ensure(ctx context.Context, v *matView) (objs []*oem.Object, incomplete, fresh, built bool, err error) {
	v.mu.Lock()
	if !v.builtAt.IsZero() {
		objs, incomplete = v.objs, v.incomplete
		now := m.now()
		fresh = !v.expiredLocked(now)
		retry := fresh && incomplete && m.recover >= 0 &&
			(v.lastRecover.IsZero() || now.Sub(v.lastRecover) >= m.recover)
		if retry {
			v.lastRecover = now
		}
		v.mu.Unlock()
		if retry {
			m.reg.Counter("matview.recover").Inc()
			m.refreshAsync(v)
		}
		return objs, incomplete, fresh, false, nil
	}
	v.mu.Unlock()
	if err := m.rebuild(ctx, v); err != nil {
		return nil, false, false, false, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.objs, v.incomplete, !v.expiredLocked(m.now()), true, nil
}

// expiredLocked reports TTL expiry or explicit invalidation; v.mu held.
func (v *matView) expiredLocked(now time.Time) bool {
	if v.stale {
		return true
	}
	return v.ttl > 0 && now.Sub(v.builtAt) > v.ttl
}

// fetchRule is the query that materializes v: every object matching the
// view pattern, answered by the mediator's live pipeline.
func (v *matView) fetchRule(mediator string) *msl.Rule {
	r := &msl.Rule{
		Head: []msl.HeadTerm{&msl.Var{Name: "MatViewV"}},
		Tail: []msl.Conjunct{&msl.PatternConjunct{
			ObjVar:  &msl.Var{Name: "MatViewV"},
			Pattern: v.pattern,
			Source:  mediator,
		}},
	}
	return r.Clone() // don't share the pattern with the pipeline
}

// rebuild materializes v's extent, singleflighted: concurrent callers
// wait for the leader's build instead of each running the pipeline. The
// result — success or failure — is installed under v.mu; a failed build
// leaves any previous extent in place (stale data beats no data is the
// caller's call: the extent stays marked stale).
func (m *Manager) rebuild(ctx context.Context, v *matView) error {
	v.mu.Lock()
	if f := v.building; f != nil {
		v.mu.Unlock()
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f := &buildFlight{done: make(chan struct{})}
	v.building = f
	startGen := v.gen
	v.mu.Unlock()

	start := time.Now()
	objs, incomplete, err := m.build(ctx, v.fetchRule(m.mediator))
	m.reg.Histogram("matview.refresh_latency").Observe(time.Since(start))
	v.mu.Lock()
	if err == nil {
		dedup := oem.NewDeduper(len(objs))
		for _, o := range objs {
			dedup.Seen(o)
		}
		v.objs, v.incomplete, v.dedup = objs, incomplete, dedup
		// A mutation that raced this build may predate what the build
		// read: install the extent (it is the newest data available) but
		// keep it stale so the next demand rebuilds once more.
		v.builtAt, v.stale = m.now(), v.gen != startGen
		m.refreshes.Add(1)
		m.reg.Counter("matview.refreshes").Inc()
	} else {
		m.refreshErrs.Add(1)
		m.reg.Counter("matview.refresh_errors").Inc()
	}
	v.building = nil
	v.mu.Unlock()
	f.err = err
	close(f.done)
	return err
}

// refreshAsync starts a background rebuild of v unless one is already in
// flight. The rebuild runs detached from any query context; use Wait to
// drain in tests and shutdown paths.
func (m *Manager) refreshAsync(v *matView) {
	v.mu.Lock()
	inFlight := v.building != nil
	v.mu.Unlock()
	if inFlight {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		// The rebuild's error is already counted and, with the extent
		// still marked stale, the next query retries.
		_ = m.rebuild(context.Background(), v)
	}()
}

// Refresh synchronously rebuilds the named view's extent, or every
// configured view when label is "".
func (m *Manager) Refresh(ctx context.Context, label string) error {
	if label != "" {
		v, ok := m.views[label]
		if !ok {
			return fmt.Errorf("matview: unknown view %q", label)
		}
		return m.rebuild(ctx, v)
	}
	for _, l := range m.labels {
		if err := m.rebuild(ctx, m.views[l]); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate marks extents stale: name may be a view label (that view),
// a source name (every view whose rules read it), or "" (every view).
// Stale extents are rebuilt on the next demand; it returns how many
// views were invalidated.
func (m *Manager) Invalidate(name string) int {
	n := 0
	for _, l := range m.labels {
		v := m.views[l]
		if name != "" && name != v.label && !v.allSources && !v.deps[name] {
			continue
		}
		v.mu.Lock()
		v.gen++ // an in-flight rebuild must not install as fresh
		if !v.builtAt.IsZero() && !v.stale {
			v.stale = true
			n++
		}
		v.mu.Unlock()
	}
	return n
}

// ApplyDelta maintains the extents that depend on source through one
// mutation, instead of dropping them: an insert-only delta is evaluated
// incrementally (the delta func runs the view's fetch with the mutated
// source replaced by an extent of just the inserted objects) and the
// new answers are appended to the extent, structurally deduplicated
// against what it already holds. Deletions, Incomplete extents,
// non-delta-evaluable specs, evaluation failures, and races with
// concurrent rebuilds all fall back to the invalidate path: the extent
// is marked stale and a background rebuild starts, exactly as before
// change feeds existed. Unbuilt extents need nothing — a later build
// reads the already-mutated source.
func (m *Manager) ApplyDelta(ctx context.Context, source string, inserted, deleted []*oem.Object) {
	for _, l := range m.labels {
		v := m.views[l]
		if !v.allSources && !v.deps[source] {
			continue
		}
		v.mu.Lock()
		v.gen++
		if v.builtAt.IsZero() || v.building != nil || v.stale {
			// Unbuilt: nothing to maintain. Building: the gen bump above
			// makes the racing install come out stale, so the follow-up
			// rebuild observes this mutation. Stale: a rebuild is already
			// owed and will read the mutated source.
			v.mu.Unlock()
			continue
		}
		if len(deleted) > 0 || v.incomplete || m.delta == nil {
			m.fallbackLocked(v)
			continue
		}
		fetch := v.fetchRule(m.mediator)
		v.mu.Unlock()

		objs, incomplete, ok, err := m.delta(ctx, fetch, source, inserted)
		v.mu.Lock()
		if err != nil || !ok || incomplete {
			m.fallbackLocked(v)
			continue
		}
		if v.builtAt.IsZero() || v.building != nil || v.stale {
			// A rebuild or invalidation intervened; it owns freshness now.
			v.mu.Unlock()
			continue
		}
		// v.gen may have moved: a concurrent insert-only application.
		// Those commute — whichever delta evaluation ran last saw both
		// mutations' source state, and the deduper drops doubly-derived
		// answers — so appending stays sound without a gen re-check.
		var fresh []*oem.Object
		for _, o := range objs {
			if !v.dedup.Seen(o) {
				fresh = append(fresh, o)
			}
		}
		v.objs = append(v.objs, fresh...)
		v.mu.Unlock()
		m.deltas.Add(1)
		m.reg.Counter("matview.delta.applied").Inc()
		m.reg.Counter("matview.delta.objects").Add(int64(len(fresh)))
	}
}

// fallbackLocked routes one mutation to the rebuild path: mark v stale,
// count the fallback, start a background rebuild. v.mu is held on entry
// and released here (refreshAsync takes it itself).
func (m *Manager) fallbackLocked(v *matView) {
	v.stale = true
	v.mu.Unlock()
	m.deltaFallbacks.Add(1)
	m.reg.Counter("matview.delta.fallback").Inc()
	m.refreshAsync(v)
}
