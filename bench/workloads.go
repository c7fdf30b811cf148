package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"medmaker"
	"medmaker/internal/handcoded"
	"medmaker/internal/oem"
	"medmaker/internal/relational"
	"medmaker/internal/semistruct"
	"medmaker/internal/workload"
)

// specMS1 is the paper's mediator specification MS1 (Section 2): cs_person
// joins the whois directory with the cs relations, decomposing the name.
const specMS1 = `
<cs_person {<name N> <relation R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN).

decomp(bound, free, free) by name_to_lnfn.
decomp(free, bound, bound) by lnfn_to_name.
`

const scanQuery = `Q :- Q:<cs_person {<name N>}>@med.`

// opDeadline fails an op that takes longer, whatever it returns.
const opDeadline = 5 * time.Second

// mutateEvery is the period of the mutate_read schedule: op 0 of each
// period inserts, op 1 reads the insert back, the rest are zipf reads.
const mutateEvery = 8

// scale sizes the population: the real one, or the smoke test's.
type scale struct {
	persons     int // people in both sources; a quarter are in dept CS
	distinct    int // zipf support of the point streams
	warmupScans int
	// mutateRate fixes the length of a mutate_read client's schedule as a
	// count, not a time: seconds x this many ops. The extent grows with
	// every insert, so a faster build given the same time would insert
	// more and be measured in a different state. Chosen once, on this
	// PR's commit, so that the schedule takes about the requested seconds
	// on the reference 2-core box; it is not retuned when the program
	// gets faster.
	mutateRate int
	tracedDiv  int // divides each workload's traced-pass op cap
}

var (
	fullScale  = scale{persons: 20000, distinct: 2000, warmupScans: 20, mutateRate: 560, tracedDiv: 1}
	quickScale = scale{persons: 400, distinct: 200, warmupScans: 2, mutateRate: 400, tracedDiv: 10}
)

// workloadDef names one workload and the topology it runs on.
type workloadDef struct {
	name    string
	why     string
	clients int  // closed-loop clients, capped at nproc
	scan    bool // full-view scans instead of point reads
	remote  bool // sources behind medmaker.Serve on loopback
	mutate  bool // materialized view plus inserts on a fixed schedule
	// tracedOps caps the ops per mode of the traced pass.
	tracedOps int
}

var workloads = []workloadDef{
	{name: "point_local", clients: 2, tracedOps: 2000,
		why: "zipf point reads by name over in-process sources: nearly all of an op is one selective whois lookup, so source indexes show here, then parse, plan cache and lock contention"},
	{name: "scan_local", clients: 2, scan: true, tracedOps: 100,
		why: "full-view scans, 5000 answers each, over in-process sources: engine operators, oem construction and cs probes dominate; a selective index must not move it, an engine or allocation win must"},
	{name: "scan_remote", clients: 2, scan: true, remote: true, tracedOps: 100,
		why: "the same scans with both sources behind medmaker.Serve on loopback: scan_remote minus scan_local isolates internal/remote (gob, framing, 314 round trips per op)"},
	{name: "mutate_read", clients: 2, mutate: true, tracedOps: 4000,
		why: "fixed schedule of reads from a materialized view with every 8th op a whois insert read back at once: index, invalidation and delta costs bought for reads show as lost qps here"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// clientCount is the workload's client count on this machine: at most
// min(2, nproc), so the load generator never outnumbers the cores.
func (w workloadDef) clientCount() int {
	return min(w.clients, runtime.NumCPU(), 2)
}

const (
	opRead = iota
	opScan
	opInsert
)

// op is one client request.
type op struct {
	kind  int
	name  string // person read or inserted
	query string
}

// want is the oracle's answer for a point read.
type want struct {
	count    int
	relation string
}

// topology is one built workload: population, sources, mediator.
type topology struct {
	def   workloadDef
	sc    scale
	seed  int64
	med   *medmaker.Mediator
	staff *workload.Staff
	rawCS *relational.Wrapper
	raw   *semistruct.Wrapper // raw whois
	gen   *workload.QueryGen  // renders point queries
	close []func()

	// The oracle, filled by buildOracle after set-up is timed.
	expect   map[string]want
	viewSize int
	viewHash uint64
}

func insertFirst(i int) string { return fmt.Sprintf("U%05d", i) }
func insertLast(i int) string  { return fmt.Sprintf("V%05d", i) }
func insertName(i int) string  { return insertFirst(i) + " " + insertLast(i) }

// build is the set-up a user of the system pays before the first query is
// fast: generate the population, construct sources, servers and mediator,
// dial, refresh the materialized view, and run the fixed warm-up. inserts
// is how many unmatched employee rows to pre-seed for mutate schedules.
func build(def workloadDef, sc scale, seed int64, inserts int, tr *tracer) (*topology, error) {
	t := &topology{def: def, sc: sc, seed: seed}
	if err := t.construct(inserts, tr); err != nil {
		t.shutdown()
		return nil, err
	}
	return t, nil
}

func (t *topology) construct(inserts int, tr *tracer) error {
	staff, err := workload.GenStaff(workload.StaffConfig{
		Persons: t.sc.persons, Departments: 4, EmployeeFraction: 0.5, Irregularity: 0.3, Seed: t.seed,
	})
	if err != nil {
		return err
	}
	t.staff = staff
	if t.def.mutate {
		// The cs half of every future insert exists up front as an
		// unmatched row; the whois half arriving later completes the join.
		emp, ok := staff.DB.Table("employee")
		if !ok {
			return fmt.Errorf("staff population has no employee table")
		}
		for i := 0; i < inserts; i++ {
			if err := emp.Insert(insertFirst(i), insertLast(i), "staff", "F0000 L0000"); err != nil {
				return err
			}
		}
	}
	t.rawCS = relational.NewWrapper("cs", staff.DB)
	t.raw = semistruct.NewWrapper("whois", staff.Store)
	sources := []medmaker.Source{decorate(t.rawCS, tr, "source", false), decorate(t.raw, tr, "source", false)}
	if t.def.remote {
		if tr != nil {
			tr.wire = true
		}
		for i, src := range sources {
			addr, srv, err := medmaker.Serve(src, "127.0.0.1:0")
			if err != nil {
				return err
			}
			t.close = append(t.close, func() { srv.Close() })
			cl, err := medmaker.DialSource(addr, 0)
			if err != nil {
				return err
			}
			t.close = append(t.close, func() { cl.Close() })
			if cl.Proto() != medmaker.ProtoFramed {
				return fmt.Errorf("source %s negotiated protocol %d, want framed", src.Name(), cl.Proto())
			}
			sources[i] = decorate(cl, tr, "remote", true)
		}
	}
	cfg := mediatorConfig()
	cfg.Sources = sources
	if t.def.mutate {
		cfg.Materialize = &medmaker.MatViewOptions{Views: []medmaker.MatView{{Label: "cs_person"}}}
	}
	if t.med, err = medmaker.New(cfg); err != nil {
		return err
	}
	ctx := context.Background()
	if t.def.mutate {
		if err := t.med.Refresh(ctx, "cs_person"); err != nil {
			return err
		}
	}
	t.gen = workload.NewQueryGen(workload.QueryGenConfig{Names: staff.Names, Distinct: t.sc.distinct, Seed: t.seed})
	// Warm-up: every query text the streams can draw, so the plan cache
	// and lazily built source structures are in their steady state.
	if t.def.scan {
		for i := 0; i < t.sc.warmupScans; i++ {
			if _, err := t.med.QueryStringContext(ctx, scanQuery); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range staff.Names[:t.sc.distinct] {
		if _, err := t.med.QueryStringContext(ctx, t.gen.QueryFor(name)); err != nil {
			return err
		}
	}
	return nil
}

// mediatorConfig is the configuration under test, recorded in the output.
func mediatorConfig() medmaker.Config {
	return medmaker.Config{
		Name: "med", Spec: specMS1,
		PlanCache: &medmaker.PlanCacheOptions{MaxEntries: 4096},
	}
}

func (t *topology) shutdown() {
	for i := len(t.close) - 1; i >= 0; i-- {
		t.close[i]()
	}
	t.close = nil
}

// buildOracle computes what every op must return with the hand-coded MS1
// mediator over the raw sources: one pass over the whole view, indexed by
// name. It is the checker's cost, so it runs after set-up has been timed.
func (t *topology) buildOracle() error {
	view, err := handcoded.New(t.rawCS, t.raw).CSPersonByName("")
	if err != nil {
		return err
	}
	t.expect = make(map[string]want, len(view))
	for _, o := range view {
		name, rel := subString(o, "name"), subString(o, "relation")
		w := t.expect[name]
		w.count++
		w.relation = rel
		t.expect[name] = w
	}
	t.viewSize, t.viewHash = len(view), answerHash(view)
	if want := (t.sc.persons + 3) / 4; t.viewSize != want {
		return fmt.Errorf("oracle view holds %d objects, want %d", t.viewSize, want)
	}
	return nil
}

// answerHash is an order-insensitive structural hash of an answer: the
// wrapping sum of the objects' oid-blind structural hashes.
func answerHash(objs []*oem.Object) uint64 {
	var h uint64
	for _, o := range objs {
		h += o.StructuralHash()
	}
	return h
}

// stream returns the op sequence of client c of clients. Every client has
// its own zipf stream seeded seed+c; mutate clients insert disjoint
// people.
func (t *topology) stream(c, clients int) func(i int) op {
	g := workload.NewQueryGen(workload.QueryGenConfig{
		Names: t.staff.Names, Distinct: t.sc.distinct, Seed: t.seed + int64(c),
	})
	return func(i int) op {
		switch {
		case t.def.scan:
			return op{kind: opScan, query: scanQuery}
		case t.def.mutate && i%mutateEvery <= 1:
			name := insertName((i/mutateEvery)*clients + c)
			if i%mutateEvery == 0 {
				return op{kind: opInsert, name: name}
			}
			return op{kind: opRead, name: name, query: g.QueryFor(name)}
		}
		name := g.NextName()
		return op{kind: opRead, name: name, query: g.QueryFor(name)}
	}
}

// insert adds the whois half of person name; the change feed carries it
// into the materialized view before Add returns.
func (t *topology) insert(name string) error {
	return t.staff.Store.Add(insertRecord(name))
}

func insertRecord(name string) semistruct.Record {
	return semistruct.Record{Kind: "person", Fields: []semistruct.Field{
		{Name: "name", Value: name}, {Name: "dept", Value: "CS"}, {Name: "relation", Value: "employee"},
	}}
}

// run executes one op the way an application would.
func (t *topology) run(ctx context.Context, o op) ([]*oem.Object, error) {
	if o.kind == opInsert {
		return nil, t.insert(o.name)
	}
	return t.med.QueryStringContext(ctx, o.query)
}

// check compares an op's answer with the oracle's.
func (t *topology) check(o op, objs []*oem.Object) error {
	switch o.kind {
	case opInsert:
		return nil
	case opScan:
		if len(objs) != t.viewSize {
			return fmt.Errorf("scan returned %d objects, want %d", len(objs), t.viewSize)
		}
		if h := answerHash(objs); h != t.viewHash {
			return fmt.Errorf("scan answer hash %016x, want %016x", h, t.viewHash)
		}
		return nil
	}
	w, known := t.expect[o.name]
	if !known && t.def.mutate && o.name[0] == 'U' {
		w = want{count: 1, relation: "employee"} // read-your-writes
	}
	if len(objs) != w.count {
		return fmt.Errorf("read of %q returned %d objects, want %d", o.name, len(objs), w.count)
	}
	for _, obj := range objs {
		name, rel := subString(obj, "name"), subString(obj, "relation")
		if obj.Label != "cs_person" || name != o.name || rel != w.relation {
			return fmt.Errorf("read of %q returned <%s name=%q relation=%q>, want relation %q", o.name, obj.Label, name, rel, w.relation)
		}
	}
	return nil
}

// subString is the string value of o's first subobject labelled label,
// or "" when there is none.
func subString(o *oem.Object, label string) string {
	sub := o.Sub(label)
	if sub == nil {
		return ""
	}
	s, _ := sub.AtomString()
	return s
}
