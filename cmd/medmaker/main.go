// Command medmaker runs a declaratively-specified mediator from the
// command line: it loads an MSL specification, attaches sources (OEM data
// files or remote TCP wrappers), and answers MSL queries.
//
//	medmaker -spec med.msl -source whois=whois.oem -source cs=tcp:host:port \
//	         [-matview label[:ttl]] [-explain] [-explain-analyze] [-trace] \
//	         [-serve addr] [query ...]
//
// Each -source is name=target: a textual OEM, XML, JSON or CSV file, an
// event log, an HTTP endpoint, or tcp:addr for a remote wrapper started
// elsewhere, e.g. with -serve (see internal/sourceflag). Queries are
// given as arguments or, when absent, read from stdin one per line (a
// line must hold a complete rule). With -serve the mediator itself is exposed over
// TCP instead of answering local queries.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"medmaker"
	"medmaker/internal/sourceflag"
)

// matviewFlags accumulates -matview label[:ttl] values into view specs.
type matviewFlags []medmaker.MatView

func (m *matviewFlags) String() string {
	parts := make([]string, len(*m))
	for i, v := range *m {
		parts[i] = v.Label
		if v.TTL > 0 {
			parts[i] += ":" + v.TTL.String()
		}
	}
	return strings.Join(parts, ",")
}

func (m *matviewFlags) Set(v string) error {
	label, ttlText, hasTTL := strings.Cut(v, ":")
	if label == "" {
		return fmt.Errorf("bad -matview %q: want label or label:ttl", v)
	}
	view := medmaker.MatView{Label: label}
	if hasTTL {
		ttl, err := time.ParseDuration(ttlText)
		if err != nil || ttl <= 0 {
			return fmt.Errorf("bad -matview %q: ttl must be a positive duration like 30s", v)
		}
		view.TTL = ttl
	}
	*m = append(*m, view)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "medmaker: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against explicit arguments and streams, so tests
// can drive it.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("medmaker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sources sourceflag.List
	specPath := fs.String("spec", "", "MSL specification file (required)")
	name := fs.String("name", "med", "mediator name (what queries write after @)")
	useLorel := fs.Bool("lorel", false, "queries are LOREL ('select … from … where …') instead of MSL")
	explain := fs.Bool("explain", false, "print the logical program and physical graph per query")
	explainAnalyze := fs.Bool("explain-analyze", false, "execute each query and print the plan annotated with actual row counts, source exchanges, and phase timings")
	trace := fs.Bool("trace", false, "print the execution trace (binding tables per node)")
	serve := fs.String("serve", "", "serve the mediator over TCP on this address instead of answering queries")
	showStats := fs.Bool("stats", false, "print the learned statistics store after all queries")
	timeout := fs.Duration("timeout", 0, "per-query deadline (e.g. 5s); 0 means none")
	fs.Var(&sources, "source", sourceflag.Usage)
	var matviews matviewFlags
	fs.Var(&matviews, "matview", "materialize a view head as label or label:ttl (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	specText, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}

	cfg := medmaker.Config{Name: *name, Spec: string(specText)}
	if *trace {
		cfg.Trace = stderr
	}
	if len(matviews) > 0 {
		cfg.Materialize = &medmaker.MatViewOptions{Views: matviews}
	}
	srcs, closeSources, err := sourceflag.OpenAll(sources)
	if err != nil {
		return err
	}
	defer closeSources()
	cfg.Sources = srcs

	med, err := medmaker.New(cfg)
	if err != nil {
		return err
	}

	if *serve != "" {
		addr, srv, err := medmaker.Serve(med, *serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "mediator %s serving on %s\n", *name, addr)
		select {} // serve until killed
	}

	answer := func(q string) error {
		if *useLorel {
			rule, err := medmaker.TranslateLorel(q)
			if err != nil {
				return err
			}
			q = rule.String()
			fmt.Fprintf(stderr, "-- MSL: %s\n", q)
		}
		if *explain {
			out, err := med.Explain(q)
			if err != nil {
				return err
			}
			fmt.Fprint(stderr, out)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *explainAnalyze {
			rule, err := medmaker.ParseQuery(q)
			if err != nil {
				return err
			}
			res, qt, err := med.QueryTraced(ctx, rule)
			if err != nil {
				return err
			}
			qt.Render(stderr)
			fmt.Fprint(stdout, medmaker.FormatOEM(res.Objects...))
			return nil
		}
		objs, err := med.QueryStringContext(ctx, q)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, medmaker.FormatOEM(objs...))
		return nil
	}

	if *showStats {
		defer func() {
			fmt.Fprintf(stderr, "-- statistics learned from this session --\n%s", med.QueryStats())
		}()
	}
	if fs.NArg() > 0 {
		for _, q := range fs.Args() {
			if err := answer(q); err != nil {
				return err
			}
		}
		return nil
	}
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := answer(line); err != nil {
			fmt.Fprintf(stderr, "medmaker: %v\n", err)
		}
	}
	return scanner.Err()
}
