// Command medmaker runs a declaratively-specified mediator from the
// command line: it loads an MSL specification, attaches sources (OEM data
// files or remote TCP wrappers), and answers MSL queries.
//
//	medmaker -spec med.msl -source whois=whois.oem -source cs=tcp:host:port \
//	         [-matview label[:ttl]] [-explain] [-explain-analyze] [-trace] \
//	         [-serve addr] [query ...]
//
// Each -source is name=path (a textual OEM file) or name=tcp:addr (a
// remote wrapper started elsewhere, e.g. with -serve). Queries are given
// as arguments or, when absent, read from stdin one per line (a line must
// hold a complete rule). With -serve the mediator itself is exposed over
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
)

// openSource resolves one -source target:
//
//	name=tcp:host:port          remote wrapper
//	name=http://host[/path]     JSON-over-HTTP endpoint (https too)
//	name=data.oem               textual OEM file
//	name=data.xml               XML document (elements become objects)
//	name=data.json[:label]      JSON document/array (objects labelled
//	                            label, default the file's base name)
//	name=a.csv+b.csv            relational source, one table per CSV file
//	                            (named by file base name)
//	name=stream:[seed.oem]      append-only event log, optionally seeded
//	                            from a textual OEM file
func openSource(name, target string) (medmaker.Source, func(), error) {
	if addr, isTCP := strings.CutPrefix(target, "tcp:"); isTCP {
		client, err := medmaker.DialSource(addr, 10*time.Second)
		if err != nil {
			return nil, nil, err
		}
		if client.Name() != name {
			client.Close()
			return nil, nil, fmt.Errorf("remote source at %s calls itself %q, not %q", addr, client.Name(), name)
		}
		return client, func() { client.Close() }, nil
	}
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		src, err := medmaker.NewHTTPSource(name, target)
		return src, nil, err
	}
	if seed, isStream := strings.CutPrefix(target, "stream:"); isStream {
		src := medmaker.NewStreamSource(name, medmaker.StreamOptions{})
		if seed != "" {
			if err := seedStream(src, name, seed); err != nil {
				return nil, nil, err
			}
		}
		return src, nil, nil
	}
	path, label, hasLabel := strings.Cut(target, ":")
	switch {
	case strings.HasSuffix(path, ".xml"):
		src, err := medmaker.NewXMLSourceFromFile(name, path, medmaker.XMLMapping{})
		return src, nil, err
	case strings.HasSuffix(path, ".json"):
		if !hasLabel {
			label = baseName(path)
		}
		src, err := medmaker.NewOEMSourceFromJSONFile(name, label, path)
		return src, nil, err
	case strings.HasSuffix(path, ".csv"):
		db := medmaker.NewRelationalDB()
		for _, csvPath := range strings.Split(target, "+") {
			f, err := os.Open(csvPath)
			if err != nil {
				return nil, nil, err
			}
			err = medmaker.LoadCSV(db, baseName(csvPath), f)
			f.Close()
			if err != nil {
				return nil, nil, err
			}
		}
		return medmaker.NewRelationalWrapper(name, db), nil, nil
	default:
		src, err := medmaker.NewOEMSourceFromFile(name, target)
		return src, nil, err
	}
}

// seedStream appends the top-level objects of a textual OEM file to the
// event log.
func seedStream(src *medmaker.StreamSource, name, path string) error {
	tmp, err := medmaker.NewOEMSourceFromFile(name, path)
	if err != nil {
		return err
	}
	for _, o := range tmp.Export() {
		if err := src.Append(o.Clone()); err != nil {
			return err
		}
	}
	return nil
}

// baseName strips the directory and extension from a path.
func baseName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

type sourceFlags []string

func (s *sourceFlags) String() string { return strings.Join(*s, ",") }

func (s *sourceFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

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
	var sources sourceFlags
	specPath := fs.String("spec", "", "MSL specification file (required)")
	name := fs.String("name", "med", "mediator name (what queries write after @)")
	useLorel := fs.Bool("lorel", false, "queries are LOREL ('select … from … where …') instead of MSL")
	explain := fs.Bool("explain", false, "print the logical program and physical graph per query")
	explainAnalyze := fs.Bool("explain-analyze", false, "execute each query and print the plan annotated with actual row counts, source exchanges, and phase timings")
	trace := fs.Bool("trace", false, "print the execution trace (binding tables per node)")
	serve := fs.String("serve", "", "serve the mediator over TCP on this address instead of answering queries")
	showStats := fs.Bool("stats", false, "print the learned statistics store after all queries")
	timeout := fs.Duration("timeout", 0, "per-query deadline (e.g. 5s); 0 means none")
	fs.Var(&sources, "source", "source as name=path.oem or name=tcp:addr (repeatable)")
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
	for _, s := range sources {
		name, target, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("bad -source %q: want name=path or name=tcp:addr", s)
		}
		src, closer, err := openSource(name, target)
		if err != nil {
			return err
		}
		if closer != nil {
			defer closer()
		}
		cfg.Sources = append(cfg.Sources, src)
	}

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
