// Package sourceflag parses the -source flags of the medmaker and
// medserve commands and opens the sources they name. Each value is
// name=target:
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
package sourceflag

import (
	"fmt"
	"os"
	"strings"
	"time"

	"medmaker"
)

// Usage is the -source flag's help text.
const Usage = "source as name=target: tcp:addr, http(s)://url, a .oem, .xml or .json[:label] file, a+b.csv tables or stream:[seed.oem] (repeatable)"

// List accumulates repeated -source values; it implements flag.Value.
type List []string

func (l *List) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value.
func (l *List) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// OpenAll opens the source each name=target value names, in order. The
// returned func closes what needs closing (remote connections); on error
// whatever was opened is already closed.
func OpenAll(values []string) ([]medmaker.Source, func(), error) {
	var sources []medmaker.Source
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	for _, v := range values {
		name, target, ok := strings.Cut(v, "=")
		if !ok {
			closeAll()
			return nil, nil, fmt.Errorf("bad -source %q: want name=target", v)
		}
		src, closer, err := Open(name, target)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		if closer != nil {
			closers = append(closers, closer)
		}
		sources = append(sources, src)
	}
	return sources, closeAll, nil
}

// Open resolves one -source target (see the package comment). The
// returned func, when non-nil, closes the source.
func Open(name, target string) (medmaker.Source, func(), error) {
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
