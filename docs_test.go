package medmaker

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations TestDocCitationsExist
// checks.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// citedGoName is a test, example, benchmark or fuzz target name; a
	// trailing `*` cites every name with that prefix.
	citedGoName = regexp.MustCompile(`\b(?:Test|Example|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*\*?`)
	definedName = regexp.MustCompile(`(?m)^func ((?:Test|Example|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	// citedFile is a file name with an extension the repository uses,
	// optionally under directories and with a `:line` or `:from-to`
	// suffix.
	citedFile = regexp.MustCompile(`(?:\./)?(?:[A-Za-z0-9_.-]+/)*[A-Za-z0-9_-][A-Za-z0-9_.-]*\.(?:go|md|json|txt|msl|oem|sh|yml|mod)\b(?::[0-9]+(?:-[0-9]+)?)?`)
	// citedDir is a path under one of the repository's top-level
	// directories, with or without an extension; in
	// `internal/workload.QueryGen` it is `internal/workload`. A match of
	// either right after `/` is the tail of an absolute or import path and
	// is not checked.
	citedDir = regexp.MustCompile(`(?:\./)?(?:cmd|internal|examples|bench|testdata|docs|\.github)/(?:[A-Za-z0-9_-]+/)*[A-Za-z0-9_-]+(?:\.[a-z]+)?`)
)

// placeholderFiles are file names the docs use as example arguments of a
// command, not as files of the repository.
var placeholderFiles = map[string]bool{
	"out.json": true, "a.json": true, "b.json": true,
	"people.json": true, "swipes.oem": true,
}

// TestDocCitationsExist checks that every Go test, example, benchmark and
// fuzz target the docs name is defined, and that every repository path
// they cite exists. A doc that cites a renamed test or a deleted file
// fails here rather than sending a reader to nothing.
func TestDocCitationsExist(t *testing.T) {
	defined := map[string]bool{}
	basenames := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") && name != ".github" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		basenames[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range definedName.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isDefined := func(name string) bool {
		prefix, star := strings.CutSuffix(name, "*")
		if !star {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	exists := func(path string) bool {
		path = strings.TrimPrefix(path, "./")
		if i := strings.IndexByte(path, ':'); i >= 0 {
			path = path[:i]
		}
		if !strings.Contains(path, "/") {
			return basenames[path]
		}
		// Package paths are often cited without their internal/ prefix.
		for _, p := range []string{path, filepath.Join("internal", path)} {
			if _, err := os.Stat(p); err == nil {
				return true
			}
		}
		return false
	}

	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedGoName.FindAllString(line, -1) {
				if !isDefined(name) {
					t.Errorf("%s:%d cites %s, which no test file defines", doc, i+1, name)
				}
			}
			var paths []string
			for _, re := range []*regexp.Regexp{citedFile, citedDir} {
				for _, loc := range re.FindAllStringIndex(line, -1) {
					if loc[0] > 0 && line[loc[0]-1] == '/' {
						continue
					}
					if p := line[loc[0]:loc[1]]; !placeholderFiles[p] {
						paths = append(paths, p)
					}
				}
			}
			for _, p := range paths {
				if !exists(p) {
					t.Errorf("%s:%d cites %s, which is not in the repository", doc, i+1, p)
				}
			}
		}
	}
}
