package xmlsource

import (
	"fmt"
	"io"
	"os"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Source exports a decoded XML document as an OEM source over a
// wrapper.Collection, whose candidate supplier narrows each query by
// top-level label and by equality conditions on direct atomic children
// (the mapped elements and attributes) before matching.
//
// The XML mapping yields plain OEM trees, so value conditions, rest
// constraints, and wildcards all evaluate locally; source-local joins
// (multi-pattern tails) are not offered — the mediator decomposes and
// joins instead, as it does for capability-poor sources.
type Source struct {
	*wrapper.Collection
}

// New builds a source over already-mapped top-level objects, assigning
// oids under the source name.
func New(name string, tops []*oem.Object) (*Source, error) {
	s := &Source{wrapper.NewCollection(name, wrapper.Capabilities{
		ValueConditions: true,
		RestConstraints: true,
		Wildcards:       true,
	})}
	if err := s.Add(tops...); err != nil {
		return nil, err
	}
	return s, nil
}

// FromReader decodes an XML document and builds a source over it.
func FromReader(name string, r io.Reader, m Mapping) (*Source, error) {
	tops, err := Decode(r, m)
	if err != nil {
		return nil, err
	}
	return New(name, tops)
}

// FromFile loads an XML file (see FromReader).
func FromFile(name, path string, m Mapping) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmlsource: %w", err)
	}
	defer f.Close()
	return FromReader(name, f, m)
}
