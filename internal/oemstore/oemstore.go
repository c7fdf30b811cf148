// Package oemstore provides a native OEM source: a wrapper over a
// collection of OEM objects, with optional loading from files in the
// textual OEM format. It is the simplest kind of source — the data
// already is OEM — and serves as the reference implementation of the
// Source interface.
package oemstore

import (
	"fmt"
	"os"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Source is a fully-capable OEM-native source: a wrapper.Collection
// loaded from objects, text or JSON. Mutations (Add, Remove) emit
// change-feed deltas to wrapper.Notifier subscribers.
type Source struct {
	*wrapper.Collection
}

// New returns an empty source with the given name. Objects added later
// get oids prefixed with the source name.
func New(name string) *Source {
	return &Source{wrapper.NewCollection(name, wrapper.FullCapabilities())}
}

// FromObjects returns a source pre-populated with the given top-level
// objects.
func FromObjects(name string, objs ...*oem.Object) (*Source, error) {
	s := New(name)
	if err := s.Add(objs...); err != nil {
		return nil, err
	}
	return s, nil
}

// FromText parses textual OEM data and returns a source holding it.
func FromText(name, text string) (*Source, error) {
	objs, err := oem.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("oemstore: %s: %w", name, err)
	}
	return FromObjects(name, objs...)
}

// FromFile loads a textual OEM file.
func FromFile(name, path string) (*Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("oemstore: %w", err)
	}
	return FromText(name, string(data))
}

// FromJSON builds a source from a JSON document: a top-level array yields
// one object per element, anything else a single object, labelled label.
func FromJSON(name, label string, data []byte) (*Source, error) {
	objs, err := oem.FromJSONArray(label, data)
	if err != nil {
		// Not an array: try a single document.
		obj, err2 := oem.FromJSON(label, data)
		if err2 != nil {
			return nil, fmt.Errorf("oemstore: %s: %w", name, err)
		}
		objs = []*oem.Object{obj}
	}
	return FromObjects(name, objs...)
}

// FromJSONFile loads a JSON file (see FromJSON).
func FromJSONFile(name, label, path string) (*Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("oemstore: %w", err)
	}
	return FromJSON(name, label, data)
}

// SaveFile writes the source's objects to path in the textual OEM format;
// FromFile reads them back.
func (s *Source) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("oemstore: %w", err)
	}
	var fmtr oem.Formatter
	if err := fmtr.Format(f, s.Export()...); err != nil {
		f.Close()
		return fmt.Errorf("oemstore: writing %s: %w", path, err)
	}
	return f.Close()
}
