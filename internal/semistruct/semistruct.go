// Package semistruct implements an irregular-record store — the
// semi-structured substrate of the MedMaker paper's running example (the
// university whois facility of Figure 2.3) — and a wrapper exporting it
// as OEM.
//
// Records are lists of named fields with no schema: two records may carry
// different fields, fields repeat, and a field's value may be atomic or a
// nested list of fields. This is exactly the kind of source (electronic
// mail, medical records, bibliographies) whose integration motivates OEM
// and MSL.
package semistruct

import (
	"fmt"
	"sync"

	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// Field is one named value in a record. Value may be a string, int,
// int64, float64, bool, []byte, or a nested []Field.
type Field struct {
	Name  string
	Value any
}

// Record is an irregular record: an ordered list of fields under a record
// kind (e.g. "person"). Nothing constrains which fields appear.
type Record struct {
	Kind   string
	Fields []Field
}

// F is shorthand for building a Field.
func F(name string, value any) Field { return Field{Name: name, Value: value} }

// Store holds records; it is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	records []Record
	// wrappers export the store; each converts new records and appends
	// them to its collection under mu, so every export stays in record
	// order.
	wrappers []*Wrapper
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Add appends records, validating that every field (recursively) has a
// name and a convertible value.
func (s *Store) Add(records ...Record) error {
	for _, r := range records {
		if r.Kind == "" {
			return fmt.Errorf("semistruct: record without a kind")
		}
		if err := validateFields(r.Fields); err != nil {
			return fmt.Errorf("semistruct: record %q: %w", r.Kind, err)
		}
	}
	s.mu.Lock()
	start := len(s.records)
	s.records = append(s.records, records...)
	ws := s.wrappers
	added := make([][]*oem.Object, len(ws))
	for i, w := range ws {
		added[i] = w.convert(start, records)
		w.Append(added[i]...)
	}
	s.mu.Unlock()
	for i, w := range ws {
		w.Emit(wrapper.Delta{Source: w.Name(), Inserted: added[i]})
	}
	return nil
}

// MustAdd is Add that panics on error.
func (s *Store) MustAdd(records ...Record) {
	if err := s.Add(records...); err != nil {
		panic(err)
	}
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

func validateFields(fields []Field) error {
	for _, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("field without a name")
		}
		if nested, ok := f.Value.([]Field); ok {
			if err := validateFields(nested); err != nil {
				return err
			}
			continue
		}
		if f.Value == nil {
			return fmt.Errorf("field %q has a nil value", f.Name)
		}
		if err := checkAtom(f); err != nil {
			return err
		}
	}
	return nil
}

// checkAtom reports a field value oem.Atom cannot convert.
func checkAtom(f Field) (err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("field %q has unsupported value type %T", f.Name, f.Value)
		}
	}()
	oem.Atom(f.Value)
	return nil
}

// Wrapper exports a Store as an OEM source under a given name: a
// wrapper.Collection holding every record converted to OEM, record i with
// oid &<name>_i. Records appended to the store later are converted,
// appended, and emitted as change-feed deltas to wrapper.Notifier
// subscribers. Mutate the Store, not the embedded collection.
//
// A new wrapper answers queries by matching every record, with the
// collection's candidate narrowing off; SetPushdown(true) turns it on.
type Wrapper struct {
	*wrapper.Collection
}

// NewWrapper wraps store as the named source, converting its records.
func NewWrapper(name string, store *Store) *Wrapper {
	w := &Wrapper{wrapper.NewCollection(name, wrapper.FullCapabilities())}
	w.SetPushdown(false)
	store.mu.Lock()
	defer store.mu.Unlock()
	w.Append(w.convert(0, store.records)...)
	store.wrappers = append(store.wrappers, w)
	return w
}

// convert converts records to OEM, the first as record index start.
func (w *Wrapper) convert(start int, recs []Record) []*oem.Object {
	objs := make([]*oem.Object, len(recs))
	for i, r := range recs {
		objs[i] = w.convertRecord(start+i, r)
	}
	return objs
}

// convertRecord converts record index i to its OEM object, oid &<name>_i.
func (w *Wrapper) convertRecord(i int, r Record) *oem.Object {
	oid := oem.OID(fmt.Sprintf("&%s_%d", w.Name(), i))
	return &oem.Object{
		OID:   oid,
		Label: r.Kind,
		Value: w.convertFields(string(oid), r.Fields),
	}
}

func (w *Wrapper) convertFields(parentOID string, fields []Field) oem.Set {
	subs := make(oem.Set, 0, len(fields))
	for i, f := range fields {
		oid := oem.OID(fmt.Sprintf("%s_%d", parentOID, i))
		obj := &oem.Object{OID: oid, Label: f.Name}
		if nested, ok := f.Value.([]Field); ok {
			obj.Value = w.convertFields(string(oid), nested)
		} else {
			obj.Value = oem.Atom(f.Value)
		}
		subs = append(subs, obj)
	}
	return subs
}
