// Package match implements MSL pattern matching against OEM object
// structures, producing variable bindings.
//
// Matching follows Section 2 of the MedMaker paper: a tail pattern is
// matched against candidate objects, trying to bind the pattern's
// variables to object components — labels, atomic values, oids, whole
// objects, or sets of subobjects. A set pattern {p1 … pk | Rest} requires
// k distinct subobjects matching the element patterns; Rest captures the
// remaining subobjects, which is what makes specifications insensitive to
// schema evolution. Subset semantics apply even without a rest variable:
// unmentioned subobjects never block a match.
package match

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"medmaker/internal/oem"
)

// Binding is the value an MSL variable is bound to: either a whole OEM
// object (object variables, set-pattern element variables) or an OEM value
// (atomic values, labels and oids as strings, and sets for rest
// variables). Exactly one of Obj and Val is set.
type Binding struct {
	Obj *oem.Object
	Val oem.Value
}

// BindObj binds a whole object.
func BindObj(o *oem.Object) Binding { return Binding{Obj: o} }

// BindVal binds an OEM value.
func BindVal(v oem.Value) Binding { return Binding{Val: v} }

// BindString binds a string value (labels, oids).
func BindString(s string) Binding { return Binding{Val: oem.String(s)} }

// IsZero reports whether the binding is unset.
func (b Binding) IsZero() bool { return b.Obj == nil && b.Val == nil }

// Equal reports whether two bindings denote the same thing. Objects
// compare structurally (cross-source joins must not depend on oids); an
// object and a value never compare equal.
func (b Binding) Equal(o Binding) bool {
	if b.Obj != nil || o.Obj != nil {
		return b.Obj != nil && o.Obj != nil && b.Obj.StructuralEqual(o.Obj)
	}
	if b.Val == nil || o.Val == nil {
		return b.Val == nil && o.Val == nil
	}
	return b.Val.Equal(o.Val)
}

// unboundHash is the hash of the zero (unbound) Binding. It is a fixed
// random-looking constant rather than 0: unbound bindings must hash
// equal to each other (zero bindings compare Equal) but must not share a
// hash bucket with whatever else happens to hash to 0, so sparse join
// keys and dedup projections over partially-bound rows spread normally.
const unboundHash = 0x9ae16a3b2f90404f

// Hash returns a hash consistent with Equal, for join and
// duplicate-elimination indexes.
func (b Binding) Hash() uint64 {
	if b.Obj != nil {
		return b.Obj.StructuralHash() ^ 0x9e3779b97f4a7c15
	}
	if b.Val == nil {
		return unboundHash
	}
	return oem.HashValue(b.Val)
}

// String renders the binding for traces and error messages.
func (b Binding) String() string {
	if b.Obj != nil {
		return b.Obj.String()
	}
	if b.Val == nil {
		return "<unbound>"
	}
	return b.Val.String()
}

// AsValue converts the binding to an oem.Value: objects become singleton
// references to their value? No — a whole object has no value-level
// equivalent, so AsValue returns ok=false for object bindings; use Obj
// directly.
func (b Binding) AsValue() (oem.Value, bool) {
	if b.Val != nil {
		return b.Val, true
	}
	return nil, false
}

// Bindings is read access to one row of variable bindings: an Env, or a
// row of a binding table read in place. An unbound variable reads as the
// zero Binding and false.
type Bindings interface {
	Lookup(name string) (Binding, bool)
}

// Env is an immutable-by-convention variable environment: extensions copy.
// The zero value (nil map) is the empty environment.
type Env map[string]Binding

// Lookup returns the binding of a variable.
func (e Env) Lookup(name string) (Binding, bool) {
	b, ok := e[name]
	return b, ok
}

// Extend returns a copy of e with name bound. If name is already bound to
// an Equal value, e itself is returned; if bound to a different value, ok
// is false.
func (e Env) Extend(name string, b Binding) (Env, bool) {
	if prev, bound := e[name]; bound {
		if prev.Equal(b) {
			return e, true
		}
		return nil, false
	}
	// maps.Clone uses the runtime's bulk copy, noticeably cheaper than a
	// rehash loop for the small environments matching produces.
	out := maps.Clone(e)
	if out == nil {
		out = make(Env, 1)
	}
	out[name] = b
	return out, true
}

// Join merges two environments; it fails when a shared variable is bound
// to different values — the binding-match step of rule evaluation.
func (e Env) Join(o Env) (Env, bool) {
	small, big := e, o
	if len(small) > len(big) {
		small, big = big, small
	}
	out := big
	for k, v := range small {
		var ok bool
		out, ok = out.Extend(k, v)
		if !ok {
			return nil, false
		}
	}
	return out, true
}

// Project returns a copy of e restricted to the given variables; unbound
// names are simply absent.
func (e Env) Project(vars []string) Env {
	out := make(Env, len(vars))
	for _, v := range vars {
		if b, ok := e[v]; ok {
			out[v] = b
		}
	}
	return out
}

// Key returns a canonical string for duplicate elimination over the given
// variables: equal projections yield equal keys with overwhelming
// probability (hash-based; exactness is restored by callers that compare
// Equal on collision).
func (e Env) Key(vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		b := e[v]
		fmt.Fprintf(&sb, "%s=%016x;", v, b.Hash())
	}
	return sb.String()
}

// Row-hash mixing constants: FNV-64a's offset basis and prime. HashSeed
// starts a row hash; MixHash folds in one binding hash. The mix is
// order-dependent, so callers must fold a fixed variable order.
const (
	HashSeed  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// MixHash folds one 64-bit value into a running row hash.
func MixHash(h, v uint64) uint64 { return (h ^ v) * hashPrime }

// HashEnv hashes the environment's projection onto vars, in order:
// projections that are Equal (including matching absences) hash equally,
// making it the numeric successor of Key for join and dedup indexes —
// no string formatting, no allocation.
func (e Env) HashEnv(vars []string) uint64 {
	h := HashSeed
	for _, v := range vars {
		h = MixHash(h, e[v].Hash())
	}
	return h
}

// projEqual reports whether two environments agree on every listed
// variable: bound in both to Equal values, or bound in neither.
func projEqual(a, b Env, vars []string) bool {
	for _, v := range vars {
		ab, aok := a[v]
		bb, bok := b[v]
		if aok != bok || !ab.Equal(bb) {
			return false
		}
	}
	return true
}

// Names returns the bound variable names, sorted.
func (e Env) Names() []string {
	out := make([]string, 0, len(e))
	for k := range e {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the environment sorted by name, for traces and tests.
func (e Env) String() string {
	names := e.Names()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + " -> " + e[n].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Equal reports whether two environments bind the same variables to equal
// values.
func (e Env) Equal(o Env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// DedupEnvs removes duplicate environments with respect to the given
// variables (the projection step before object construction; MSL
// semantics eliminate duplicated bindings). First occurrences win.
// Buckets are keyed by the numeric projection hash — no per-row
// projection copies or string keys — with per-variable equality
// restoring exactness on collision.
func DedupEnvs(envs []Env, vars []string) []Env {
	byKey := make(map[uint64][]Env, len(envs))
	out := envs[:0:0]
outer:
	for _, e := range envs {
		h := e.HashEnv(vars)
		for _, prev := range byKey[h] {
			if projEqual(prev, e, vars) {
				continue outer
			}
		}
		byKey[h] = append(byKey[h], e)
		out = append(out, e)
	}
	return out
}
