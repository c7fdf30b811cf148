// Package build constructs rule-head objects: the constructor half of MSL
// semantics (Section 2.3 of the paper). Given the head of a datamerge rule
// and one row of variable bindings produced by matching the tail,
// Head materializes the result objects the rule promises.
//
// Construction follows docs/MSL.md: constants become fixed labels and
// values; variables are replaced by their bindings; a set-bound variable
// appearing as a set element is flattened one level, so rest variables
// splice the unmatched subobjects of a source object into the result; an
// object-bound variable inserts a copy of the object as a subobject.
// Everything constructed — including material copied out of source
// objects — receives fresh object-ids from the supplied generator, in
// pre-order, except ids fixed by the head itself: a Skolem term
// f(args) yields a deterministic "semantic" oid derived from its resolved
// arguments, so objects built by different rules from the same entity
// share an id and can be fused downstream.
package build

import (
	"fmt"
	"strings"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// Head materializes the objects a rule head describes under one row of
// bindings — an Env, or a binding-table row read in place. A bare
// variable head term passes the bound object through untouched (it
// already exists); an object-pattern head term constructs a fresh object
// tree and assigns oids from gen.
func Head(head []msl.HeadTerm, env match.Bindings, gen *oem.IDGen) ([]*oem.Object, error) {
	out := make([]*oem.Object, 0, len(head))
	for _, h := range head {
		switch t := h.(type) {
		case *msl.Var:
			b, ok := env.Lookup(t.Name)
			if !ok {
				return nil, fmt.Errorf("build: head variable %s is unbound", t.Name)
			}
			if b.Obj == nil {
				return nil, fmt.Errorf("build: head variable %s is not bound to an object", t.Name)
			}
			out = append(out, b.Obj)
		case *msl.ObjectPattern:
			obj, err := construct(t, env, gen)
			if err != nil {
				return nil, err
			}
			oem.AssignOIDs(obj, gen)
			out = append(out, obj)
		default:
			return nil, fmt.Errorf("build: unsupported head term %T", h)
		}
	}
	return out, nil
}

// construct builds the object tree for one head pattern, leaving oids nil
// except where the head fixes them (constants, Skolem terms).
func construct(p *msl.ObjectPattern, env match.Bindings, gen *oem.IDGen) (*oem.Object, error) {
	if p.Wildcard {
		return nil, fmt.Errorf("build: wildcard pattern %s cannot appear in a rule head", p)
	}
	obj := &oem.Object{}
	label, err := headLabel(p.Label, env)
	if err != nil {
		return nil, err
	}
	obj.Label = label
	if p.OID != nil {
		oid, err := headOID(p.OID, env)
		if err != nil {
			return nil, err
		}
		obj.OID = oid
	}
	if err := headValue(obj, p.Value, env, gen); err != nil {
		return nil, err
	}
	return obj, nil
}

func headLabel(t msl.Term, env match.Bindings) (string, error) {
	switch x := t.(type) {
	case *msl.Const:
		s, ok := x.Value.(oem.String)
		if !ok {
			return "", fmt.Errorf("build: head label %s is not a string", x)
		}
		return string(s), nil
	case *msl.Var:
		b, ok := env.Lookup(x.Name)
		if !ok {
			return "", fmt.Errorf("build: head label variable %s is unbound", x.Name)
		}
		v, atomic := b.AsValue()
		if !atomic {
			return "", fmt.Errorf("build: head label variable %s is not bound to a value", x.Name)
		}
		s, ok := v.(oem.String)
		if !ok {
			return "", fmt.Errorf("build: head label variable %s bound to non-string %s", x.Name, v)
		}
		return string(s), nil
	case *msl.Param:
		return "", fmt.Errorf("build: unsubstituted parameter $%s in head label", x.Name)
	}
	return "", fmt.Errorf("build: unsupported head label term %T", t)
}

func headOID(t msl.Term, env match.Bindings) (oem.OID, error) {
	switch x := t.(type) {
	case *msl.Const:
		s, ok := x.Value.(oem.String)
		if !ok {
			return oem.NilOID, fmt.Errorf("build: head oid %s is not a string", x)
		}
		return oem.OID(s), nil
	case *msl.Var:
		b, ok := env.Lookup(x.Name)
		if !ok {
			return oem.NilOID, fmt.Errorf("build: head oid variable %s is unbound", x.Name)
		}
		if b.Obj != nil {
			return b.Obj.OID, nil
		}
		if v, atomic := b.AsValue(); atomic {
			if s, ok := v.(oem.String); ok {
				return oem.OID(s), nil
			}
		}
		return oem.NilOID, fmt.Errorf("build: head oid variable %s has no usable binding", x.Name)
	case *msl.Skolem:
		return skolemOID(x, env)
	}
	return oem.NilOID, fmt.Errorf("build: unsupported head oid term %T", t)
}

// skolemOID derives the semantic object-id for a Skolem term: the functor
// applied to the textual form of its resolved arguments, e.g.
// &person('Joe Chung'). Equal arguments yield equal oids no matter which
// rule constructed the object, which is what lets the fusion step merge
// fragments of the same entity (Section 2.4).
func skolemOID(s *msl.Skolem, env match.Bindings) (oem.OID, error) {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		switch x := a.(type) {
		case *msl.Const:
			parts[i] = x.Value.String()
		case *msl.Var:
			b, ok := env.Lookup(x.Name)
			if !ok {
				return oem.NilOID, fmt.Errorf("build: skolem argument %s is unbound", x.Name)
			}
			if v, atomic := b.AsValue(); atomic {
				parts[i] = v.String()
			} else if b.Obj != nil {
				parts[i] = string(b.Obj.OID)
			} else {
				return oem.NilOID, fmt.Errorf("build: skolem argument %s has no usable binding", x.Name)
			}
		default:
			return oem.NilOID, fmt.Errorf("build: unsupported skolem argument %T", a)
		}
	}
	return oem.OID("&" + s.Functor + "(" + strings.Join(parts, ", ") + ")"), nil
}

func headValue(obj *oem.Object, t msl.Term, env match.Bindings, gen *oem.IDGen) error {
	switch x := t.(type) {
	case nil:
		// A bare <label> head constructs an empty set object.
		obj.Value = oem.Set{}
		return nil
	case *msl.Const:
		obj.Value = x.Value
		return nil
	case *msl.Param:
		return fmt.Errorf("build: unsubstituted parameter $%s in head value", x.Name)
	case *msl.Var:
		b, ok := env.Lookup(x.Name)
		if !ok {
			return fmt.Errorf("build: head value variable %s is unbound", x.Name)
		}
		if v, atomic := b.AsValue(); atomic {
			if set, isSet := v.(oem.Set); isSet {
				// A set-bound variable in value position: the object's
				// value is a copy of the set (Qw's bind_for_Rest1).
				members := make(oem.Set, len(set))
				for i, m := range set {
					members[i] = copied(m)
				}
				obj.Value = members
				return nil
			}
			obj.Value = v
			return nil
		}
		if b.Obj != nil {
			// An object-bound variable in value position inserts the
			// object as the sole subobject.
			obj.Value = oem.Set{copied(b.Obj)}
			return nil
		}
		return fmt.Errorf("build: head value variable %s has no usable binding", x.Name)
	case *msl.SetPattern:
		members := oem.Set{}
		for _, e := range x.Elems {
			switch el := e.(type) {
			case *msl.ObjectPattern:
				sub, err := construct(el, env, gen)
				if err != nil {
					return err
				}
				members = append(members, sub)
			case *msl.Var:
				b, ok := env.Lookup(el.Name)
				if !ok {
					return fmt.Errorf("build: head set variable %s is unbound", el.Name)
				}
				if b.Obj != nil {
					members = append(members, copied(b.Obj))
					break
				}
				if v, atomic := b.AsValue(); atomic {
					if set, isSet := v.(oem.Set); isSet {
						// Set-bound variables flatten one level: the
						// members join the constructed set directly, so
						// rest variables splice unmatched subobjects in.
						for _, m := range set {
							members = append(members, copied(m))
						}
						break
					}
					return fmt.Errorf("build: atomic-bound variable %s may only appear in a value position", el.Name)
				}
				return fmt.Errorf("build: head set variable %s has no usable binding", el.Name)
			default:
				return fmt.Errorf("build: unsupported head set element %T", e)
			}
		}
		if x.Rest != nil {
			b, ok := env.Lookup(x.Rest.Name)
			if !ok {
				return fmt.Errorf("build: head rest variable %s is unbound", x.Rest.Name)
			}
			v, atomic := b.AsValue()
			set, isSet := v.(oem.Set)
			if !atomic || !isSet {
				return fmt.Errorf("build: head rest variable %s is not bound to a set", x.Rest.Name)
			}
			for _, m := range set {
				members = append(members, copied(m))
			}
		}
		obj.Value = members
		return nil
	}
	return fmt.Errorf("build: unsupported head value term %T", t)
}

// copied deep-copies source material into a constructed result, clearing
// every oid so the generator assigns fresh ones: constructed objects never
// alias the ids of the objects they were derived from.
func copied(o *oem.Object) *oem.Object {
	cp := o.Clone()
	cp.Walk(func(w *oem.Object, _ int) bool {
		w.OID = oem.NilOID
		return true
	})
	return cp
}
