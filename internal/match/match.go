package match

import (
	"fmt"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// eenv is the matcher's internal environment: a base row of bindings
// plus a persistent chain of extensions. Set-pattern matching enumerates
// many candidate bindings and discards most of them; extending a chain is
// one small allocation, where extending a map copies every entry, so an
// Env is only built — by materialize — for environments that survive the
// whole pattern, and only when the caller asks for Envs (Tops, Object);
// TopsEach hands the chain itself to its caller.
type eenv struct {
	base Bindings // nil for the empty environment
	node *extNode
}

// extNode is one extension; chains share tails, so sibling branches of
// the set-pattern enumeration never copy each other's bindings.
type extNode struct {
	prev *extNode
	name string
	b    Binding
}

func (e eenv) lookup(name string) (Binding, bool) {
	for nd := e.node; nd != nil; nd = nd.prev {
		if nd.name == name {
			return nd.b, true
		}
	}
	if e.base == nil {
		return Binding{}, false
	}
	return e.base.Lookup(name)
}

// extend mirrors Env.Extend: already-bound names must agree, new names
// grow the chain.
func (e eenv) extend(name string, b Binding) (eenv, bool) {
	if prev, bound := e.lookup(name); bound {
		if prev.Equal(b) {
			return e, true
		}
		return eenv{}, false
	}
	return eenv{base: e.base, node: &extNode{prev: e.node, name: name, b: b}}, true
}

// materialize flattens the chain over an Env base into a plain Env. An
// unextended chain returns the base itself, matching Env.Extend's sharing
// behavior.
func (e eenv) materialize() Env {
	base, _ := e.base.(Env)
	if e.node == nil {
		return base
	}
	n := len(base)
	for nd := e.node; nd != nil; nd = nd.prev {
		n++
	}
	out := make(Env, n)
	for k, v := range base {
		out[k] = v
	}
	// Names are unique along a chain by construction, so order is moot.
	for nd := e.node; nd != nil; nd = nd.prev {
		out[nd.name] = nd.b
	}
	return out
}

func materializeAll(envs []eenv) []Env {
	if envs == nil {
		return nil
	}
	out := make([]Env, len(envs))
	for i, e := range envs {
		out[i] = e.materialize()
	}
	return out
}

// Match is one environment under which a pattern matched, as TopsEach
// hands it out: the row the match ran under plus the bindings the match
// added, read without building a map.
type Match struct{ e eenv }

// Lookup returns the binding of a variable: the match's own binding, or
// else the row's.
func (m Match) Lookup(name string) (Binding, bool) { return m.e.lookup(name) }

// Object returns every extension of env under which the pattern matches
// obj. A pattern with the wildcard flag may match obj itself or any
// descendant. An error is reported only for malformed patterns (e.g. an
// unsubstituted $parameter); a failed match is simply an empty result.
func Object(p *msl.ObjectPattern, obj *oem.Object, env Env) ([]Env, error) {
	got, err := objectE(p, obj, eenv{base: env})
	return materializeAll(got), err
}

func objectE(p *msl.ObjectPattern, obj *oem.Object, env eenv) ([]eenv, error) {
	if !p.Wildcard {
		return matchHere(p, obj, env)
	}
	var out []eenv
	var walkErr error
	walkOnce(obj, make(map[*oem.Object]bool), func(cand *oem.Object) bool {
		envs, err := matchHere(p, cand, env)
		if err != nil {
			walkErr = err
			return false
		}
		out = append(out, envs...)
		return true
	})
	return out, walkErr
}

// walkOnce is Object.Walk with pointer-identity deduplication: an object
// reachable along several paths is visited, and descended into, exactly
// once per seen-set. OEM values are DAGs, not trees — fusion and shared
// construction alias subobjects — and a plain walk re-explores a shared
// subobject once per path, exponentially on chained sharing, while the
// duplicate visits contribute only duplicate rows the engine deduplicates
// anyway (a pointer-identical candidate yields byte-identical envs).
// Returning false from visit aborts the whole walk.
func walkOnce(o *oem.Object, seen map[*oem.Object]bool, visit func(*oem.Object) bool) bool {
	if o == nil || seen[o] {
		return true
	}
	seen[o] = true
	if !visit(o) {
		return false
	}
	for _, sub := range o.Subobjects() {
		if !walkOnce(sub, seen, visit) {
			return false
		}
	}
	return true
}

// Tops matches the pattern against each of the given top-level objects,
// optionally binding objVar to the matched object, and returns all
// resulting environments. This is the semantics of one tail pattern
// conjunct evaluated against a source.
func Tops(p *msl.ObjectPattern, objVar *msl.Var, tops []*oem.Object, env Env) ([]Env, error) {
	out, err := topsE(p, objVar, tops, eenv{base: env})
	if err != nil {
		return nil, err
	}
	return materializeAll(out), nil
}

// TopsEach is Tops under a row read through row (nil for the empty
// environment), handing each resulting environment to yield, in Tops's
// order, instead of materializing it: the caller reads the variables it
// keeps with Match.Lookup. yield is called only once matching has
// succeeded over every object; on error it is not called at all.
func TopsEach(p *msl.ObjectPattern, objVar *msl.Var, tops []*oem.Object, row Bindings, yield func(Match)) error {
	out, err := topsE(p, objVar, tops, eenv{base: row})
	if err != nil {
		return err
	}
	for _, e := range out {
		yield(Match{e})
	}
	return nil
}

func topsE(p *msl.ObjectPattern, objVar *msl.Var, tops []*oem.Object, base eenv) ([]eenv, error) {
	var out []eenv
	// One seen-set across all tops: a subobject shared between two
	// top-level objects matches once, not once per top.
	var seen map[*oem.Object]bool
	if p.Wildcard {
		seen = make(map[*oem.Object]bool)
	}
	for _, obj := range tops {
		if !p.Wildcard {
			envs, err := matchWithObjVar(p, objVar, obj, base)
			if err != nil {
				return nil, err
			}
			out = append(out, envs...)
			continue
		}
		// Wildcard: any level of this object's structure.
		var walkErr error
		walkOnce(obj, seen, func(cand *oem.Object) bool {
			envs, err := matchWithObjVar(p, objVar, cand, base)
			if err != nil {
				walkErr = err
				return false
			}
			out = append(out, envs...)
			return true
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return out, nil
}

func matchWithObjVar(p *msl.ObjectPattern, objVar *msl.Var, obj *oem.Object, env eenv) ([]eenv, error) {
	// Bind the object variable first so the pattern can reuse it.
	if objVar != nil {
		ext, ok := env.extend(objVar.Name, BindObj(obj))
		if !ok {
			return nil, nil
		}
		env = ext
	}
	np := *p
	np.Wildcard = false
	return matchHere(&np, obj, env)
}

// matchHere matches the pattern against obj itself (no descent).
func matchHere(p *msl.ObjectPattern, obj *oem.Object, env eenv) ([]eenv, error) {
	// Type constraint.
	if p.Type != nil && obj.Kind() != *p.Type {
		return nil, nil
	}
	// OID field.
	switch ot := p.OID.(type) {
	case nil:
	case *msl.Const:
		if !ot.Value.Equal(oem.String(string(obj.OID))) {
			return nil, nil
		}
	case *msl.Var:
		ext, ok := env.extend(ot.Name, BindString(string(obj.OID)))
		if !ok {
			return nil, nil
		}
		env = ext
	default:
		return nil, fmt.Errorf("match: unsupported oid term %s", p.OID)
	}
	// Label field.
	switch lt := p.Label.(type) {
	case *msl.Const:
		s, isStr := lt.Value.(oem.String)
		if !isStr || string(s) != obj.Label {
			return nil, nil
		}
	case *msl.Var:
		var ok bool
		env, ok = env.extend(lt.Name, BindString(obj.Label))
		if !ok {
			return nil, nil
		}
	case *msl.Param:
		return nil, fmt.Errorf("match: unsubstituted parameter $%s in label position", lt.Name)
	default:
		return nil, fmt.Errorf("match: unsupported label term %s", p.Label)
	}
	// Value field.
	switch vt := p.Value.(type) {
	case nil:
		return []eenv{env}, nil
	case *msl.Const:
		if obj.Value != nil && obj.Value.Equal(vt.Value) {
			return []eenv{env}, nil
		}
		return nil, nil
	case *msl.Var:
		val := obj.Value
		if val == nil {
			val = oem.Set(nil)
		}
		ext, ok := env.extend(vt.Name, BindVal(val))
		if !ok {
			return nil, nil
		}
		return []eenv{ext}, nil
	case *msl.SetPattern:
		if obj.Kind() != oem.KindSet {
			return nil, nil
		}
		return matchSet(vt, obj.Subobjects(), env)
	case *msl.Param:
		return nil, fmt.Errorf("match: unsubstituted parameter $%s in value position", vt.Name)
	}
	return nil, fmt.Errorf("match: unsupported value term %s", p.Value)
}

// matchSet matches the element patterns against distinct subobjects,
// enumerating every injective assignment, and binds the rest variable to
// the unconsumed subobjects. Wildcard elements may match at any depth
// below and do not consume from the rest set.
func matchSet(sp *msl.SetPattern, subs oem.Set, env eenv) ([]eenv, error) {
	used := make([]bool, len(subs))
	var out []eenv
	var rec func(i int, env eenv) error
	rec = func(i int, env eenv) error {
		if i == len(sp.Elems) {
			final, err := finishRest(sp, subs, used, env)
			if err != nil {
				return err
			}
			out = append(out, final...)
			return nil
		}
		switch elem := sp.Elems[i].(type) {
		case *msl.ObjectPattern:
			if elem.Wildcard {
				// Search all strict descendants; no consumption. One
				// seen-set spans the whole sub loop, so a descendant
				// shared between siblings is tried once per element.
				inner := *elem
				inner.Wildcard = false
				seen := make(map[*oem.Object]bool)
				for _, sub := range subs {
					var walkErr error
					walkOnce(sub, seen, func(cand *oem.Object) bool {
						envs, err := matchHere(&inner, cand, env)
						if err != nil {
							walkErr = err
							return false
						}
						for _, e := range envs {
							if err := rec(i+1, e); err != nil {
								walkErr = err
								return false
							}
						}
						return true
					})
					if walkErr != nil {
						return walkErr
					}
				}
				return nil
			}
			for j, sub := range subs {
				if used[j] {
					continue
				}
				envs, err := matchHere(elem, sub, env)
				if err != nil {
					return err
				}
				if len(envs) == 0 {
					continue
				}
				used[j] = true
				for _, e := range envs {
					if err := rec(i+1, e); err != nil {
						used[j] = false
						return err
					}
				}
				used[j] = false
			}
			return nil
		case *msl.Var:
			// A variable element binds to one subobject.
			for j, sub := range subs {
				if used[j] {
					continue
				}
				ext, ok := env.extend(elem.Name, BindObj(sub))
				if !ok {
					continue
				}
				used[j] = true
				if err := rec(i+1, ext); err != nil {
					used[j] = false
					return err
				}
				used[j] = false
			}
			return nil
		default:
			return fmt.Errorf("match: unsupported set element %s", sp.Elems[i])
		}
	}
	if err := rec(0, env); err != nil {
		return nil, err
	}
	return out, nil
}

// finishRest binds the rest variable (if any) to the unconsumed subobjects
// and checks the rest constraints.
func finishRest(sp *msl.SetPattern, subs oem.Set, used []bool, env eenv) ([]eenv, error) {
	var rest oem.Set
	if sp.Rest != nil || len(sp.RestConstraints) > 0 {
		rest = make(oem.Set, 0, len(subs))
		for j, sub := range subs {
			if !used[j] {
				rest = append(rest, sub)
			}
		}
	}
	// Each rest constraint must match some member of the rest set. The
	// constraints may bind variables; enumerate the combinations.
	envs := []eenv{env}
	for _, c := range sp.RestConstraints {
		var next []eenv
		for _, e := range envs {
			for _, sub := range rest {
				got, err := objectE(c, sub, e)
				if err != nil {
					return nil, err
				}
				next = append(next, got...)
			}
		}
		if len(next) == 0 {
			return nil, nil
		}
		envs = next
	}
	if sp.Rest == nil {
		return envs, nil
	}
	var out []eenv
	for _, e := range envs {
		ext, ok := e.extend(sp.Rest.Name, BindVal(rest))
		if ok {
			out = append(out, ext)
		}
	}
	return out, nil
}
