package msl

import "sort"

// Params returns the names of all $parameters in the rule, sorted.
func Params(r *Rule) []string {
	seen := map[string]bool{}
	var walk func(t Term)
	walk = func(t Term) {
		switch x := t.(type) {
		case *Param:
			seen[x.Name] = true
		case *Skolem:
			for _, a := range x.Args {
				walk(a)
			}
		case *SetPattern:
			for _, e := range x.Elems {
				walk(e)
			}
			for _, c := range x.RestConstraints {
				walk(c)
			}
		case *ObjectPattern:
			if x.OID != nil {
				walk(x.OID)
			}
			walk(x.Label)
			if x.Value != nil {
				walk(x.Value)
			}
		}
	}
	for _, h := range r.Head {
		if p, ok := h.(*ObjectPattern); ok {
			walk(p)
		}
	}
	for _, c := range r.Tail {
		switch t := c.(type) {
		case *PatternConjunct:
			walk(t.Pattern)
		case *PredicateConjunct:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
