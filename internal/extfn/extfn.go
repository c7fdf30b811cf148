// Package extfn implements MedMaker's external predicates: predicates in
// MSL rule tails that are evaluated by calling registered functions rather
// than by pattern matching.
//
// A predicate such as decomp(N, LN, FN) is declared in the mediator
// specification with one or more implementations, each usable under a
// particular binding pattern (adornment):
//
//	decomp(bound, free, free) by name_to_lnfn.
//	decomp(free, bound, bound) by lnfn_to_name.
//
// Operationally, to check decomp('Joe Chung', 'Chung', 'Joe') the engine
// may call name_to_lnfn with the bound name and compare the outputs, or
// call lnfn_to_name in the other direction; the specification promises the
// result is the same either way. Having several directions gives the
// optimizer flexibility at execution time. Comparison predicates (lt, le,
// gt, ge, eq, ne) are built in and need no declaration.
package extfn

import (
	"fmt"
	"sort"
	"sync"

	"medmaker/internal/match"
	"medmaker/internal/msl"
	"medmaker/internal/oem"
)

// Func is one callable direction of an external predicate. It receives the
// values of the bound argument positions, in argument order, and returns
// zero or more output tuples, each supplying values for the free positions
// in order. Returning several tuples makes the predicate multivalued
// (e.g. a thesaurus lookup); returning none means the call fails for these
// inputs.
type Func func(bound []oem.Value) ([][]oem.Value, error)

// Registry maps function names — the names after "by" in declarations —
// to Go implementations. It is safe for concurrent use. NewRegistry
// preloads the standard library (see stdlib.go).
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Func
}

// NewRegistry returns a registry preloaded with the standard function
// library.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]Func)}
	registerStdlib(r)
	return r
}

// Register makes fn available under the given name, replacing any previous
// registration.
func (r *Registry) Register(name string, fn Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Lookup returns the function registered under name.
func (r *Registry) Lookup(name string) (Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.funcs[name]
	return fn, ok
}

// Names returns the registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// impl is a resolved implementation: a declared adornment bound to a
// registered function.
type impl struct {
	adornment []msl.ArgMode
	fn        Func
	funcName  string
}

// Table resolves the external declarations of one specification against a
// registry, and evaluates predicate conjuncts. Build one per mediator.
type Table struct {
	byPred map[string][]impl
}

// NewTable resolves decls against reg. Every declared function must be
// registered; all declarations of one predicate must agree on arity.
func NewTable(reg *Registry, decls []*msl.ExternalDecl) (*Table, error) {
	t := &Table{byPred: make(map[string][]impl)}
	for _, d := range decls {
		fn, ok := reg.Lookup(d.Func)
		if !ok {
			return nil, fmt.Errorf("extfn: declaration %q references unregistered function %q", d.Pred, d.Func)
		}
		if prev := t.byPred[d.Pred]; len(prev) > 0 && len(prev[0].adornment) != len(d.Adornment) {
			return nil, fmt.Errorf("extfn: predicate %q declared with arities %d and %d",
				d.Pred, len(prev[0].adornment), len(d.Adornment))
		}
		t.byPred[d.Pred] = append(t.byPred[d.Pred], impl{
			adornment: d.Adornment,
			fn:        fn,
			funcName:  d.Func,
		})
	}
	return t, nil
}

// builtinComparisons are the always-available all-bound predicates.
var builtinComparisons = map[string]func(cmp int) bool{
	"lt": func(c int) bool { return c < 0 },
	"le": func(c int) bool { return c <= 0 },
	"gt": func(c int) bool { return c > 0 },
	"ge": func(c int) bool { return c >= 0 },
	"eq": func(c int) bool { return c == 0 },
	"ne": func(c int) bool { return c != 0 },
}

// structural builtins over set bindings: has(S, 'label') holds when the
// set bound to S contains a member with the label; lacks is its negation.
// They make irregularity queryable: "people without an e_mail" is
// <person {| R}>@src AND lacks(R, 'e_mail').
var builtinStructural = map[string]bool{"has": true, "lacks": true}

// IsBuiltin reports whether name is a built-in predicate (comparisons or
// the structural has/lacks).
func IsBuiltin(name string) bool {
	if _, ok := builtinComparisons[name]; ok {
		return ok
	}
	return builtinStructural[name]
}

// Knows reports whether the table can evaluate the named predicate
// (declared or built in).
func (t *Table) Knows(name string) bool {
	if IsBuiltin(name) {
		return true
	}
	_, ok := t.byPred[name]
	return ok
}

// CanEval reports whether some implementation of the conjunct's predicate
// is applicable when exactly the variables in bound are bound. The planner
// uses this to place predicate conjuncts as early as possible in the
// execution order.
func (t *Table) CanEval(p *msl.PredicateConjunct, bound map[string]bool) bool {
	isBound := func(name string) bool { return bound[name] }
	if IsBuiltin(p.Name) {
		for _, a := range p.Args {
			if v, ok := a.(*msl.Var); ok && !bound[v.Name] {
				return false
			}
		}
		return true
	}
	for _, im := range t.byPred[p.Name] {
		if len(im.adornment) != len(p.Args) {
			continue
		}
		if adornmentFits(im.adornment, p.Args, isBound) {
			return true
		}
	}
	return false
}

func adornmentFits(ad []msl.ArgMode, args []msl.Term, isBound func(string) bool) bool {
	for i, mode := range ad {
		if mode != msl.ArgBound {
			continue
		}
		switch a := args[i].(type) {
		case *msl.Const:
		case *msl.Var:
			if !isBound(a.Name) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Row is what EvalRow reads of its input row: the bindings, and for error
// messages the names of the bound variables, sorted. match.Env is one.
type Row interface {
	match.Bindings
	Names() []string
}

// VarBinding is one variable binding an evaluation adds to its row.
type VarBinding struct {
	Name    string
	Binding match.Binding
}

// Eval evaluates the predicate conjunct under env, returning the extended
// environments: EvalRow's extensions applied to env. For a check (all
// positions effectively bound) the result is env itself or nothing.
func (t *Table) Eval(p *msl.PredicateConjunct, env match.Env) ([]match.Env, error) {
	var out []match.Env
	err := t.EvalRow(p, env, func(ext []VarBinding) {
		e := env
		for _, b := range ext {
			e, _ = e.Extend(b.Name, b.Binding)
		}
		out = append(out, e)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvalRow evaluates the predicate conjunct under row and calls emit once
// per way the predicate holds, with the bindings it adds to the row: one
// per free-position variable the row leaves unbound. A free position
// whose variable the row (or an earlier position) already binds only has
// to agree (Equal) with that binding, which stands, and a constant in a
// free position must equal the output. A check emits an empty extension
// or nothing. emit must not retain ext past its return. Implementations
// are tried in declaration order and the first applicable one is used.
func (t *Table) EvalRow(p *msl.PredicateConjunct, row Row, emit func(ext []VarBinding)) error {
	if cmp, ok := builtinComparisons[p.Name]; ok {
		return evalComparison(p, cmp, row, emit)
	}
	if builtinStructural[p.Name] {
		return evalStructural(p, row, emit)
	}
	impls := t.byPred[p.Name]
	if len(impls) == 0 {
		return fmt.Errorf("extfn: undeclared predicate %q", p.Name)
	}
	isBound := func(name string) bool {
		_, ok := row.Lookup(name)
		return ok
	}
	for _, im := range impls {
		if len(im.adornment) != len(p.Args) {
			return fmt.Errorf("extfn: predicate %q called with %d arguments, declared with %d",
				p.Name, len(p.Args), len(im.adornment))
		}
		if !adornmentFits(im.adornment, p.Args, isBound) {
			continue
		}
		return t.call(p, im, row, emit)
	}
	return fmt.Errorf("extfn: no implementation of %q is applicable with bindings for %v",
		p.Name, row.Names())
}

func (t *Table) call(p *msl.PredicateConjunct, im impl, row Row, emit func([]VarBinding)) error {
	var inputs []oem.Value
	for i, mode := range im.adornment {
		if mode != msl.ArgBound {
			continue
		}
		v, err := argValue(p.Args[i], row)
		if err != nil {
			return fmt.Errorf("extfn: %s argument %d: %w", p.Name, i+1, err)
		}
		inputs = append(inputs, v)
	}
	tuples, err := im.fn(inputs)
	if err != nil {
		return fmt.Errorf("extfn: %s (via %s): %w", p.Name, im.funcName, err)
	}
	if len(tuples) == 0 {
		return nil
	}
	ext := make([]VarBinding, 0, len(im.adornment)-len(inputs))
	for _, tuple := range tuples {
		ext = ext[:0]
		ok := true
		ti := 0
		for i, mode := range im.adornment {
			if mode != msl.ArgFree {
				continue
			}
			if ti >= len(tuple) {
				return fmt.Errorf("extfn: %s (via %s) returned %d outputs, adornment has more free positions",
					p.Name, im.funcName, len(tuple))
			}
			val := tuple[ti]
			ti++
			switch a := p.Args[i].(type) {
			case *msl.Var:
				ext, ok = bindFree(ext, row, a.Name, match.BindVal(val))
			case *msl.Const:
				ok = a.Value.Equal(val)
			default:
				return fmt.Errorf("extfn: %s argument %d has unsupported term %s", p.Name, i+1, p.Args[i])
			}
			if !ok {
				break
			}
		}
		if ok {
			emit(ext)
		}
	}
	return nil
}

// bindFree binds a free-position variable the way Env.Extend would on the
// row extended by ext: a variable already bound (by the row or by an
// earlier position) must agree and keeps its binding; a new one is added.
func bindFree(ext []VarBinding, row Row, name string, b match.Binding) ([]VarBinding, bool) {
	for _, have := range ext {
		if have.Name == name {
			return ext, have.Binding.Equal(b)
		}
	}
	if have, bound := row.Lookup(name); bound {
		return ext, have.Equal(b)
	}
	return append(ext, VarBinding{Name: name, Binding: b}), true
}

func argValue(t msl.Term, row match.Bindings) (oem.Value, error) {
	switch a := t.(type) {
	case *msl.Const:
		return a.Value, nil
	case *msl.Var:
		b, ok := row.Lookup(a.Name)
		if !ok {
			return nil, fmt.Errorf("variable %s is unbound", a.Name)
		}
		v, ok := b.AsValue()
		if !ok {
			return nil, fmt.Errorf("variable %s is bound to a whole object, not a value", a.Name)
		}
		return v, nil
	}
	return nil, fmt.Errorf("unsupported argument term %s", t)
}

// evalStructural evaluates has(S, L)/lacks(S, L): S must be bound to a
// set of objects (typically a rest variable) and L to a string label.
func evalStructural(p *msl.PredicateConjunct, row match.Bindings, emit func([]VarBinding)) error {
	if len(p.Args) != 2 {
		return fmt.Errorf("extfn: %s takes 2 arguments, got %d", p.Name, len(p.Args))
	}
	sv, err := argValue(p.Args[0], row)
	if err != nil {
		return fmt.Errorf("extfn: %s: %w", p.Name, err)
	}
	set, ok := sv.(oem.Set)
	if !ok {
		return fmt.Errorf("extfn: %s: first argument must be a set (a rest variable), got %s", p.Name, sv.Kind())
	}
	lv, err := argValue(p.Args[1], row)
	if err != nil {
		return fmt.Errorf("extfn: %s: %w", p.Name, err)
	}
	label, ok := lv.(oem.String)
	if !ok {
		return fmt.Errorf("extfn: %s: second argument must be a label string, got %s", p.Name, lv)
	}
	found := set.First(string(label)) != nil
	if found == (p.Name == "has") {
		emit(nil)
	}
	return nil
}

func evalComparison(p *msl.PredicateConjunct, pass func(int) bool, row match.Bindings, emit func([]VarBinding)) error {
	if len(p.Args) != 2 {
		return fmt.Errorf("extfn: %s takes 2 arguments, got %d", p.Name, len(p.Args))
	}
	a, err := argValue(p.Args[0], row)
	if err != nil {
		return fmt.Errorf("extfn: %s: %w", p.Name, err)
	}
	b, err := argValue(p.Args[1], row)
	if err != nil {
		return fmt.Errorf("extfn: %s: %w", p.Name, err)
	}
	cmp, comparable := oem.CompareAtoms(a, b)
	if !comparable {
		// Incomparable values: eq fails, ne holds, orderings fail — the
		// tolerant behaviour irregular sources need.
		if p.Name == "ne" && !a.Equal(b) {
			emit(nil)
		}
		return nil
	}
	if pass(cmp) {
		emit(nil)
	}
	return nil
}
