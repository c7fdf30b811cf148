// Package msl defines the Mediator Specification Language (MSL) of
// MedMaker: its abstract syntax, parser, and printer.
//
// MSL is a datalog-like, OEM-targeted view-definition and query language.
// A specification is a set of rules "head :- tail" plus declarations of
// external functions. Tails are conjunctions of object patterns matched
// against sources and of external-predicate atoms; heads describe the
// virtual objects of the mediator view. The same language doubles as the
// query language: a query is a rule whose head is materialized at the
// client.
//
// Concrete syntax (following the paper's examples):
//
//	<cs_person {<name N> <rel R> Rest1 Rest2}> :-
//	    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
//	    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
//	    AND decomp(N, LN, FN).
//
//	decomp(bound, free, free) by name_to_lnfn.
//	decomp(free, bound, bound) by lnfn_to_name.
//
// Object patterns take 1–4 fields: <label>, <label value>,
// <oid label value>, or <oid label type value>. Identifiers starting with
// an upper-case letter are variables; lower-case identifiers are label
// constants; 'quoted' text, numbers, and true/false are atomic constants.
// Conjuncts are separated by AND or a comma; rules end with a period.
// "V : <pattern>" binds the object variable V to each matched object; a
// trailing "@name" names the source a tail pattern is matched against.
// Inside a set pattern "| Rest" captures the remaining subobjects, and
// "| Rest:{<year 3>}" additionally constrains the captured rest set
// (Section 3.3 of the paper). A label may be prefixed with "%" to request
// wildcard matching at any depth (the paper's wildcard feature), and
// "$name" terms are placeholders that parameterized queries fill at
// execution time. In rule heads, an oid field of the form f(X, …) builds
// a semantic object-id, MedMaker's object-fusion mechanism.
package msl

import (
	"fmt"
	"sort"
	"strings"

	"medmaker/internal/oem"
)

// Term is a value position in a pattern or predicate: a variable, an
// atomic constant, a parameter placeholder, a set pattern, an object
// pattern, or a skolem (semantic-oid) term.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is an MSL variable. Variables bind to atomic values, whole objects,
// labels, oids, or sets of objects depending on the position they appear
// in — the free mixing of schema and data that resolves schematic
// discrepancies.
type Var struct {
	Name string
}

func (*Var) isTerm() {}

// String implements fmt.Stringer.
func (v *Var) String() string { return v.Name }

// Const is an atomic constant.
type Const struct {
	Value oem.Value
}

func (*Const) isTerm() {}

// String implements fmt.Stringer.
func (c *Const) String() string {
	if c.Value == nil {
		return "null"
	}
	return c.Value.String()
}

// NewConst wraps a Go value (via oem.Atom) as a constant term.
func NewConst(v any) *Const { return &Const{Value: oem.Atom(v)} }

// Param is a $name placeholder in a parameterized query; the datamerge
// engine substitutes a constant per input tuple before sending the query
// to a source.
type Param struct {
	Name string
}

func (*Param) isTerm() {}

// String implements fmt.Stringer.
func (p *Param) String() string { return "$" + p.Name }

// Skolem is a semantic object-id term f(args) usable in the oid field of
// head patterns. Objects constructed with equal skolem values share their
// identity across rules and queries, which is MedMaker's object-fusion
// mechanism.
type Skolem struct {
	Functor string
	Args    []Term
}

func (*Skolem) isTerm() {}

// String implements fmt.Stringer.
func (s *Skolem) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return s.Functor + "(" + strings.Join(parts, ", ") + ")"
}

// SetPattern is the {elem … | Rest} form: each element must match a
// distinct subobject (subset semantics — unmentioned subobjects are
// allowed even without a rest variable), and Rest, when present, captures
// the subobjects not consumed by the elements. RestConstraints further
// constrain the captured rest set: each constraint pattern must match some
// member of it ("Rest:{<year 3>}").
type SetPattern struct {
	// Elems are the element patterns: *ObjectPattern for structural
	// elements, or *Var for variables previously bound to objects or sets
	// (in heads, set-bound variables are flattened one level into the
	// constructed set).
	Elems []Term
	// Rest is the rest variable, or nil.
	Rest *Var
	// RestConstraints are patterns pushed into the rest variable by the
	// VE&AO or written by the user; each must match a member of the rest
	// set.
	RestConstraints []*ObjectPattern
}

func (*SetPattern) isTerm() {}

// String implements fmt.Stringer.
func (s *SetPattern) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range s.Elems {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	if s.Rest != nil {
		if len(s.Elems) > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString("| ")
		sb.WriteString(s.Rest.Name)
		if len(s.RestConstraints) > 0 {
			sb.WriteString(":{")
			for i, c := range s.RestConstraints {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(c.String())
			}
			sb.WriteByte('}')
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// ObjectPattern is the <oid label type value> form with optional fields.
type ObjectPattern struct {
	// OID is the object-id field: nil (don't care), *Var, *Const, or, in
	// rule heads, *Skolem for semantic object-ids.
	OID Term
	// Label is the label field: *Var, *Const carrying an oem.String, or
	// *Param in a parameterized query template. It is never nil; "any
	// label" is expressed with a variable.
	Label Term
	// Wildcard requests descent: the pattern may match an object at any
	// depth below the position where it appears, not only a direct
	// subobject (written %label).
	Wildcard bool
	// Type optionally constrains the matched object's kind (the third
	// field of the 4-field form); nil means unconstrained.
	Type *oem.Kind
	// Value is the value field: nil (don't care), *Var, *Const, *Param,
	// or *SetPattern.
	Value Term
}

func (*ObjectPattern) isTerm() {}

// String implements fmt.Stringer.
func (p *ObjectPattern) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	if p.OID != nil {
		sb.WriteString(p.OID.String())
		sb.WriteByte(' ')
	}
	if p.Wildcard {
		sb.WriteByte('%')
	}
	sb.WriteString(labelString(p.Label))
	if p.Type != nil {
		sb.WriteByte(' ')
		sb.WriteString(p.Type.String())
	}
	if p.Value != nil {
		sb.WriteByte(' ')
		sb.WriteString(p.Value.String())
	}
	sb.WriteByte('>')
	return sb.String()
}

// labelString renders a label term, leaving identifier-like constant
// labels unquoted as the concrete syntax writes them.
func labelString(t Term) string {
	c, ok := t.(*Const)
	if !ok {
		return t.String()
	}
	s, ok := c.Value.(oem.String)
	if !ok || !isIdentLabel(string(s)) {
		return t.String()
	}
	return string(s)
}

// isIdentLabel reports whether s lexes as a bare lower-case label.
func isIdentLabel(s string) bool {
	if s == "" {
		return false
	}
	first := rune(s[0])
	if first >= 'A' && first <= 'Z' || first == '_' || first == '$' || first == '&' {
		return false
	}
	for _, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	switch s {
	case "true", "false", "and":
		return false
	}
	// Type names would be re-read as the type field in 3-field patterns.
	if _, isType := oem.KindFromName(s); isType {
		return false
	}
	return true
}

// LabelName returns the constant label, or "" when the label is a
// variable.
func (p *ObjectPattern) LabelName() string {
	if c, ok := p.Label.(*Const); ok {
		if s, ok := c.Value.(oem.String); ok {
			return string(s)
		}
	}
	return ""
}

// Conjunct is one condition in a rule tail: a pattern matched against a
// source or an external-predicate atom.
type Conjunct interface {
	fmt.Stringer
	isConjunct()
}

// PatternConjunct matches an object pattern against the top-level objects
// of a source (or, for wildcard patterns, at any depth).
type PatternConjunct struct {
	// ObjVar optionally binds the whole matched object ("JC : <…>").
	ObjVar *Var
	// Pattern is the structural condition.
	Pattern *ObjectPattern
	// Source names the wrapper or mediator the pattern is matched
	// against ("@cs"). Empty means the default source of the enclosing
	// program (e.g. the mediator a query is addressed to).
	Source string
	// Negated inverts the conjunct ("NOT <…>@src"): a binding survives
	// exactly when no source object matches the pattern under it.
	// Negated conjuncts bind nothing (safe, stratified negation): they
	// run after the positive conjuncts, and an object variable cannot be
	// attached.
	Negated bool
}

func (*PatternConjunct) isConjunct() {}

// String implements fmt.Stringer.
func (c *PatternConjunct) String() string {
	var sb strings.Builder
	if c.Negated {
		sb.WriteString("NOT ")
	}
	if c.ObjVar != nil {
		sb.WriteString(c.ObjVar.Name)
		sb.WriteByte(':')
	}
	sb.WriteString(c.Pattern.String())
	if c.Source != "" {
		sb.WriteByte('@')
		sb.WriteString(c.Source)
	}
	return sb.String()
}

// PredicateConjunct is an external-predicate atom such as
// decomp(N, LN, FN). Built-in comparison predicates (lt, le, gt, ge, eq,
// ne) use the same form.
type PredicateConjunct struct {
	Name string
	Args []Term
}

func (*PredicateConjunct) isConjunct() {}

// String implements fmt.Stringer.
func (c *PredicateConjunct) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// HeadTerm is one element of a rule head: an object pattern describing a
// constructed view object, or a bare variable (as in query "JC :- JC:<…>")
// whose bound objects are returned directly.
type HeadTerm interface {
	fmt.Stringer
	isHeadTerm()
}

func (*ObjectPattern) isHeadTerm() {}
func (*Var) isHeadTerm()           {}

// Rule is one MSL rule: Head :- Tail. In a mediator specification the
// head objects are virtual; when the rule is a query they are materialized
// at the client.
type Rule struct {
	Head []HeadTerm
	Tail []Conjunct
	// origin is set on rules Template.Bind instantiates (see Origin).
	origin *origin
}

// String implements fmt.Stringer, printing the rule on one line with a
// terminating period.
func (r *Rule) String() string {
	var sb strings.Builder
	for i, h := range r.Head {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(h.String())
	}
	sb.WriteString(" :- ")
	for i, c := range r.Tail {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// ArgMode says whether an argument position of an external function
// implementation expects a bound input or produces a free output.
type ArgMode int

const (
	// ArgBound marks an input position that must be bound before the call.
	ArgBound ArgMode = iota
	// ArgFree marks an output position the function fills in.
	ArgFree
)

// String implements fmt.Stringer.
func (m ArgMode) String() string {
	if m == ArgBound {
		return "bound"
	}
	return "free"
}

// ExternalDecl declares one implementation of an external predicate:
// "decomp(bound, free, free) by name_to_lnfn." Several declarations for
// the same predicate with different adornments give the optimizer
// flexibility in choosing call directions.
type ExternalDecl struct {
	// Pred is the predicate name used in rule tails.
	Pred string
	// Adornment gives the binding pattern this implementation accepts.
	Adornment []ArgMode
	// Func names the registered Go function implementing this direction.
	Func string
}

// String implements fmt.Stringer.
func (d *ExternalDecl) String() string {
	parts := make([]string, len(d.Adornment))
	for i, m := range d.Adornment {
		parts[i] = m.String()
	}
	return fmt.Sprintf("%s(%s) by %s.", d.Pred, strings.Join(parts, ", "), d.Func)
}

// Program is a parsed MSL text: rules plus external declarations. A
// mediator specification and a client query are both Programs; a query
// typically has a single rule.
type Program struct {
	Rules []*Rule
	Decls []*ExternalDecl
}

// String implements fmt.Stringer, one rule or declaration per line.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	for _, d := range p.Decls {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Vars returns the names of all variables in the rule, sorted.
func (r *Rule) Vars() []string {
	seen := map[string]bool{}
	for _, h := range r.Head {
		collectHeadVars(h, seen)
	}
	for _, c := range r.Tail {
		collectConjunctVars(c, seen)
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HeadVars returns the names of variables appearing in the rule head,
// sorted. These are the variables whose bindings survive projection before
// object construction.
func (r *Rule) HeadVars() []string {
	seen := map[string]bool{}
	for _, h := range r.Head {
		collectHeadVars(h, seen)
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectHeadVars(h HeadTerm, seen map[string]bool) {
	switch t := h.(type) {
	case *Var:
		seen[t.Name] = true
	case *ObjectPattern:
		collectTermVars(t, seen)
	}
}

func collectConjunctVars(c Conjunct, seen map[string]bool) {
	switch t := c.(type) {
	case *PatternConjunct:
		if t.ObjVar != nil {
			seen[t.ObjVar.Name] = true
		}
		collectTermVars(t.Pattern, seen)
	case *PredicateConjunct:
		for _, a := range t.Args {
			collectTermVars(a, seen)
		}
	}
}

func collectTermVars(t Term, seen map[string]bool) {
	switch x := t.(type) {
	case nil:
	case *Var:
		seen[x.Name] = true
	case *Const, *Param:
	case *Skolem:
		for _, a := range x.Args {
			collectTermVars(a, seen)
		}
	case *SetPattern:
		for _, e := range x.Elems {
			collectTermVars(e, seen)
		}
		if x.Rest != nil {
			seen[x.Rest.Name] = true
		}
		for _, c := range x.RestConstraints {
			collectTermVars(c, seen)
		}
	case *ObjectPattern:
		if x.OID != nil {
			collectTermVars(x.OID, seen)
		}
		collectTermVars(x.Label, seen)
		if x.Value != nil {
			collectTermVars(x.Value, seen)
		}
	}
}

// RenameVars returns a deep copy of the rule with every variable renamed
// through f. Before matching a query against specification rules, the
// VE&AO renames apart so that no two rules (or a query and a rule) share
// variable names.
func (r *Rule) RenameVars(f func(string) string) *Rule {
	out := &Rule{}
	for _, h := range r.Head {
		switch t := h.(type) {
		case *Var:
			out.Head = append(out.Head, &Var{Name: f(t.Name)})
		case *ObjectPattern:
			out.Head = append(out.Head, renameTerm(t, f).(*ObjectPattern))
		}
	}
	for _, c := range r.Tail {
		out.Tail = append(out.Tail, renameConjunct(c, f))
	}
	return out
}

func renameConjunct(c Conjunct, f func(string) string) Conjunct {
	switch t := c.(type) {
	case *PatternConjunct:
		out := &PatternConjunct{Source: t.Source, Negated: t.Negated}
		if t.ObjVar != nil {
			out.ObjVar = &Var{Name: f(t.ObjVar.Name)}
		}
		out.Pattern = renameTerm(t.Pattern, f).(*ObjectPattern)
		return out
	case *PredicateConjunct:
		out := &PredicateConjunct{Name: t.Name, Args: make([]Term, len(t.Args))}
		for i, a := range t.Args {
			out.Args[i] = renameTerm(a, f)
		}
		return out
	}
	return c
}

func renameTerm(t Term, f func(string) string) Term {
	switch x := t.(type) {
	case nil:
		return nil
	case *Var:
		return &Var{Name: f(x.Name)}
	case *Const:
		return x
	case *Param:
		return x
	case *Skolem:
		out := &Skolem{Functor: x.Functor, Args: make([]Term, len(x.Args))}
		for i, a := range x.Args {
			out.Args[i] = renameTerm(a, f)
		}
		return out
	case *SetPattern:
		out := &SetPattern{}
		for _, e := range x.Elems {
			out.Elems = append(out.Elems, renameTerm(e, f))
		}
		if x.Rest != nil {
			out.Rest = &Var{Name: f(x.Rest.Name)}
		}
		for _, c := range x.RestConstraints {
			out.RestConstraints = append(out.RestConstraints, renameTerm(c, f).(*ObjectPattern))
		}
		return out
	case *ObjectPattern:
		out := &ObjectPattern{Wildcard: x.Wildcard, Type: x.Type}
		if x.OID != nil {
			out.OID = renameTerm(x.OID, f)
		}
		out.Label = renameTerm(x.Label, f)
		if x.Value != nil {
			out.Value = renameTerm(x.Value, f)
		}
		return out
	}
	return t
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	return r.RenameVars(func(s string) string { return s })
}

// Sources returns the distinct source names referenced by the rule's
// pattern conjuncts, sorted; the empty name is included if any conjunct
// lacks an explicit source.
func (r *Rule) Sources() []string {
	seen := map[string]bool{}
	for _, c := range r.Tail {
		if pc, ok := c.(*PatternConjunct); ok {
			seen[pc.Source] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
