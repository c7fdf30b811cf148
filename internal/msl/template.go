package msl

import (
	"fmt"
	"sync"

	"medmaker/internal/oem"
)

// Template is a rule compiled once for repeated instantiation — the
// datamerge engine's parameterized query (the paper's Qcs) made cheap to
// fill. Compile records where each slot variable occurs; Bind then
// replaces the occurrences of the slots a tuple supplies by constants,
// copying only the path from the root down to each replaced occurrence
// and sharing every other subtree with the template's rule. A template
// and its rule are immutable once compiled, so one template serves
// concurrent binds, and the rules Bind returns must be treated as
// immutable too: their unreplaced subtrees belong to the template.
//
// Slots follow the variable-binding rules of parameterized queries:
// only variables in pattern positions (oids, labels, values, set
// elements, rest constraints, skolem and predicate arguments) are
// replaced; rest variables, object variables and bare head variables
// stay free whatever the tuple says. A label slot must be bound to a
// string.
type Template struct {
	rule  *Rule
	slots []string
	// text is the rule's MSL text, printed on first use (see Text).
	textOnce sync.Once
	text     string
	// nodes is the walk table, in preorder over the nodes Bind visits:
	// conjuncts, then terms.
	nodes []node
	// paths is the number of nodes with a slot below them: the most a
	// single Bind copies; patterns counts the object patterns among them,
	// which Bind allocates in one block.
	paths    int
	patterns int
	// params lists the template's own $parameters (slot index, or -1
	// when no slot carries the name): once any slot is bound, each must
	// be, since an instantiated query carries no parameters.
	params []param
	// err is the failure every non-empty Bind reports: a constant label
	// that is not a string.
	err error
}

// node is one walk-table entry. mask has a bit for every slot occurring
// in the node's subtree (slot i ≥ 63 shares bit 63), size counts the
// subtree's nodes so Bind can skip it, and slot is the slot a Var or
// Param leaf refers to (-1 for none).
type node struct {
	mask uint64
	size int32
	slot int32
}

type param struct {
	name string
	slot int32
}

// origin is what a bound rule remembers of its instantiation. self is
// the rule Bind returned, so a struct copy of a bound rule — which may
// then be edited — does not inherit the origin.
type origin struct {
	self  *Rule
	tmpl  *Template
	tuple []oem.Value
}

// boundRule is a rule and its origin in one allocation.
type boundRule struct {
	rule Rule
	org  origin
}

// Origin reports the template and tuple r was bound from by
// Template.Bind. A rule built any other way — parsed, cloned, rewritten,
// or copied out of a bound rule — has no origin. The tuple must not be
// modified.
func (r *Rule) Origin() (*Template, []oem.Value, bool) {
	if r.origin == nil || r.origin.self != r {
		return nil, nil, false
	}
	return r.origin.tmpl, r.origin.tuple, true
}

// Compile prepares r for binding the named slot variables. Slot names
// must be distinct; a name that never occurs in a slot position is
// accepted and never replaces anything.
func Compile(r *Rule, slots []string) (*Template, error) {
	t := &Template{rule: r, slots: slots}
	index := make(map[string]int32, len(slots))
	for i, s := range slots {
		if _, dup := index[s]; dup {
			return nil, fmt.Errorf("msl: slot %s named twice in template %s", s, r)
		}
		index[s] = int32(i)
	}
	c := compiler{t: t, index: index}
	for _, h := range r.Head {
		if p, ok := h.(*ObjectPattern); ok {
			c.term(p)
		}
	}
	for _, cj := range r.Tail {
		at := c.open(-1)
		switch x := cj.(type) {
		case *PatternConjunct:
			c.term(x.Pattern)
		case *PredicateConjunct:
			for _, a := range x.Args {
				c.term(a)
			}
		}
		c.close(at)
	}
	for _, n := range t.nodes {
		if n.mask != 0 {
			t.paths++
		}
	}
	return t, nil
}

// compiler fills a template's walk tables.
type compiler struct {
	t     *Template
	index map[string]int32
}

func slotBit(slot int32) uint64 { return 1 << min(slot, 63) }

// open appends a node referring to slot (-1: none) and returns its
// position; close finishes its subtree.
func (c *compiler) open(slot int32) int {
	at := len(c.t.nodes)
	n := node{size: 1, slot: slot}
	if slot >= 0 {
		n.mask = slotBit(slot)
	}
	c.t.nodes = append(c.t.nodes, n)
	return at
}

func (c *compiler) close(at int) {
	nodes := c.t.nodes
	nodes[at].size = int32(len(nodes) - at)
	for _, n := range nodes[at+1:] {
		nodes[at].mask |= n.mask
	}
}

func (c *compiler) lookup(name string) int32 {
	if s, ok := c.index[name]; ok {
		return s
	}
	return -1
}

func (c *compiler) term(t Term) {
	switch x := t.(type) {
	case *Var:
		c.open(c.lookup(x.Name))
	case *Param:
		s := c.lookup(x.Name)
		c.t.params = append(c.t.params, param{name: x.Name, slot: s})
		c.open(s)
	case *Skolem:
		at := c.open(-1)
		for _, a := range x.Args {
			c.term(a)
		}
		c.close(at)
	case *SetPattern:
		at := c.open(-1)
		for _, e := range x.Elems {
			c.term(e)
		}
		for _, rc := range x.RestConstraints {
			c.term(rc)
		}
		c.close(at)
	case *ObjectPattern:
		if lc, ok := x.Label.(*Const); ok && c.t.err == nil {
			if _, isStr := lc.Value.(oem.String); !isStr {
				c.t.err = fmt.Errorf("msl: parameter in label position must be a string, got %s", lc.Value)
			}
		}
		at := c.open(-1)
		if x.OID != nil {
			c.term(x.OID)
		}
		c.term(x.Label)
		if x.Value != nil {
			c.term(x.Value)
		}
		c.close(at)
		if c.t.nodes[at].mask != 0 {
			c.t.patterns++
		}
	default: // *Const, nil
		c.open(-1)
	}
}

// Rule returns the template's rule. It is shared and must not be
// modified.
func (t *Template) Rule() *Rule { return t.rule }

// Slots returns the slot variable names, in tuple order.
func (t *Template) Slots() []string { return t.slots }

// Text returns the rule's MSL text, printed once.
func (t *Template) Text() string {
	t.textOnce.Do(func() { t.text = t.rule.String() })
	return t.text
}

// Nodes reports how many nodes one Bind copies at most — the cost bound
// a server checks before binding a batch of tuples it was sent.
func (t *Template) Nodes() int { return t.paths }

// String renders the template the way the paper writes Qcs: every slot
// variable marked with '$'.
func (t *Template) String() string {
	if len(t.slots) == 0 {
		return t.Text()
	}
	slots := make(map[string]bool, len(t.slots))
	for _, s := range t.slots {
		slots[s] = true
	}
	return t.rule.RenameVars(func(s string) string {
		if slots[s] {
			return "$" + s
		}
		return s
	}).String()
}

// Bind instantiates the template for one tuple: tuple[i] is the value of
// slot i, or nil to leave that slot's variable free. The result is the
// rule with every occurrence of a bound slot replaced by its constant; it
// remembers its origin (see Rule.Origin) and shares every subtree without a bound
// slot with the template, so the tuple and the result must be left
// unmodified.
func (t *Template) Bind(tuple []oem.Value) (*Rule, error) {
	if len(tuple) != len(t.slots) {
		return nil, fmt.Errorf("msl: %d values for the %d slots of %s", len(tuple), len(t.slots), t.rule)
	}
	var present uint64
	for i, v := range tuple {
		if v != nil {
			present |= slotBit(int32(i))
		}
	}
	// Clipped, so appending to a bound rule's slices cannot write into
	// the template's.
	head, tail := t.rule.Head, t.rule.Tail
	br := &boundRule{rule: Rule{Head: head[:len(head):len(head)], Tail: tail[:len(tail):len(tail)]}}
	out := &br.rule
	br.org = origin{self: out, tmpl: t, tuple: tuple}
	out.origin = &br.org
	if present == 0 {
		return out, nil
	}
	if t.err != nil {
		return nil, t.err
	}
	for _, p := range t.params {
		if p.slot < 0 || tuple[p.slot] == nil {
			return nil, fmt.Errorf("msl: no value supplied for parameter $%s", p.name)
		}
	}
	// The constants and the copied object patterns come from one block
	// each; a slot's constant is shared by all its occurrences.
	b := binder{t: t, tuple: tuple, present: present,
		consts: make([]Const, len(tuple)), pats: make([]ObjectPattern, t.patterns)}
	for i, v := range tuple {
		b.consts[i].Value = v
	}
	copied := false
	for i, h := range t.rule.Head {
		p, ok := h.(*ObjectPattern)
		if !ok {
			continue
		}
		nt, err := b.term(p)
		if err != nil {
			return nil, err
		}
		if nt != Term(p) {
			if !copied {
				out.Head = append([]HeadTerm(nil), t.rule.Head...)
				copied = true
			}
			out.Head[i] = nt.(*ObjectPattern)
		}
	}
	copied = false
	for i, cj := range t.rule.Tail {
		nc, err := b.conjunct(cj)
		if err != nil {
			return nil, err
		}
		if nc != cj {
			if !copied {
				out.Tail = append([]Conjunct(nil), t.rule.Tail...)
				copied = true
			}
			out.Tail[i] = nc
		}
	}
	return out, nil
}

// binder walks a template's nodes in Compile's order, copying the nodes
// with a bound slot below them and sharing the rest.
type binder struct {
	t       *Template
	tuple   []oem.Value
	present uint64
	at      int
	consts  []Const
	pats    []ObjectPattern
}

// skip reports whether the node at the walk position has no bound slot
// below it, moving past its subtree if so.
func (b *binder) skip() bool {
	n := b.t.nodes[b.at]
	if n.mask&b.present == 0 {
		b.at += int(n.size)
		return true
	}
	b.at++
	return false
}

func (b *binder) conjunct(c Conjunct) (Conjunct, error) {
	if b.skip() {
		return c, nil
	}
	switch x := c.(type) {
	case *PatternConjunct:
		p, err := b.term(x.Pattern)
		if err != nil {
			return nil, err
		}
		out := *x
		out.Pattern = p.(*ObjectPattern)
		return &out, nil
	case *PredicateConjunct:
		args, err := b.terms(x.Args)
		if err != nil {
			return nil, err
		}
		return &PredicateConjunct{Name: x.Name, Args: args}, nil
	}
	return c, nil
}

func (b *binder) terms(ts []Term) ([]Term, error) {
	out := make([]Term, len(ts))
	for i, t := range ts {
		nt, err := b.term(t)
		if err != nil {
			return nil, err
		}
		out[i] = nt
	}
	return out, nil
}

func (b *binder) term(t Term) (Term, error) {
	slot := b.t.nodes[b.at].slot
	if b.skip() {
		return t, nil
	}
	switch x := t.(type) {
	case *Var, *Param:
		// A leaf survives skip only when its own slot is bound — or
		// shares bit 63 with a bound slot.
		if b.tuple[slot] != nil {
			return &b.consts[slot], nil
		}
		return t, nil
	case *Skolem:
		args, err := b.terms(x.Args)
		if err != nil {
			return nil, err
		}
		return &Skolem{Functor: x.Functor, Args: args}, nil
	case *SetPattern:
		out := &SetPattern{Rest: x.Rest}
		var err error
		if out.Elems, err = b.terms(x.Elems); err != nil {
			return nil, err
		}
		if len(x.RestConstraints) > 0 {
			out.RestConstraints = make([]*ObjectPattern, len(x.RestConstraints))
			for i, rc := range x.RestConstraints {
				nt, err := b.term(rc)
				if err != nil {
					return nil, err
				}
				out.RestConstraints[i] = nt.(*ObjectPattern)
			}
		}
		return out, nil
	case *ObjectPattern:
		out := &b.pats[0]
		b.pats = b.pats[1:]
		out.Wildcard, out.Type = x.Wildcard, x.Type
		var err error
		if x.OID != nil {
			if out.OID, err = b.term(x.OID); err != nil {
				return nil, err
			}
		}
		if out.Label, err = b.term(x.Label); err != nil {
			return nil, err
		}
		if lc, ok := out.Label.(*Const); ok && lc != x.Label {
			if _, isStr := lc.Value.(oem.String); !isStr {
				return nil, fmt.Errorf("msl: parameter in label position must be a string, got %s", lc.Value)
			}
		}
		if x.Value != nil {
			if out.Value, err = b.term(x.Value); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return t, nil
}
