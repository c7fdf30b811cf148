// Package wrappertest checks wrapper.Source implementations against
// their advertised capabilities. A wrapper that over-promises — says it
// supports a query feature but evaluates it wrongly — poisons every
// mediator built on it, because the optimizer only relaxes queries the
// source admits it cannot handle; answers the source claims to compute
// are trusted as-is. Check probes each capability with queries derived
// from the source's own extent and compares the answers against the
// generic in-memory evaluator, so over-promising (and silent
// wrong-answer bugs generally) fail loudly in the source's own tests.
package wrappertest

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"medmaker/internal/msl"
	"medmaker/internal/oem"
	"medmaker/internal/wrapper"
)

// TB is the subset of testing.TB Conformance needs; it keeps this
// package importable outside tests.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Conformance runs Check and reports every violation on t.
func Conformance(t TB, src wrapper.Source, export []*oem.Object) {
	t.Helper()
	for _, err := range Check(src, export) {
		t.Errorf("conformance: %v", err)
	}
}

// Check probes src with capability-typed queries built from export (the
// source's full extent, as the generic evaluator should see it) and
// returns one error per violation:
//
//   - a query the advertised capabilities accept must succeed and return
//     answers structurally equal (as a multiset) to the generic
//     evaluator's answers over export;
//   - a query the advertised capabilities reject must fail with a
//     *wrapper.UnsupportedError — or, if the source answers anyway, the
//     answers must still be correct;
//   - the supported queries sent as one batch must answer the same;
//   - no query may be modified by answering it. The probes include rules
//     bound from an msl.Template, which share their unbound subtrees with
//     the template the way the engine's parameterized probes do.
func Check(src wrapper.Source, export []*oem.Object) []error {
	var errs []error
	probes, err := buildProbes(src.Name(), export)
	if err != nil {
		return []error{err}
	}
	refGen := oem.NewIDGen("wrappertest_ref")
	var batch []probe
	for _, p := range probes {
		supported := wrapper.CheckCapabilities(p.rule, src.Capabilities(), src.Name()) == nil
		got, qerr := src.Query(p.rule)
		if err := p.unchanged("Query"); err != nil {
			errs = append(errs, err)
		}
		if !supported {
			if qerr == nil {
				// Answering beyond the advertised capabilities is
				// allowed only if the answers are right.
				if err := compare(p, got, export, refGen); err != nil {
					errs = append(errs, fmt.Errorf("%s (unadvertised but answered): %w", p.name, err))
				}
				continue
			}
			if _, isUnsup := unwrapUnsupported(qerr); !isUnsup {
				errs = append(errs, fmt.Errorf("%s: unadvertised feature should fail with *wrapper.UnsupportedError, got %v", p.name, qerr))
			}
			continue
		}
		if qerr != nil {
			errs = append(errs, fmt.Errorf("%s: advertised feature failed: %v", p.name, qerr))
			continue
		}
		if err := compare(p, got, export, refGen); err != nil {
			errs = append(errs, err)
		}
		batch = append(batch, p)
	}
	qs := make([]*msl.Rule, len(batch))
	for i, p := range batch {
		qs[i] = p.rule
	}
	results, err := wrapper.QueryBatchContext(context.Background(), src, qs)
	for _, p := range batch {
		if err := p.unchanged("QueryBatch"); err != nil {
			errs = append(errs, err)
		}
	}
	if err != nil {
		return append(errs, fmt.Errorf("batch of the supported probes failed: %v", err))
	}
	for i, p := range batch {
		if err := compare(p, results[i], export, refGen); err != nil {
			errs = append(errs, fmt.Errorf("in a batch: %w", err))
		}
	}
	return errs
}

func unwrapUnsupported(err error) (*wrapper.UnsupportedError, bool) {
	for err != nil {
		if u, ok := err.(*wrapper.UnsupportedError); ok {
			return u, true
		}
		unwrapper, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = unwrapper.Unwrap()
	}
	return nil, false
}

type probe struct {
	name string
	rule *msl.Rule
	// text is the rule as built; shared is the template a bound rule
	// shares subtrees with, and sharedText that template as built.
	text       string
	shared     *msl.Template
	sharedText string
}

// unchanged reports a probe that answering through method modified.
func (p probe) unchanged(method string) error {
	if p.shared != nil {
		if got := p.shared.Rule().String(); got != p.sharedText {
			return fmt.Errorf("%s: %s modified the template the query was bound from: %s became %s",
				p.name, method, p.sharedText, got)
		}
	}
	if got := p.rule.String(); got != p.text {
		return fmt.Errorf("%s: %s modified the query: sent %s, left %s", p.name, method, p.text, got)
	}
	return nil
}

// buildProbes derives capability-typed queries from the extent: it picks
// a top-level object with at least two atomic children and uses its
// label and child values as the probe constants, so the probes are
// guaranteed to have non-empty reference answers.
func buildProbes(srcName string, export []*oem.Object) ([]probe, error) {
	label, kids := probeRecord(export)
	if label == "" {
		return nil, fmt.Errorf("wrappertest: export of %s has no set-valued object with two parseable atomic children; cannot derive probes", srcName)
	}
	mk := func(name, text string) (probe, error) {
		r, err := msl.ParseRule(text)
		if err != nil {
			return probe{}, fmt.Errorf("wrappertest: bad %s probe %q: %w", name, text, err)
		}
		return probe{name: name, rule: r, text: r.String()}, nil
	}
	specs := []struct{ name, text string }{
		{"plain fetch",
			fmt.Sprintf(`P :- P:<%s V>@%s.`, label, srcName)},
		{"pattern fetch",
			fmt.Sprintf(`P :- P:<%s {<%s X>}>@%s.`, label, kids[0].Label, srcName)},
		{"label variable",
			fmt.Sprintf(`P :- P:<Lab V>@%s.`, srcName)},
		{"value condition",
			fmt.Sprintf(`P :- P:<%s {<%s %s>}>@%s.`, label, kids[0].Label, kids[0].Value, srcName)},
		{"rest constraint",
			fmt.Sprintf(`P :- P:<%s {<%s X> | R:{<%s %s>}}>@%s.`, label, kids[0].Label, kids[1].Label, kids[1].Value, srcName)},
		{"wildcard",
			fmt.Sprintf(`<out V> :- <%%%s V>@%s.`, kids[0].Label, srcName)},
		{"multi-pattern join",
			fmt.Sprintf(`<out {<a A> <b B>}> :- <%s {<%s A>}>@%s AND <%s {<%s B>}>@%s.`,
				label, kids[0].Label, srcName, label, kids[1].Label, srcName)},
	}
	probes := make([]probe, 0, len(specs)+2)
	for _, s := range specs {
		p, err := mk(s.name, s.text)
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
	}
	// Parameterized probes: one template, bound twice — once with the
	// value condition, once leaving the slot free.
	tp, err := mk("template", fmt.Sprintf(`P :- P:<%s {<%s X> <%s Y>}>@%s.`,
		label, kids[0].Label, kids[1].Label, srcName))
	if err != nil {
		return nil, err
	}
	tmpl, err := msl.Compile(tp.rule, []string{"X", "Y"})
	if err != nil {
		return nil, err
	}
	for _, b := range []struct {
		name  string
		tuple []oem.Value
	}{
		{"bound value condition", []oem.Value{kids[0].Value, nil}},
		{"bound, all slots free", []oem.Value{nil, nil}},
	} {
		r, err := tmpl.Bind(b.tuple)
		if err != nil {
			return nil, fmt.Errorf("wrappertest: binding the %s probe: %w", b.name, err)
		}
		probes = append(probes, probe{name: b.name, rule: r, text: r.String(), shared: tmpl, sharedText: tp.text})
	}
	return probes, nil
}

// probeRecord finds a set-valued export object with two atomic children
// whose labels parse as MSL labels and whose values are probe-safe.
func probeRecord(export []*oem.Object) (label string, kids []*oem.Object) {
	for _, o := range export {
		if !parseableLabel(o.Label) {
			continue
		}
		var found []*oem.Object
		for _, sub := range o.Subobjects() {
			if sub.IsAtomic() && parseableLabel(sub.Label) && probeSafeAtom(sub.Value) {
				found = append(found, sub)
			}
			if len(found) == 2 {
				return o.Label, found
			}
		}
	}
	return "", nil
}

func parseableLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if r >= 'a' && r <= 'z' {
				continue
			}
			return false
		}
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			continue
		}
		return false
	}
	return true
}

func probeSafeAtom(v oem.Value) bool {
	switch v.(type) {
	case oem.String, oem.Int, oem.Bool:
		return true
	}
	return false
}

// compare checks the source's answers against the generic evaluator over
// the export, as order-insensitive multisets of canonical renderings.
func compare(p probe, got []*oem.Object, export []*oem.Object, refGen *oem.IDGen) error {
	want, err := wrapper.Eval(p.rule, export, refGen)
	if err != nil {
		return fmt.Errorf("%s: reference evaluation failed: %v", p.name, err)
	}
	if len(want) == 0 {
		return fmt.Errorf("%s: probe has an empty reference answer; probes must discriminate", p.name)
	}
	gs, ws := canonicalize(got), canonicalize(want)
	if len(gs) != len(ws) {
		return fmt.Errorf("%s: %d answers, reference has %d", p.name, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			return fmt.Errorf("%s: answer differs from reference:\n  got:  %s\n  want: %s", p.name, gs[i], ws[i])
		}
	}
	return nil
}

// canonicalize renders objects identity-free and order-free: oids
// cleared, subobject sets sorted recursively, then the renderings sorted.
func canonicalize(objs []*oem.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = canonicalString(o.Clone())
	}
	sort.Strings(out)
	return out
}

func canonicalString(o *oem.Object) string {
	var sb strings.Builder
	writeCanonical(&sb, o)
	return sb.String()
}

func writeCanonical(sb *strings.Builder, o *oem.Object) {
	sb.WriteByte('<')
	sb.WriteString(o.Label)
	sb.WriteByte(' ')
	if subs, ok := o.Value.(oem.Set); ok || o.Value == nil {
		parts := make([]string, len(subs))
		for i, sub := range subs {
			parts[i] = canonicalString(sub)
		}
		sort.Strings(parts)
		sb.WriteByte('{')
		sb.WriteString(strings.Join(parts, " "))
		sb.WriteByte('}')
	} else {
		sb.WriteString(o.Value.String())
	}
	sb.WriteByte('>')
}
