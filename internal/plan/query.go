package plan

import (
	"fmt"

	"medmaker/internal/engine"
	"medmaker/internal/msl"
	"medmaker/internal/wrapper"
)

// queryNode builds the query node for one pattern conjunct: it decides
// what query the source is sent (pushing the conditions the source can
// evaluate and parameterizing on the variables bound so far), while the
// extraction step always re-matches the full original pattern, keeping the
// plan correct whatever was pushed. A conjunct on an in-memory extent
// (engine.MatExtent) becomes a MatScanNode: the same query, scanned in
// place with no exchange.
func (p *Planner) queryNode(pc *msl.PatternConjunct, child engine.Node, bound map[string]bool, needed map[string]bool) (engine.Node, error) {
	sent, paramVars, err := p.sendPattern(pc, bound, child != nil)
	if err != nil {
		return nil, err
	}

	// The sent query materializes the matched objects directly: a bare
	// object-variable head.
	ov := &msl.Var{Name: "_O"}
	if pc.ObjVar != nil {
		ov = pc.ObjVar
	}
	send := &msl.Rule{
		Head: []msl.HeadTerm{ov},
		Tail: []msl.Conjunct{&msl.PatternConjunct{ObjVar: ov, Pattern: sent, Source: pc.Source}},
	}

	var tmpl *msl.Template
	if len(paramVars) > 0 {
		// Compiled once here and cached with the plan: every probe of
		// every execution binds it from a value tuple.
		if tmpl, err = msl.Compile(send, paramVars); err != nil {
			return nil, err
		}
	}
	node := &engine.QueryNode{
		Child:         child,
		Source:        pc.Source,
		Send:          send,
		ParamVars:     paramVars,
		Template:      tmpl,
		Extract:       pc.Pattern,
		ExtractObjVar: pc.ObjVar,
		Negated:       pc.Negated,
		// Projection: keep exactly the variables needed downstream; names
		// not bound yet are simply absent from the rows.
		Needed: setList(needed),
		// Shape is the condition-aware statistics key for the sent
		// template: execution feedback records under it, so the next plan
		// reads exactly what this node's queries taught the store.
		Shape: engine.ShapeOf(sent, engine.ShapeVars(paramVars)),
	}
	// Attach the learned cardinality estimate so EXPLAIN ANALYZE can show
	// estimated vs. actual rows: the shape bucket first (it reflects this
	// node's conditions), the label-only bucket as fallback. Only the
	// statistics store is consulted: the CountLabel probe used for join
	// ordering costs a source round-trip, which plan construction must not
	// add per node.
	if p.stats != nil {
		if est, ok := p.stats.Estimate(pc.Source, node.Shape); ok {
			node.EstRows = est
			node.HasEst = true
		} else if est, ok := p.stats.Estimate(pc.Source, labelKey(pc.Pattern)); ok {
			node.EstRows = est
			node.HasEst = true
		}
	}
	src, _ := p.sources.Lookup(pc.Source)
	if ext, ok := src.(engine.MatExtent); ok {
		if !node.HasEst {
			node.EstRows, node.HasEst = float64(len(ext.Objs)), true
		}
		return &engine.MatScanNode{QueryNode: *node, Extent: ext}, nil
	}
	return node, nil
}

// sendPattern computes the query pattern actually sent to pc's source —
// relaxed to the source's capabilities and the planner's pushdown option
// — plus the previously-bound variables the engine substitutes per input
// tuple. inner says whether the node will have a child (parameterization
// applies only then, and only when the source evaluates conditions at
// all: a parameter becomes a constant condition at the source).
func (p *Planner) sendPattern(pc *msl.PatternConjunct, bound map[string]bool, inner bool) (*msl.ObjectPattern, []string, error) {
	src, ok := p.sources.Lookup(pc.Source)
	if !ok {
		return nil, nil, fmt.Errorf("plan: unknown source %q in %s", pc.Source, pc)
	}
	caps := src.Capabilities()
	sent := pc.Pattern
	if !p.opts.PushConditions {
		sent = relax(sent, wrapper.Capabilities{MultiPattern: caps.MultiPattern})
	} else {
		sent = relax(sent, caps)
	}
	var paramVars []string
	if inner && p.opts.Parameterize && p.opts.PushConditions && caps.ValueConditions {
		paramVars = intersect(bound, patternVarSet(sent))
	}
	return sent, paramVars, nil
}

// labelKey is the label-only statistics bucket for a pattern — the
// pre-shape key kept as estimation fallback.
func labelKey(p *msl.ObjectPattern) string {
	if l := p.LabelName(); l != "" {
		return l
	}
	return "*"
}

// relax strips the query features a source cannot evaluate, returning a
// pattern the source will accept. Extraction at the mediator re-verifies
// the original pattern, so relaxation only ever widens the candidate set.
func relax(p *msl.ObjectPattern, caps wrapper.Capabilities) *msl.ObjectPattern {
	if hasWildcard(p) && !caps.Wildcards {
		// The source cannot search at depth: fetch everything (any label,
		// any structure) and match at the mediator.
		return &msl.ObjectPattern{Label: &msl.Var{Name: "_AnyLabel"}}
	}
	var fresh int
	return relaxPattern(p, caps, true, &fresh)
}

func relaxPattern(p *msl.ObjectPattern, caps wrapper.Capabilities, top bool, fresh *int) *msl.ObjectPattern {
	out := &msl.ObjectPattern{Wildcard: p.Wildcard, Type: p.Type, Label: p.Label}
	if p.OID != nil {
		if _, isConst := p.OID.(*msl.Const); !isConst || caps.ValueConditions {
			out.OID = p.OID
		}
	}
	switch v := p.Value.(type) {
	case nil:
	case *msl.Const:
		if caps.ValueConditions {
			out.Value = v
		} else {
			// Keep the position observable so extraction can re-verify,
			// but drop the condition.
			*fresh++
			out.Value = &msl.Var{Name: fmt.Sprintf("_Relax%d", *fresh)}
		}
	case *msl.Var, *msl.Param:
		out.Value = v
	case *msl.SetPattern:
		sp := &msl.SetPattern{Rest: v.Rest}
		for _, e := range v.Elems {
			switch t := e.(type) {
			case *msl.ObjectPattern:
				sp.Elems = append(sp.Elems, relaxPattern(t, caps, false, fresh))
			default:
				sp.Elems = append(sp.Elems, e)
			}
		}
		if caps.RestConstraints {
			for _, rc := range v.RestConstraints {
				sp.RestConstraints = append(sp.RestConstraints, relaxPattern(rc, caps, false, fresh))
			}
		} else if len(v.RestConstraints) > 0 && sp.Rest == nil {
			// Dropping constraints on an anonymous rest would lose the
			// requirement entirely at the source; that is fine (the
			// mediator re-verifies), no rest variable needed.
			sp.RestConstraints = nil
		}
		out.Value = sp
	}
	return out
}

func hasWildcard(p *msl.ObjectPattern) bool {
	if p.Wildcard {
		return true
	}
	if sp, ok := p.Value.(*msl.SetPattern); ok {
		for _, e := range sp.Elems {
			if ep, isPat := e.(*msl.ObjectPattern); isPat && hasWildcard(ep) {
				return true
			}
		}
		for _, rc := range sp.RestConstraints {
			if hasWildcard(rc) {
				return true
			}
		}
	}
	return false
}

func patternVarSet(p *msl.ObjectPattern) map[string]bool {
	tmp := &msl.Rule{Tail: []msl.Conjunct{&msl.PatternConjunct{Pattern: p, Source: "x"}}}
	return varSet(tmp.Vars())
}
