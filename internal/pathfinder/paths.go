package pathfinder

import (
	"xrpc/internal/algebra"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// compilePath translates a path expression. The root must be explicit
// (a doc() call, variable, or other primary) — the loop-lifted engine
// evaluates whole queries and has no ambient context node except inside
// predicates, where "." is a bound variable.
func (env *staticEnv) compilePath(p *xq.Path) (Plan, error) {
	var rootPlan Plan
	switch {
	case p.Root != nil:
		rp, err := env.compile(p.Root)
		if err != nil {
			return nil, err
		}
		rootPlan = rp
	case env.vars["."]:
		rp, err := env.compile(&xq.VarRef{Name: "."})
		if err != nil {
			return nil, err
		}
		if p.FromRoot {
			inner := rp
			rootPlan = func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
				t, err := inner(ec, sc)
				if err != nil {
					return nil, err
				}
				return algebra.Project(mapNodes(t, func(n *xdm.Node) *xdm.Node { return n.Root() }),
					algebra.ColIter, algebra.ColPos, algebra.ColItem), nil
			}
		} else {
			rootPlan = rp
		}
	default:
		return nil, unsupported("path without explicit root")
	}

	// root predicates (filter expressions)
	rootPreds := p.RootPreds
	steps := p.Steps
	predPlans := make([][]predPlan, len(steps))
	for i, st := range steps {
		for _, pe := range st.Preds {
			pp, err := env.compilePredicate(pe)
			if err != nil {
				return nil, err
			}
			predPlans[i] = append(predPlans[i], pp)
		}
	}
	var rootPredPlans []predPlan
	for _, pe := range rootPreds {
		pp, err := env.compilePredicate(pe)
		if err != nil {
			return nil, err
		}
		rootPredPlans = append(rootPredPlans, pp)
	}

	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		cur, err := rootPlan(ec, sc)
		if err != nil {
			return nil, err
		}
		for _, pp := range rootPredPlans {
			cur, err = applyPred(ec, sc, cur, pp)
			if err != nil {
				return nil, err
			}
		}
		for si, st := range steps {
			cur, err = execStep(ec, sc, cur, st, predPlans[si])
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	}, nil
}

// mapNodes applies f to every node item of an iter|pos|item table.
func mapNodes(t *algebra.Table, f func(*xdm.Node) *xdm.Node) *algebra.Table {
	out := seqTable()
	xc := t.ColIdx(algebra.ColItem)
	for ri := 0; ri < t.Len(); ri++ {
		it := t.Item(ri, xc)
		if n, ok := it.(*xdm.Node); ok {
			it = f(n)
		}
		out.Append(t.Item(ri, 0), t.Item(ri, 1), it)
	}
	return out
}

// candGroup is the candidates a predicate numbers 1..last: what one step
// found from one context node, or one iteration's filtered sequence.
type candGroup[T xdm.Item] struct {
	outer int64 // the iteration of the enclosing loop
	items []T
}

// execStep performs one axis step on every (iter, context node) row
// with xdm.Step — the step interp's evalPath takes, so the two engines
// cannot disagree on an axis — applies the predicates, then re-establishes
// per-iteration document order with duplicate elimination.
func execStep(ec *ExecCtx, sc *scope, ctx *algebra.Table, st xq.Step, preds []predPlan) (*algebra.Table, error) {
	sorted := algebra.SortBy(ctx, algebra.ColIter, algebra.ColPos)
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	var groups []candGroup[*xdm.Node]
	for ri, it := range iters {
		n, ok := sorted.Item(ri, xc).(*xdm.Node)
		if !ok {
			return nil, xdm.NewError("XPTY0004", "path step applied to a non-node")
		}
		groups = append(groups, candGroup[*xdm.Node]{outer: it, items: xdm.Step(n, st.Axis, st.Test)})
	}
	for _, pp := range preds {
		if err := filterGroups(ec, sc, groups, pp); err != nil {
			return nil, err
		}
	}
	// doc order + dedup per iteration, then emit with fresh pos
	out := seqTable()
	perIter := map[int64][]*xdm.Node{}
	var iterOrder []int64
	for _, g := range groups {
		if _, seen := perIter[g.outer]; !seen {
			iterOrder = append(iterOrder, g.outer)
		}
		perIter[g.outer] = append(perIter[g.outer], g.items...)
	}
	for _, it := range iterOrder {
		nodes := xdm.SortDocOrderDedup(perIter[it])
		for p, n := range nodes {
			out.AppendSeq(it, int64(p+1), n)
		}
	}
	return out, nil
}

// predPlan is a compiled predicate.
type predPlan struct {
	plan Plan
	// constPos holds a constant positional predicate value (e.g. [2]),
	// 0 when not constant.
	constPos int64
}

// compilePredicate compiles a predicate under its focus: ".",
// "@position" and "@last" are variables of the inner scope, and that is
// all a context-item form, position() or last() anywhere below needs
// (compileBuiltin).
func (env *staticEnv) compilePredicate(pe xq.Expr) (predPlan, error) {
	if lit, ok := pe.(*xq.IntLit); ok && lit.Val != 0 {
		return predPlan{constPos: lit.Val}, nil
	}
	p, err := env.withVar(".", "@position", "@last").compile(pe)
	if err != nil {
		return predPlan{}, err
	}
	return predPlan{plan: p}, nil
}

// keeps decides one candidate from the predicate's value for it: a
// numeric value selects by position; everything else goes through the
// effective boolean value.
func (pp predPlan) keeps(val xdm.Sequence, pos int64) (bool, error) {
	if pp.constPos != 0 {
		return pos == pp.constPos, nil
	}
	if len(val) == 1 && xdm.IsNumeric(val[0]) {
		f, _ := xdm.NumericValue(val[0])
		return float64(pos) == f, nil
	}
	return xdm.EffectiveBoolean(val)
}

// filterGroups applies one predicate to all candidates of all groups and
// drops the ones it rejects. It opens the predicate's focus: an inner
// loop with one iteration per candidate, loop-lifted under the enclosing
// scope, in which ".", "@position" and "@last" are bound.
func filterGroups[T xdm.Item](ec *ExecCtx, sc *scope, groups []candGroup[T], pp predPlan) error {
	var vals map[int64]xdm.Sequence // the predicate's value per inner iteration
	if pp.constPos == 0 {
		inner := algebra.NewTable(algebra.ColIter)
		mapTbl := algebra.NewTable("inner", "outer")
		dot, posT, lastT := seqTable(), seqTable(), seqTable()
		k := int64(0)
		for _, g := range groups {
			for i, it := range g.items {
				k++
				inner.Append(xdm.Integer(k))
				mapTbl.Append(xdm.Integer(k), xdm.Integer(g.outer))
				dot.AppendSeq(k, 1, it)
				posT.AppendSeq(k, 1, xdm.Integer(i+1))
				lastT.AppendSeq(k, 1, xdm.Integer(len(g.items)))
			}
		}
		sc2 := mapScopeInner(sc, inner, mapTbl).bind(".", dot).bind("@position", posT).bind("@last", lastT)
		t, err := pp.plan(ec, sc2)
		if err != nil {
			return err
		}
		vals = groupByIter(t)
	}
	k := int64(0)
	for gi := range groups {
		var kept []T
		for i, it := range groups[gi].items {
			k++
			keep, err := pp.keeps(vals[k], int64(i+1))
			if err != nil {
				return err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		groups[gi].items = kept
	}
	return nil
}

// applyPred filters an item table by a predicate (for root filter
// expressions: positions count within each iteration's sequence).
func applyPred(ec *ExecCtx, sc *scope, t *algebra.Table, pp predPlan) (*algebra.Table, error) {
	sorted := algebra.SortBy(t, algebra.ColIter, algebra.ColPos)
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	var groups []candGroup[xdm.Item]
	for ri, it := range iters {
		if ri == 0 || iters[ri-1] != it {
			groups = append(groups, candGroup[xdm.Item]{outer: it})
		}
		g := &groups[len(groups)-1]
		g.items = append(g.items, sorted.Item(ri, xc))
	}
	if err := filterGroups(ec, sc, groups, pp); err != nil {
		return nil, err
	}
	out := seqTable()
	for _, g := range groups {
		for p, it := range g.items {
			out.AppendSeq(g.outer, int64(p+1), it)
		}
	}
	return out, nil
}
