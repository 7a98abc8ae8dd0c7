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
			cur, err = applyPred(ec, sc, cur, pp, true)
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

// execStep performs one axis step on every (iter, context node) row
// with xdm.Step — the step interp's evalPath takes, so the two engines
// cannot disagree on an axis — applies the predicates, then re-establishes
// per-iteration document order with duplicate elimination.
func execStep(ec *ExecCtx, sc *scope, ctx *algebra.Table, st xq.Step, preds []predPlan) (*algebra.Table, error) {
	type candGroup struct {
		outer int64
		nodes []*xdm.Node
	}
	sorted := algebra.SortBy(ctx, algebra.ColIter, algebra.ColPos)
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	var groups []candGroup
	for ri, it := range iters {
		n, ok := sorted.Item(ri, xc).(*xdm.Node)
		if !ok {
			return nil, xdm.NewError("XPTY0004", "path step applied to a non-node")
		}
		groups = append(groups, candGroup{outer: it, nodes: xdm.Step(n, st.Axis, st.Test)})
	}
	// predicates: loop-lifted over all candidates of all groups
	for _, pp := range preds {
		// inner loop: one iteration per candidate
		inner := algebra.NewTable(algebra.ColIter)
		mapTbl := algebra.NewTable("inner", "outer")
		dot := seqTable()
		posT := seqTable()
		lastT := seqTable()
		k := int64(0)
		for _, g := range groups {
			for i, n := range g.nodes {
				k++
				inner.Append(xdm.Integer(k))
				mapTbl.Append(xdm.Integer(k), xdm.Integer(g.outer))
				dot.AppendSeq(k, 1, n)
				posT.AppendSeq(k, 1, xdm.Integer(i+1))
				lastT.AppendSeq(k, 1, xdm.Integer(len(g.nodes)))
			}
		}
		sc2 := mapScopeInner(sc, inner, mapTbl)
		sc2 = sc2.bind(".", dot).bind("@position", posT).bind("@last", lastT)
		keep, err := evalPredKeep(ec, sc2, pp, posT)
		if err != nil {
			return nil, err
		}
		// filter the groups by the keep set
		k = 0
		for gi := range groups {
			var kept []*xdm.Node
			for _, n := range groups[gi].nodes {
				k++
				if keep[k] {
					kept = append(kept, n)
				}
			}
			groups[gi].nodes = kept
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
		perIter[g.outer] = append(perIter[g.outer], g.nodes...)
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

func (env *staticEnv) compilePredicate(pe xq.Expr) (predPlan, error) {
	if lit, ok := pe.(*xq.IntLit); ok {
		return predPlan{constPos: lit.Val}, nil
	}
	inner := env.withVar(".", "@position", "@last")
	// rewrite position()/last() to the special vars
	p, err := inner.compile(rewritePosLast(pe))
	if err != nil {
		return predPlan{}, err
	}
	return predPlan{plan: p}, nil
}

// rewritePosLast substitutes position() and last() calls with the
// predicate-scope variables.
func rewritePosLast(e xq.Expr) xq.Expr {
	switch n := e.(type) {
	case *xq.FuncCall:
		if len(n.Args) == 0 && (n.Name == "position" || n.Name == "fn:position") {
			return &xq.VarRef{Name: "@position"}
		}
		if len(n.Args) == 0 && (n.Name == "last" || n.Name == "fn:last") {
			return &xq.VarRef{Name: "@last"}
		}
		args := make([]xq.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewritePosLast(a)
		}
		return &xq.FuncCall{Name: n.Name, Args: args}
	case *xq.Comparison:
		return &xq.Comparison{Op: n.Op, General: n.General, Node: n.Node,
			L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	case *xq.Logic:
		return &xq.Logic{Op: n.Op, L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	case *xq.Arith:
		return &xq.Arith{Op: n.Op, L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	default:
		return e
	}
}

// evalPredKeep evaluates a predicate plan over the candidate inner loop
// and returns the kept inner iteration numbers. Numeric predicate values
// select by position; everything else goes through the effective boolean
// value.
func evalPredKeep(ec *ExecCtx, sc2 *scope, pp predPlan, posT *algebra.Table) (map[int64]bool, error) {
	keep := map[int64]bool{}
	posOf := map[int64]int64{}
	for ri := 0; ri < posT.Len(); ri++ {
		posOf[posT.Int(ri, 0)] = posT.Int(ri, 2)
	}
	if pp.constPos != 0 {
		for k, p := range posOf {
			keep[k] = p == pp.constPos
		}
		return keep, nil
	}
	t, err := pp.plan(ec, sc2)
	if err != nil {
		return nil, err
	}
	groups := groupByIter(t)
	for k := range posOf {
		seq := groups[k]
		if len(seq) == 1 && xdm.IsNumeric(seq[0]) {
			f, _ := xdm.NumericValue(seq[0])
			keep[k] = float64(posOf[k]) == f
			continue
		}
		b, err := xdm.EffectiveBoolean(seq)
		if err != nil {
			return nil, err
		}
		keep[k] = b
	}
	return keep, nil
}

// applyPred filters an item table by a predicate (for root filter
// expressions: positions count within each iteration's sequence).
func applyPred(ec *ExecCtx, sc *scope, t *algebra.Table, pp predPlan, _ bool) (*algebra.Table, error) {
	sorted := algebra.SortBy(t, algebra.ColIter, algebra.ColPos)
	inner := algebra.NewTable(algebra.ColIter)
	mapTbl := algebra.NewTable("inner", "outer")
	dot := seqTable()
	posT := seqTable()
	lastT := seqTable()
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	// group sizes per iter
	sizes := map[int64]int64{}
	for _, it := range iters {
		sizes[it]++
	}
	counters := map[int64]int64{}
	k := int64(0)
	for ri, it := range iters {
		counters[it]++
		k++
		inner.Append(xdm.Integer(k))
		mapTbl.Append(xdm.Integer(k), xdm.Integer(it))
		dot.AppendSeq(k, 1, sorted.Item(ri, xc))
		posT.AppendSeq(k, 1, xdm.Integer(counters[it]))
		lastT.AppendSeq(k, 1, xdm.Integer(sizes[it]))
	}
	sc2 := mapScopeInner(sc, inner, mapTbl)
	sc2 = sc2.bind(".", dot).bind("@position", posT).bind("@last", lastT)
	keep, err := evalPredKeep(ec, sc2, pp, posT)
	if err != nil {
		return nil, err
	}
	out := seqTable()
	newPos := map[int64]int64{}
	for ri, it := range iters {
		if !keep[int64(ri+1)] {
			continue
		}
		newPos[it]++
		out.AppendSeq(it, newPos[it], sorted.Item(ri, xc))
	}
	return out, nil
}
