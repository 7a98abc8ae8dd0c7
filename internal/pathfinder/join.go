package pathfinder

import (
	"slices"
	"strconv"

	"xrpc/internal/algebra"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// Join recognition (§3.1 "nested fors disappear into bulk plans", §3.2
// "selection turned join"). The nested translation of
//
//	for $a [at $i] in E1, $b [at $j] in E2 where K and R… return X
//
// lifts $b under $a and evaluates the where once per pair of the cross
// product. When E2 does not read $a/$i and K is a general "=" with one
// operand reading only $a/$i and the other only $b/$j (of the four; outer
// variables may appear anywhere), the matched pairs can be found without
// the product: E2 and both key operands are evaluated once per row of
// their own side and the sides are equi-joined on (outer iteration, key).
// The rule is this narrow because the result must stay byte- and
// error-identical to the interpreter's:
//
//   - K must be the leftmost conjunct, so R… is evaluated on matched
//     pairs only — the interpreter's short-circuit "and";
//   - a general "=" raises on incomparable atoms (XPTY0004, FORG0001) and
//     the product compares every pair, so the hash is used only when, at
//     run time, every atom of both key columns is a string or untyped
//     (what node keys atomize to); any other column has that evaluation
//     run the whole where over every pair, which is slow and never wrong;
//   - E2 and $b's key are evaluated only under iterations where E1 is
//     non-empty and $a's key only where E2 is — where the nested loop
//     evaluates them — so no call is sent and no error raised that the
//     nested plan would not have;
//   - an expression that constructs nodes or applies an updating function
//     is evaluated exactly as often as written: it pins the nested plan.
//
// Everything else — eq, K under or/not, an operand reading both sides, a
// dependent E2, a let after the fors, a predicate spelling the same join —
// keeps the cross product.

// joinShape is a FLWOR tail the rule accepts.
type joinShape struct {
	a, b *xq.ForClause
	k    *xq.Comparison
	// aLeft: K's left operand reads $a/$i (and its right one $b/$j).
	aLeft bool
	// rest are the conjuncts right of K, each as written.
	rest []xq.Expr
}

// joinShape matches clauses i and i+1 of fl against the rule (nil: keep
// the nested translation).
func (env *staticEnv) joinShape(fl *xq.FLWOR, i int) *joinShape {
	if i+2 != len(fl.Clauses) || fl.Where == nil {
		return nil
	}
	a, okA := fl.Clauses[i].(*xq.ForClause)
	b, okB := fl.Clauses[i+1].(*xq.ForClause)
	if !okA || !okB {
		return nil
	}
	if a.Var == a.PosVar || b.Var == b.PosVar { // "for $v at $v": the four names must differ
		return nil
	}
	aVars := map[string]bool{a.Var: true, a.PosVar: true}
	bVars := map[string]bool{b.Var: true, b.PosVar: true}
	delete(aVars, "")
	delete(bVars, "")
	for v := range bVars {
		if aVars[v] { // $b shadows $a: every later $a is $b
			return nil
		}
	}
	spine := leftSpine(fl.Where)
	k, ok := spine[0].(*xq.Comparison)
	if !ok || !k.General || k.Op != "=" {
		return nil
	}
	lA, lB := reads(k.L, aVars), reads(k.L, bVars)
	rA, rB := reads(k.R, aVars), reads(k.R, bVars)
	aLeft := lA && !lB && rB && !rA
	if !aLeft && !(lB && !lA && rA && !rB) {
		return nil
	}
	if reads(b.In, aVars) || env.pinned(b.In, nil) || env.pinned(k, nil) {
		return nil
	}
	return &joinShape{a: a, b: b, k: k, aLeft: aLeft, rest: spine[1:]}
}

// leftSpine splits an and-chain along its left edge: [K, R1, …, Rn] for
// ((K and R1) … and Rn). Unlike conjuncts it leaves each Ri as written,
// so folding the spine back together rebuilds the tree the where had.
func leftSpine(e xq.Expr) []xq.Expr {
	if l, ok := e.(*xq.Logic); ok && l.Op == "and" {
		return append(leftSpine(l.L), l.R)
	}
	return []xq.Expr{e}
}

// reads reports whether e has a free reference to one of vars.
func reads(e xq.Expr, vars map[string]bool) bool {
	found := false
	xq.Walk(e, nil, func(x xq.Expr, bound map[string]bool) {
		if v, ok := x.(*xq.VarRef); ok && vars[v.Name] && !bound[v.Name] {
			found = true
		}
	})
	return found
}

// pinned reports whether how often e is evaluated can be observed: it
// constructs nodes (each evaluation makes new identities), is an update,
// or applies an updating function — directly or in a function it calls.
func (env *staticEnv) pinned(e xq.Expr, seen map[*xq.FuncDecl]bool) bool {
	if seen == nil {
		seen = map[*xq.FuncDecl]bool{}
	}
	found := false
	xq.Walk(e, nil, func(x xq.Expr, _ map[string]bool) {
		switch n := x.(type) {
		case *xq.DirElem, *xq.CompElem, *xq.CompAttr, *xq.CompText,
			*xq.Insert, *xq.Delete, *xq.Replace, *xq.Rename:
			found = true
		case *xq.ExecuteAt:
			if f, ok := env.static.LookupFunc(env.module, n.Call.Name, len(n.Call.Args)); ok && f.Decl.Updating {
				found = true
			}
		case *xq.FuncCall:
			fn, ok := env.static.LookupFunc(env.module, n.Name, len(n.Args))
			if !ok || seen[fn.Decl] {
				return
			}
			f := fn.Decl
			seen[f] = true
			fenv := &staticEnv{static: env.static, module: fn.Module}
			if f.Updating || f.Body == nil || fenv.pinned(f.Body, seen) {
				found = true
			}
		}
	})
	return found
}

// compileJoin compiles a FLWOR tail joinShape accepted. Every part is
// compiled once; only the data decides which ($a, $b) pairs the one inner
// loop is opened over and how much of the where is left to run in it
// (equiJoin.run).
func (env *staticEnv) compileJoin(fl *xq.FLWOR, s *joinShape) (Plan, error) {
	inA, err := env.compile(s.a.In)
	if err != nil {
		return nil, err
	}
	inB, err := env.compile(s.b.In)
	if err != nil {
		return nil, err
	}
	inner := env.withVar(s.a.Var, s.a.PosVar, s.b.Var, s.b.PosVar)
	keyL, err := inner.compile(s.k.L)
	if err != nil {
		return nil, err
	}
	keyR, err := inner.compile(s.k.R)
	if err != nil {
		return nil, err
	}
	where := generalPlan(keyL, keyR, xdm.OpEq)
	var residual Plan
	for _, e := range s.rest {
		p, err := inner.compile(e)
		if err != nil {
			return nil, err
		}
		where = logicPlan(where, p, true)
		if residual == nil {
			residual = p
		} else {
			residual = logicPlan(residual, p, true)
		}
	}
	ret, err := inner.compile(fl.Return)
	if err != nil {
		return nil, err
	}
	j := &equiJoin{
		inA: inA, inB: inB,
		vars:    [2][]loopVar{forVars(s.a, "item", "pos"), forVars(s.b, "item2", "pos2")},
		keys:    [2]Plan{keyL, keyR},
		aLeft:   s.aLeft,
		matched: whereReturn(residual, ret),
		product: whereReturn(where, ret),
	}
	return j.run, nil
}

// JoinStats counts what the join rule did during one evaluation.
type JoinStats struct {
	// Hashed joins found their pairs by hash; Fallback ones met a key that
	// is not a string and ran the whole where over every pair.
	Hashed, Fallback int
	// BuildRows and ProbeRows are the key atoms hashed (K's right operand)
	// and looked up (its left); Pairs the distinct matched pairs handed on.
	BuildRows, ProbeRows, Pairs int
}

// equiJoin is the run-time half of the rule: the plan of the two fors.
type equiJoin struct {
	inA, inB Plan         // E1 and E2, both run under the enclosing loop
	vars     [2][]loopVar // $a [, $i] and $b [, $j], over the pair rows' columns
	keys     [2]Plan      // K's operands, left and right
	aLeft    bool         // the left one reads $a and the right one $b, or the reverse
	matched  Plan         // over the matched pairs: the conjuncts right of K, then the return
	product  Plan         // over every pair: the whole where, then the return
}

// run opens one inner loop over ($a, $b) pairs in (outer, $a, $b) order:
// the pairs K matches, or — when a key column holds anything but strings,
// which "=" may refuse to compare — every pair, with K still to run
// ("slow, never wrong"). E1 and E2 are evaluated once either way.
func (j *equiJoin) run(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
	q1, err := j.inA(ec, sc)
	if err != nil {
		return nil, err
	}
	aRows := forRows(q1)
	// E2 (and below, through bRows, $b's key) only under the iterations
	// where E1 is non-empty, $a's key only where E2 is: what the nested
	// loop evaluates
	q2, err := j.inB(ec, restrictTo(sc, aRows))
	if err != nil {
		return nil, err
	}
	bRows := algebra.Project(forRows(q2), "outer", "item2:item", "pos2:pos")
	aRows = semiJoinOuter(aRows, bRows)

	as, bs, hashed, err := j.match(ec, sc, aRows, bRows)
	if err != nil {
		return nil, err
	}
	body := j.matched
	if !hashed {
		as, bs = product(aRows.IntsOf("outer"), bRows.IntsOf("outer"))
		body = j.product
	}
	pairs := algebra.NewTable("outer", "item", "pos", "item2", "pos2")
	for r, a := range as {
		pairs.Append(append(aRows.Row(int(a-1)), bRows.Row(int(bs[r] - 1))[1:]...)...)
	}
	return runLoop(ec, sc, pairs, slices.Concat(j.vars[0], j.vars[1]), body)
}

// match finds the pairs K holds for by hash: row numbers (from 1) into
// aRows and bRows, a pair once however many of its atoms match, in
// (outer, $a, $b) order. hashed is false when a key column holds anything
// but strings.
func (j *equiJoin) match(ec *ExecCtx, sc *scope, aRows, bRows *algebra.Table) (as, bs []int64, hashed bool, err error) {
	sides, vars, cols := [2]*algebra.Table{aRows, bRows}, j.vars, [2]string{"a:row", "b:row'"}
	if !j.aLeft {
		sides, vars, cols = [2]*algebra.Table{bRows, aRows}, [2][]loopVar{vars[1], vars[0]}, [2]string{"b:row", "a:row'"}
	}
	var keys [2]*algebra.Table
	for s, rows := range sides { // K's operand order: the first error raised is the nested plan's
		loop, _ := openLoop(sc, rows, vars[s])
		kt, err := j.keys[s](ec, loop)
		if err != nil {
			return nil, nil, false, err
		}
		if keys[s] = stringKeys(kt, rows.IntsOf("outer")); keys[s] == nil {
			if ec.Joins != nil {
				ec.Joins.Fallback++
			}
			return nil, nil, false, nil
		}
	}
	m := algebra.Join(keys[0], keys[1], "key", "key")
	m = algebra.SortBy(algebra.Project(m, cols[0], cols[1]), "a", "b")
	ma, mb := m.IntsOf("a"), m.IntsOf("b")
	for r := range ma {
		if r == 0 || ma[r] != ma[r-1] || mb[r] != mb[r-1] {
			as, bs = append(as, ma[r]), append(bs, mb[r])
		}
	}
	if ec.Joins != nil {
		ec.Joins.Hashed++
		ec.Joins.BuildRows += keys[1].Len()
		ec.Joins.ProbeRows += keys[0].Len()
		ec.Joins.Pairs += len(as)
	}
	return as, bs, true, nil
}

// product pairs every row of a with every row of b of the same iteration,
// given the "outer" column of each (sorted, as loop rows are).
func product(aOuter, bOuter []int64) (as, bs []int64) {
	lo := 0
	for a, o := range aOuter {
		for lo < len(bOuter) && bOuter[lo] < o {
			lo++
		}
		for b := lo; b < len(bOuter) && bOuter[b] == o; b++ {
			as, bs = append(as, int64(a+1)), append(bs, int64(b+1))
		}
	}
	return as, bs
}

// restrictTo narrows sc to the iterations that have a row in rows (loop
// rows, so sorted on "outer").
func restrictTo(sc *scope, rows *algebra.Table) *scope {
	outer := rows.IntsOf("outer")
	loop := algebra.Where(algebra.Project(rows, algebra.ColIter+":outer"),
		func(r int) bool { return r == 0 || outer[r] != outer[r-1] })
	if loop.Len() == sc.loop.Len() {
		return sc
	}
	return sc.restrict(loop)
}

// semiJoinOuter keeps the rows of a whose iteration has a row in b.
func semiJoinOuter(a, b *algebra.Table) *algebra.Table {
	has := map[int64]bool{}
	for _, o := range b.IntsOf("outer") {
		has[o] = true
	}
	outer := a.IntsOf("outer")
	return algebra.Where(a, func(r int) bool { return has[outer[r]] })
}

// stringKeys turns a key column evaluated over loop rows (iteration n =
// row n, of iteration outer[n-1] of the enclosing loop) into the join's
// input: one row|key row per atom, the key composed with the enclosing
// iteration so rows match only within it. It returns nil unless every
// atom is a string or untyped — the types "=" compares as strings,
// without raising.
func stringKeys(kt *algebra.Table, outer []int64) *algebra.Table {
	out := algebra.NewTable("row", "key")
	xc := kt.ColIdx(algebra.ColItem)
	for r, row := range kt.IntsOf(algebra.ColIter) {
		var s string
		switch v := atomizeItem(kt.Item(r, xc)).(type) {
		case xdm.Untyped:
			s = string(v)
		case xdm.String:
			s = string(v)
		default:
			return nil
		}
		out.Append(xdm.Integer(row), xdm.String(strconv.FormatInt(outer[row-1], 10)+"\x00"+s))
	}
	return out
}
