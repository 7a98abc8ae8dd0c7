package pathfinder

import (
	"fmt"
	"strings"
	"time"

	"xrpc/internal/algebra"
	"xrpc/internal/docres"
	"xrpc/internal/modules"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
)

// Compiled is a loop-lifted query plan, ready for (repeated) execution —
// what MonetDB/XQuery's function cache stores.
type Compiled struct {
	Plan Plan
	// CompileTime is parse + import resolution + lifting.
	CompileTime time.Duration
}

// Compile translates a main-module query into a single bulk plan: the
// shared front end (xqrt.Compile) compiles the text, Lift lifts the plan.
func Compile(src string, reg *modules.Registry) (*Compiled, error) {
	var resolver xqrt.ModuleResolver
	if reg != nil {
		resolver = reg
	}
	static, err := xqrt.Compile(src, resolver)
	if err != nil {
		return nil, err
	}
	return Lift(static)
}

// Lift returns the loop-lifted plan of a static context, lifting it on
// first use and keeping it on the context: whoever caches the context
// caches its plan. Function names resolve through the context's own
// table, so the two engines cannot disagree on what a text means.
func Lift(static *xqrt.Compiled) (*Compiled, error) {
	c, err := static.Lifted(lift)
	if err != nil {
		return nil, err
	}
	return c.(*Compiled), nil
}

func lift(static *xqrt.Compiled) (any, error) {
	start := time.Now()
	m := static.Module()
	if m.IsLibrary {
		return nil, xqrt.ErrLibraryModule
	}
	env := &staticEnv{static: static, module: m, vars: map[string]bool{}}
	// prolog variables compile as nested lets around the body
	body := m.Body
	for i := len(m.Variables) - 1; i >= 0; i-- {
		v := m.Variables[i]
		body = &xq.FLWOR{
			Clauses: []xq.FLWORClause{&xq.LetClause{Var: v.Name, Val: v.Val}},
			Return:  body,
		}
	}
	env.proj = env.projections(body)
	plan, err := env.compile(body)
	if err != nil {
		return nil, err
	}
	return &Compiled{Plan: plan, CompileTime: static.CompileTime + time.Since(start)}, nil
}

// Eval executes the plan with a fresh single-iteration loop relation,
// returning the result sequence. External variables are lifted as
// singleton-loop bindings.
func (c *Compiled) Eval(ec *ExecCtx, vars map[string]xdm.Sequence) (xdm.Sequence, error) {
	loop := algebra.Lit([]string{algebra.ColIter}, []xdm.Item{xdm.Integer(1)})
	sc := newScope(loop)
	for name, seq := range vars {
		tbl := seqTable()
		for p, it := range seq {
			tbl.AppendSeq(1, int64(p+1), it)
		}
		sc = sc.bind(name, tbl)
	}
	out, err := c.Plan(ec, sc)
	if err != nil {
		return nil, err
	}
	sorted := algebra.SortBy(out, algebra.ColIter, algebra.ColPos)
	xc := sorted.ColIdx(algebra.ColItem)
	seq := make(xdm.Sequence, 0, sorted.Len())
	for r := 0; r < sorted.Len(); r++ {
		seq = append(seq, sorted.Item(r, xc))
	}
	return seq, nil
}

// staticEnv is the compile-time environment.
type staticEnv struct {
	static *xqrt.Compiled
	module *xq.Module
	vars   map[string]bool
	depth  int // function inlining depth
	// proj is the projection each execute at of the query ships
	// (project.go)
	proj map[*xq.ExecuteAt]string
}

func (env *staticEnv) child() *staticEnv {
	vars := make(map[string]bool, len(env.vars))
	for k := range env.vars {
		vars[k] = true
	}
	return &staticEnv{static: env.static, module: env.module, vars: vars, depth: env.depth, proj: env.proj}
}

// withVar adds variables to the static scope ("" — an absent "at $p" —
// is skipped).
func (env *staticEnv) withVar(names ...string) *staticEnv {
	e := env.child()
	for _, n := range names {
		if n != "" {
			e.vars[n] = true
		}
	}
	return e
}

func unsupported(what string) error {
	return fmt.Errorf("pathfinder: %s is not supported by the loop-lifted engine (use the interpreter)", what)
}

// compile translates one expression into a Plan.
func (env *staticEnv) compile(e xq.Expr) (Plan, error) {
	switch n := e.(type) {
	case *xq.StringLit:
		return constPlan(xdm.String(n.Val)), nil
	case *xq.IntLit:
		return constPlan(xdm.Integer(n.Val)), nil
	case *xq.DecimalLit:
		return constPlan(xdm.Decimal(n.Val)), nil
	case *xq.DoubleLit:
		return constPlan(xdm.Double(n.Val)), nil
	case *xq.EmptySeq:
		return emptyPlan(), nil
	case *xq.VarRef:
		// variables not statically in scope may still be bound at run
		// time (external variables like the $x of the Table 2 query);
		// "." and the predicate-internal variables must be static
		if !env.vars[n.Name] && strings.HasPrefix(n.Name, ".") {
			return nil, fmt.Errorf("pathfinder: undefined variable $%s", n.Name)
		}
		name := n.Name
		return func(_ *ExecCtx, sc *scope) (*algebra.Table, error) {
			tbl, ok := sc.vars[name]
			if !ok {
				// under an empty loop nothing is evaluated: a dead
				// branch (if/where pruned all iterations) must not
				// raise errors, per XQuery's conditional semantics
				if sc.loop.Len() == 0 {
					return seqTable(), nil
				}
				return nil, xdm.Errorf("XPST0008", "unbound variable $%s", name)
			}
			return tbl, nil
		}, nil
	case *xq.ContextItem:
		return env.compile(&xq.VarRef{Name: "."})
	case *xq.SeqExpr:
		return env.compileSeq(n)
	case *xq.RangeExpr:
		return env.compileRange(n)
	case *xq.Arith:
		return env.compileArith(n)
	case *xq.Unary:
		return env.aggPlan([]xq.Expr{n.X}, func(_ docres.DocResolver, g []xdm.Sequence) (xdm.Sequence, error) {
			return xqrt.Unary(n.Neg, g[0])
		})
	case *xq.Comparison:
		return env.compileComparison(n)
	case *xq.Logic:
		return env.compileLogic(n)
	case *xq.If:
		return env.compileIf(n)
	case *xq.FLWOR:
		return env.compileFLWOR(n)
	case *xq.Quantified:
		return env.compileQuantified(n)
	case *xq.Path:
		return env.compilePath(n)
	case *xq.FuncCall:
		return env.compileCall(n)
	case *xq.ExecuteAt:
		return env.compileExecuteAt(n)
	case *xq.DirElem:
		return env.compileDirElem(n)
	case *xq.Enclosed:
		return env.compile(n.X)
	case *xq.CompText:
		return env.compileCompText(n)
	case *xq.Cast:
		return env.aggPlan([]xq.Expr{n.X}, func(_ docres.DocResolver, g []xdm.Sequence) (xdm.Sequence, error) {
			return xqrt.CastSingleton(g[0], n.Type, n.Optional)
		})
	case *xq.Castable:
		return env.aggPlan([]xq.Expr{n.X}, func(_ docres.DocResolver, g []xdm.Sequence) (xdm.Sequence, error) {
			_, err := xqrt.CastSingleton(g[0], n.Type, n.Optional)
			return xdm.Singleton(xdm.Boolean(err == nil)), nil
		})
	case *xq.InstanceOf:
		return env.aggPlan([]xq.Expr{n.X}, func(_ docres.DocResolver, g []xdm.Sequence) (xdm.Sequence, error) {
			return xdm.Singleton(xdm.Boolean(xqrt.MatchesSeqType(g[0], n.Type))), nil
		})
	case *xq.Typeswitch:
		return env.compileTypeswitch(n)
	case *xq.UnionExpr:
		return env.compileUnion(n)
	default:
		return nil, unsupported(fmt.Sprintf("expression %T", e))
	}
}

func (env *staticEnv) compileSeq(n *xq.SeqExpr) (Plan, error) {
	subs := make([]Plan, len(n.Items))
	for i, it := range n.Items {
		p, err := env.compile(it)
		if err != nil {
			return nil, err
		}
		subs[i] = p
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		// union with a branch ordinal, then renumber pos within iter by
		// (branch, pos)
		acc := algebra.NewTable(algebra.ColIter, algebra.ColPos, algebra.ColItem, "branch")
		for bi, sub := range subs {
			t, err := sub(ec, sc)
			if err != nil {
				return nil, err
			}
			for ri := 0; ri < t.Len(); ri++ {
				acc.Append(t.Item(ri, 0), t.Item(ri, 1), t.Item(ri, 2), xdm.Integer(bi))
			}
		}
		ranked := algebra.RowNum(acc, "newpos", []string{"branch", algebra.ColPos}, algebra.ColIter)
		return algebra.Project(ranked, algebra.ColIter, "pos:newpos", algebra.ColItem), nil
	}, nil
}

func (env *staticEnv) compileRange(n *xq.RangeExpr) (Plan, error) {
	lo, err := env.compile(n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := env.compile(n.Hi)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := lo(ec, sc)
		if err != nil {
			return nil, err
		}
		ht, err := hi(ec, sc)
		if err != nil {
			return nil, err
		}
		los, err := singletonByIter(lt, "range start")
		if err != nil {
			return nil, err
		}
		his, err := singletonByIter(ht, "range end")
		if err != nil {
			return nil, err
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			l, okL := los[it]
			h, okH := his[it]
			if !okL || !okH {
				continue
			}
			lv, err := xdm.CastAtomic(l, "xs:integer")
			if err != nil {
				return nil, err
			}
			hv, err := xdm.CastAtomic(h, "xs:integer")
			if err != nil {
				return nil, err
			}
			pos := int64(1)
			for v := int64(lv.(xdm.Integer)); v <= int64(hv.(xdm.Integer)); v++ {
				out.AppendSeq(it, pos, xdm.Integer(v))
				pos++
			}
		}
		return out, nil
	}, nil
}

// binOpPlan joins two singleton-per-iter operands on iter and applies f.
func binOpPlan(l, r Plan, what string, f func(a, b xdm.Item) (xdm.Sequence, error)) Plan {
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		ls, err := singletonByIter(lt, what)
		if err != nil {
			return nil, err
		}
		rs, err := singletonByIter(rt, what)
		if err != nil {
			return nil, err
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			a, okA := ls[it]
			b, okB := rs[it]
			if !okA || !okB {
				continue // empty operand -> empty result
			}
			res, err := f(a, b)
			if err != nil {
				return nil, err
			}
			for p, item := range res {
				out.AppendSeq(it, int64(p+1), item)
			}
		}
		return out, nil
	}
}

func (env *staticEnv) compileArith(n *xq.Arith) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	return binOpPlan(l, r, "arithmetic operand", func(a, b xdm.Item) (xdm.Sequence, error) {
		return xqrt.Arith(op, atomizeItem(a), atomizeItem(b))
	}), nil
}

func atomizeItem(it xdm.Item) xdm.Item {
	if n, ok := it.(*xdm.Node); ok {
		return xdm.Untyped(n.StringValue())
	}
	return it
}

func (env *staticEnv) compileComparison(n *xq.Comparison) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	if n.Node {
		op := n.Op
		return binOpPlan(l, r, "node comparison operand", func(a, b xdm.Item) (xdm.Sequence, error) {
			return xqrt.NodeCompare(op, a, b)
		}), nil
	}
	if !n.General {
		op, err := xqrt.ValueOp(n.Op)
		if err != nil {
			return nil, err
		}
		return binOpPlan(l, r, "value comparison operand", func(a, b xdm.Item) (xdm.Sequence, error) {
			ok, err := xdm.CompareAtomic(atomizeItem(a), atomizeItem(b), op)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.Boolean(ok)), nil
		}), nil
	}
	op, err := xqrt.GeneralOp(n.Op)
	if err != nil {
		return nil, err
	}
	return generalPlan(l, r, op), nil
}

// generalPlan is a general comparison: per iteration, existential over
// the two operand sequences. It is not §3.2's "selection turned join": a
// where that compares the variables of two for clauses pays it once per
// pair of the cross product. The join is compileJoin's rule, whose
// equality shapes reach this plan only when a key column holds something
// other than strings.
func generalPlan(l, r Plan, op xdm.CompareOp) Plan {
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		lg := groupByIter(lt)
		rg := groupByIter(rt)
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			b, err := xdm.GeneralCompare(lg[it], rg[it], op)
			if err != nil {
				return nil, err
			}
			out.AppendSeq(it, 1, xdm.Boolean(b))
		}
		return out, nil
	}
}

func (env *staticEnv) compileLogic(n *xq.Logic) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	return logicPlan(l, r, n.Op == "and"), nil
}

// logicPlan is "l and r" (or "l or r"), short-circuited per iteration as
// the interpreter's evalLogic is: r runs only in the iterations l leaves
// undecided — where l is true for and, false for or — so an operand l
// guards (a castable test, a zero check, an execute at) is not evaluated
// in the iterations it guards against. The scope is narrowed only when l
// decides some iterations but not all: when it decides none, r runs
// over the scope as it is, and when it decides all, r does not run.
func logicPlan(l, r Plan, and bool) Plan {
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		lb, err := ebvByIter(lt)
		if err != nil {
			return nil, err
		}
		var rb map[int64]bool
		if keep := subLoop(sc.loop, lb, and); keep.Len() > 0 {
			rsc := sc
			if keep.Len() < sc.loop.Len() {
				rsc = sc.restrict(keep)
			}
			rt, err := r(ec, rsc)
			if err != nil {
				return nil, err
			}
			if rb, err = ebvByIter(rt); err != nil {
				return nil, err
			}
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			v := lb[it]
			if v == and {
				v = rb[it]
			}
			out.AppendSeq(it, 1, xdm.Boolean(v))
		}
		return out, nil
	}
}

func (env *staticEnv) compileIf(n *xq.If) (Plan, error) {
	cond, err := env.compile(n.Cond)
	if err != nil {
		return nil, err
	}
	then, err := env.compile(n.Then)
	if err != nil {
		return nil, err
	}
	els, err := env.compile(n.Else)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		ct, err := cond(ec, sc)
		if err != nil {
			return nil, err
		}
		cb, err := ebvByIter(ct)
		if err != nil {
			return nil, err
		}
		// loop split: then-branch runs only for true iters, else-branch
		// for the rest
		loopT := subLoop(sc.loop, cb, true)
		loopF := subLoop(sc.loop, cb, false)
		tt, err := then(ec, sc.restrict(loopT))
		if err != nil {
			return nil, err
		}
		ft, err := els(ec, sc.restrict(loopF))
		if err != nil {
			return nil, err
		}
		return algebra.Union(tt, ft), nil
	}, nil
}

func (env *staticEnv) compileQuantified(n *xq.Quantified) (Plan, error) {
	// some $v in E satisfies P  ≡  exists(for $v in E where P return 1)
	inner := &xq.FLWOR{
		Clauses: []xq.FLWORClause{&xq.ForClause{Var: n.Var, In: n.In}},
		Where:   n.Satisfies,
		Return:  &xq.IntLit{Val: 1},
	}
	if n.Every {
		// every ≡ count(matching) = count(all)
		all := &xq.FLWOR{
			Clauses: []xq.FLWORClause{&xq.ForClause{Var: n.Var, In: n.In}},
			Return:  &xq.IntLit{Val: 1},
		}
		return env.compile(&xq.Comparison{
			Op: "eq",
			L:  &xq.FuncCall{Name: "count", Args: []xq.Expr{inner}},
			R:  &xq.FuncCall{Name: "count", Args: []xq.Expr{all}},
		})
	}
	return env.compile(&xq.FuncCall{Name: "exists", Args: []xq.Expr{inner}})
}

// compileTypeswitch translates typeswitch by loop splitting: each case
// claims the iterations whose operand value matches its sequence type
// (first match wins), the default takes the rest — the same pattern as
// if/then/else.
func (env *staticEnv) compileTypeswitch(n *xq.Typeswitch) (Plan, error) {
	operand, err := env.compile(n.Operand)
	if err != nil {
		return nil, err
	}
	type casePlan struct {
		varName string
		typ     xq.SeqType
		plan    Plan
	}
	var cases []casePlan
	for _, c := range n.Cases {
		cenv := env
		if c.Var != "" {
			cenv = env.withVar(c.Var)
		}
		p, err := cenv.compile(c.Ret)
		if err != nil {
			return nil, err
		}
		cases = append(cases, casePlan{varName: c.Var, typ: c.Type, plan: p})
	}
	denv := env
	if n.DefaultVar != "" {
		denv = env.withVar(n.DefaultVar)
	}
	defPlan, err := denv.compile(n.Default)
	if err != nil {
		return nil, err
	}
	defVar := n.DefaultVar
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		ot, err := operand(ec, sc)
		if err != nil {
			return nil, err
		}
		groups := groupByIter(ot)
		claimed := map[int64]bool{}
		var outs []*algebra.Table
		runBranch := func(varName string, plan Plan, iters []int64) error {
			if len(iters) == 0 {
				return nil
			}
			loop := algebra.NewTable(algebra.ColIter)
			for _, it := range iters {
				loop.Append(xdm.Integer(it))
			}
			bsc := sc.restrict(loop)
			if varName != "" {
				seqs := map[int64]xdm.Sequence{}
				for _, it := range iters {
					seqs[it] = groups[it]
				}
				bsc = bsc.bind(varName, tableFromSeqs(iters, seqs))
			}
			t, err := plan(ec, bsc)
			if err != nil {
				return err
			}
			outs = append(outs, t)
			return nil
		}
		for _, c := range cases {
			var iters []int64
			for _, it := range itersOf(sc.loop) {
				if claimed[it] {
					continue
				}
				if xqrt.MatchesSeqType(groups[it], c.typ) {
					claimed[it] = true
					iters = append(iters, it)
				}
			}
			if err := runBranch(c.varName, c.plan, iters); err != nil {
				return nil, err
			}
		}
		var rest []int64
		for _, it := range itersOf(sc.loop) {
			if !claimed[it] {
				rest = append(rest, it)
			}
		}
		if err := runBranch(defVar, defPlan, rest); err != nil {
			return nil, err
		}
		if len(outs) == 0 {
			return seqTable(), nil
		}
		return algebra.UnionAll(outs...), nil
	}, nil
}

func (env *staticEnv) compileUnion(n *xq.UnionExpr) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		lg := groupByIter(lt)
		rg := groupByIter(rt)
		iters := itersOf(sc.loop)
		seqs := map[int64]xdm.Sequence{}
		for _, it := range iters {
			nodes := make([]*xdm.Node, 0, len(lg[it])+len(rg[it]))
			for _, item := range append(append(xdm.Sequence{}, lg[it]...), rg[it]...) {
				nd, ok := item.(*xdm.Node)
				if !ok {
					return nil, xdm.NewError("XPTY0004", "union operand contains non-nodes")
				}
				nodes = append(nodes, nd)
			}
			seqs[it] = xdm.NodeSeq(xdm.SortDocOrderDedup(nodes))
		}
		return tableFromSeqs(iters, seqs), nil
	}, nil
}

// ------------------------------------------------------------- FLWOR

func (env *staticEnv) compileFLWOR(fl *xq.FLWOR) (Plan, error) {
	if len(fl.OrderBy) > 0 {
		return nil, unsupported("order by")
	}
	return env.compileClauses(fl, 0)
}

func (env *staticEnv) compileClauses(fl *xq.FLWOR, i int) (Plan, error) {
	if i == len(fl.Clauses) {
		var condPlan Plan
		if fl.Where != nil {
			p, err := env.compile(fl.Where)
			if err != nil {
				return nil, err
			}
			condPlan = p
		}
		retPlan, err := env.compile(fl.Return)
		if err != nil {
			return nil, err
		}
		return whereReturn(condPlan, retPlan), nil
	}
	switch cl := fl.Clauses[i].(type) {
	case *xq.LetClause:
		valPlan, err := env.compile(cl.Val)
		if err != nil {
			return nil, err
		}
		rest, err := env.withVar(cl.Var).compileClauses(fl, i+1)
		if err != nil {
			return nil, err
		}
		varName := cl.Var
		return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
			val, err := valPlan(ec, sc)
			if err != nil {
				return nil, err
			}
			return rest(ec, sc.bind(varName, val))
		}, nil
	case *xq.ForClause:
		if shape := env.joinShape(fl, i); shape != nil {
			return env.compileJoin(fl, shape)
		}
		inPlan, err := env.compile(cl.In)
		if err != nil {
			return nil, err
		}
		rest, err := env.withVar(cl.Var, cl.PosVar).compileClauses(fl, i+1)
		if err != nil {
			return nil, err
		}
		return forPlan(inPlan, cl, rest), nil
	}
	return nil, unsupported("FLWOR clause")
}

// whereReturn is the end of every FLWOR: ret over the iterations whose
// cond (nil: all of them) holds.
func whereReturn(cond, ret Plan) Plan {
	if cond == nil {
		return ret
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		ct, err := cond(ec, sc)
		if err != nil {
			return nil, err
		}
		cb, err := ebvByIter(ct)
		if err != nil {
			return nil, err
		}
		return ret(ec, sc.restrict(subLoop(sc.loop, cb, true)))
	}
}

// forPlan is "for $v [at $p] in E" followed by rest: rest runs in a fresh
// loop with one iteration per item of E, and its result is mapped back.
func forPlan(in Plan, cl *xq.ForClause, rest Plan) Plan {
	vars := forVars(cl, "item", "pos")
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		q1, err := in(ec, sc)
		if err != nil {
			return nil, err
		}
		return runLoop(ec, sc, forRows(q1), vars, rest)
	}
}

// loopVar binds variable name to column col of the rows a loop is opened
// over. Names stay out of column names: a QName has a colon, and so do
// algebra.Project's specs.
type loopVar struct{ name, col string }

// forVars are the variables of a for clause whose items are in column item
// and whose positions in column pos, in binding order.
func forVars(cl *xq.ForClause, item, pos string) []loopVar {
	vars := []loopVar{{cl.Var, item}}
	if cl.PosVar != "" {
		vars = append(vars, loopVar{cl.PosVar, pos})
	}
	return vars
}

// forRows lays out the binding sequence of a for clause as loop rows for
// openLoop: in (iter, pos) order, the iteration as "outer", then "item"
// and "pos".
func forRows(q *algebra.Table) *algebra.Table {
	return algebra.Project(algebra.SortBy(q, algebra.ColIter, algebra.ColPos),
		"outer:"+algebra.ColIter, "item:"+algebra.ColItem, "pos:"+algebra.ColPos)
}

// runLoop runs body in a loop opened over rows and maps its result back
// to sc's loop: the inner loop of every for, nested or joined.
func runLoop(ec *ExecCtx, sc *scope, rows *algebra.Table, vars []loopVar, body Plan) (*algebra.Table, error) {
	inner, mapTbl := openLoop(sc, rows, vars)
	q2, err := body(ec, inner)
	if err != nil {
		return nil, err
	}
	return mapBack(q2, mapTbl), nil
}

// openLoop opens a fresh loop with one iteration per row of rows, in row
// order. Column "outer" names the iteration of sc a row belongs to, and
// every live variable is mapped in through it; then each of vars is bound,
// in order, to its column's value. The second result is the inner|outer
// mapping table mapBack needs.
func openLoop(sc *scope, rows *algebra.Table, vars []loopVar) (*scope, *algebra.Table) {
	numbered := algebra.RowNum(rows, "inner", nil, "")
	mapTbl := algebra.Project(numbered, "inner", "outer")
	inner := mapScopeInner(sc, algebra.Project(numbered, algebra.ColIter+":inner"), mapTbl)
	for _, v := range vars {
		c := rows.ColIdx(v.col)
		binding := seqTable()
		for r := 0; r < rows.Len(); r++ {
			binding.AppendSeq(int64(r+1), 1, rows.Item(r, c))
		}
		inner.vars[v.name] = binding
	}
	return inner, mapTbl
}

// mapScopeInner maps every live variable table into the inner loop by
// joining through the mapping table (the map_p application of §3.1).
func mapScopeInner(sc *scope, innerLoop, mapTbl *algebra.Table) *scope {
	out := newScope(innerLoop)
	for name, tbl := range sc.vars {
		joined := algebra.Join(mapTbl, tbl, "outer", algebra.ColIter)
		out.vars[name] = algebra.Project(joined, "iter:inner", algebra.ColPos, algebra.ColItem)
	}
	return out
}

// mapBack maps an inner-loop result back to the outer loop: inner iters
// are replaced by their outer iter, with positions renumbered by (inner,
// pos) within each outer iteration.
func mapBack(q2, mapTbl *algebra.Table) *algebra.Table {
	joined := algebra.Join(q2, mapTbl, algebra.ColIter, "inner")
	ranked := algebra.RowNum(joined, "newpos", []string{algebra.ColIter, algebra.ColPos}, "outer")
	return algebra.Project(ranked, "iter:outer", "pos:newpos", algebra.ColItem)
}
