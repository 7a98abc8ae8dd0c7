package interp

import (
	"fmt"
	"sort"
	"strings"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
)

// varFrame is a linked-list variable environment (cheap shadowing).
type varFrame struct {
	name   string
	val    xdm.Sequence
	parent *varFrame
}

// dynCtx is the dynamic evaluation context: context item / position /
// size, variable bindings, the current module's static context, and the
// pending update list accumulator.
type dynCtx struct {
	c      *xqrt.Compiled
	eng    *Engine
	module *xq.Module
	docs   docres.DocResolver
	rpc    client.BulkCaller
	vars   *varFrame
	item   xdm.Item
	pos    int
	size   int
	pul    *xquf.UpdateList
	cnt    *indexCounters // this evaluation's index use; shared by child contexts
	memo   *evalMemo
	depth  int
	maxRec int
}

func (ctx *dynCtx) bind(name string, val xdm.Sequence) {
	ctx.vars = &varFrame{name: name, val: val, parent: ctx.vars}
}

func (ctx *dynCtx) lookup(name string) (xdm.Sequence, bool) {
	for f := ctx.vars; f != nil; f = f.parent {
		if f.name == name {
			return f.val, true
		}
	}
	return nil, false
}

// child returns a copy of the context; bindings added to the copy do not
// leak back.
func (ctx *dynCtx) child() *dynCtx {
	cp := *ctx
	return &cp
}

func (ctx *dynCtx) eval(e xq.Expr) (xdm.Sequence, error) {
	switch n := e.(type) {
	case *xq.StringLit:
		return xdm.Singleton(xdm.String(n.Val)), nil
	case *xq.IntLit:
		return xdm.Singleton(xdm.Integer(n.Val)), nil
	case *xq.DecimalLit:
		return xdm.Singleton(xdm.Decimal(n.Val)), nil
	case *xq.DoubleLit:
		return xdm.Singleton(xdm.Double(n.Val)), nil
	case *xq.EmptySeq:
		return nil, nil
	case *xq.VarRef:
		v, ok := ctx.lookup(n.Name)
		if !ok {
			return nil, xdm.Errorf("XPST0008", "undefined variable $%s", n.Name)
		}
		return v, nil
	case *xq.ContextItem:
		if ctx.item == nil {
			return nil, xdm.NewError("XPDY0002", "context item is absent")
		}
		return xdm.Singleton(ctx.item), nil
	case *xq.SeqExpr:
		var out xdm.Sequence
		for _, it := range n.Items {
			v, err := ctx.eval(it)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xq.RangeExpr:
		return ctx.evalRange(n)
	case *xq.Arith:
		return ctx.evalArith(n)
	case *xq.Unary:
		v, err := ctx.eval(n.X)
		if err != nil {
			return nil, err
		}
		return xqrt.Unary(n.Neg, v)
	case *xq.Comparison:
		return ctx.evalComparison(n)
	case *xq.Logic:
		return ctx.evalLogic(n)
	case *xq.UnionExpr:
		return ctx.evalUnion(n)
	case *xq.If:
		cond, err := ctx.eval(n.Cond)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBoolean(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return ctx.eval(n.Then)
		}
		return ctx.eval(n.Else)
	case *xq.FLWOR:
		return ctx.evalFLWOR(n)
	case *xq.Quantified:
		return ctx.evalQuantified(n)
	case *xq.Path:
		return ctx.evalPath(n)
	case *xq.FuncCall:
		return ctx.evalCall(n)
	case *xq.ExecuteAt:
		return ctx.evalExecuteAt(n)
	case *xq.DirElem:
		node, err := ctx.constructElem(n)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(node), nil
	case *xq.DirComment:
		c := xdm.NewComment(n.CommentValue())
		c.Seal()
		return xdm.Singleton(c), nil
	case *xq.Enclosed:
		return ctx.eval(n.X)
	case *xq.CompElem:
		return ctx.evalCompElem(n)
	case *xq.CompAttr:
		return ctx.evalCompAttr(n)
	case *xq.CompText:
		v, err := ctx.eval(n.Val)
		if err != nil {
			return nil, err
		}
		t := xdm.NewText(v.StringJoin(" "))
		t.Seal()
		return xdm.Singleton(t), nil
	case *xq.Cast:
		v, err := ctx.eval(n.X)
		if err != nil {
			return nil, err
		}
		return xqrt.CastSingleton(v, n.Type, n.Optional)
	case *xq.Typeswitch:
		return ctx.evalTypeswitch(n)
	case *xq.Castable:
		v, err := ctx.eval(n.X)
		if err != nil {
			return nil, err
		}
		_, castErr := xqrt.CastSingleton(v, n.Type, n.Optional)
		return xdm.Singleton(xdm.Boolean(castErr == nil)), nil
	case *xq.InstanceOf:
		v, err := ctx.eval(n.X)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(xqrt.MatchesSeqType(v, n.Type))), nil
	case *xq.Insert, *xq.Delete, *xq.Replace, *xq.Rename:
		return ctx.evalUpdate(e)
	default:
		return nil, xdm.Errorf("XPST0003", "unsupported expression %T", e)
	}
}

func (ctx *dynCtx) evalRange(n *xq.RangeExpr) (xdm.Sequence, error) {
	lo, err := ctx.evalToInt(n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := ctx.evalToInt(n.Hi)
	if err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, nil
	}
	out := make(xdm.Sequence, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, xdm.Integer(i))
	}
	return out, nil
}

func (ctx *dynCtx) evalToInt(e xq.Expr) (int64, error) {
	v, err := ctx.eval(e)
	if err != nil {
		return 0, err
	}
	v = xdm.Atomize(v)
	if len(v) == 0 {
		return 0, xdm.NewError("XPTY0004", "empty sequence where integer expected")
	}
	if len(v) != 1 {
		return 0, xdm.NewError("XPTY0004", "sequence of more than one item where integer expected")
	}
	cast, err := xdm.CastAtomic(v[0], "xs:integer")
	if err != nil {
		return 0, err
	}
	return int64(cast.(xdm.Integer)), nil
}

func (ctx *dynCtx) evalArith(n *xq.Arith) (xdm.Sequence, error) {
	l, err := ctx.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(n.R)
	if err != nil {
		return nil, err
	}
	l, r = xdm.Atomize(l), xdm.Atomize(r)
	if len(l) == 0 || len(r) == 0 {
		return nil, nil // arithmetic on () yields ()
	}
	if len(l) > 1 || len(r) > 1 {
		return nil, xdm.NewError("XPTY0004", "arithmetic operand is not a singleton")
	}
	return xqrt.Arith(n.Op, l[0], r[0])
}

func (ctx *dynCtx) evalComparison(n *xq.Comparison) (xdm.Sequence, error) {
	l, err := ctx.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(n.R)
	if err != nil {
		return nil, err
	}
	if n.Node {
		return nodeComparison(n.Op, l, r)
	}
	if n.General {
		op, err := xqrt.GeneralOp(n.Op)
		if err != nil {
			return nil, err
		}
		b, err := xdm.GeneralCompare(l, r, op)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(b)), nil
	}
	// value comparison: empty operand -> empty result
	la, ra := xdm.Atomize(l), xdm.Atomize(r)
	if len(la) == 0 || len(ra) == 0 {
		return nil, nil
	}
	if len(la) > 1 || len(ra) > 1 {
		return nil, xdm.NewError("XPTY0004", "value comparison operand is not a singleton")
	}
	op, err := xqrt.ValueOp(n.Op)
	if err != nil {
		return nil, err
	}
	b, err := xdm.CompareAtomic(la[0], ra[0], op)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Boolean(b)), nil
}

func nodeComparison(op string, l, r xdm.Sequence) (xdm.Sequence, error) {
	if len(l) == 0 || len(r) == 0 {
		return nil, nil
	}
	if len(l) > 1 || len(r) > 1 {
		return nil, xdm.NewError("XPTY0004", "node comparison requires single nodes")
	}
	return xqrt.NodeCompare(op, l[0], r[0])
}

func (ctx *dynCtx) evalLogic(n *xq.Logic) (xdm.Sequence, error) {
	l, err := ctx.eval(n.L)
	if err != nil {
		return nil, err
	}
	lb, err := xdm.EffectiveBoolean(l)
	if err != nil {
		return nil, err
	}
	if n.Op == "and" && !lb {
		return xdm.Singleton(xdm.Boolean(false)), nil
	}
	if n.Op == "or" && lb {
		return xdm.Singleton(xdm.Boolean(true)), nil
	}
	r, err := ctx.eval(n.R)
	if err != nil {
		return nil, err
	}
	rb, err := xdm.EffectiveBoolean(r)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Boolean(rb)), nil
}

func (ctx *dynCtx) evalUnion(n *xq.UnionExpr) (xdm.Sequence, error) {
	l, err := ctx.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(n.R)
	if err != nil {
		return nil, err
	}
	ln, ok := xdm.NodesOf(l)
	if !ok {
		return nil, xdm.NewError("XPTY0004", "union operand contains non-nodes")
	}
	rn, ok := xdm.NodesOf(r)
	if !ok {
		return nil, xdm.NewError("XPTY0004", "union operand contains non-nodes")
	}
	return xdm.NodeSeq(xdm.SortDocOrderDedup(append(ln, rn...))), nil
}

// -------------------------------------------------------------- FLWOR

func (ctx *dynCtx) evalFLWOR(n *xq.FLWOR) (xdm.Sequence, error) {
	var out xdm.Sequence
	type tuple struct {
		env  *varFrame
		keys []xdm.Item // nil entry = empty key ordering last
	}
	var tuples []tuple
	ordered := len(n.OrderBy) > 0

	var emit func(ctx *dynCtx) error
	emit = func(tctx *dynCtx) error {
		if n.Where != nil {
			w, err := tctx.eval(n.Where)
			if err != nil {
				return err
			}
			b, err := xdm.EffectiveBoolean(w)
			if err != nil {
				return err
			}
			if !b {
				return nil
			}
		}
		if ordered {
			keys := make([]xdm.Item, len(n.OrderBy))
			for i, spec := range n.OrderBy {
				kv, err := tctx.eval(spec.Key)
				if err != nil {
					return err
				}
				kv = xdm.Atomize(kv)
				if len(kv) > 1 {
					return xdm.NewError("XPTY0004", "order by key is not a singleton")
				}
				if len(kv) == 1 {
					keys[i] = kv[0]
				}
			}
			tuples = append(tuples, tuple{env: tctx.vars, keys: keys})
			return nil
		}
		v, err := tctx.eval(n.Return)
		if err != nil {
			return err
		}
		out = append(out, v...)
		return nil
	}

	var runClause func(i int, tctx *dynCtx) error
	runClause = func(i int, tctx *dynCtx) error {
		if i == len(n.Clauses) {
			return emit(tctx)
		}
		switch cl := n.Clauses[i].(type) {
		case *xq.LetClause:
			v, err := tctx.eval(cl.Val)
			if err != nil {
				return err
			}
			next := tctx.child()
			next.bind(cl.Var, v)
			return runClause(i+1, next)
		case *xq.ForClause:
			seq, err := tctx.eval(cl.In)
			if err != nil {
				return err
			}
			for idx, it := range seq {
				next := tctx.child()
				next.bind(cl.Var, xdm.Singleton(it))
				if cl.PosVar != "" {
					next.bind(cl.PosVar, xdm.Singleton(xdm.Integer(idx+1)))
				}
				if err := runClause(i+1, next); err != nil {
					return err
				}
			}
			return nil
		}
		return xdm.NewError("XPST0003", "unknown FLWOR clause")
	}
	if err := runClause(0, ctx); err != nil {
		return nil, err
	}
	if !ordered {
		return out, nil
	}
	specs := n.OrderBy
	var sortErr error
	sort.SliceStable(tuples, func(a, b int) bool {
		for k := range specs {
			ka, kb := tuples[a].keys[k], tuples[b].keys[k]
			if ka == nil && kb == nil {
				continue
			}
			// empty sequence orders greatest (spec default is
			// implementation-chosen; we choose "empty greatest")
			if ka == nil {
				return false
			}
			if kb == nil {
				return true
			}
			lt, err := xdm.CompareAtomic(ka, kb, xdm.OpLt)
			if err != nil {
				sortErr = err
				return false
			}
			gt, _ := xdm.CompareAtomic(ka, kb, xdm.OpGt)
			if !lt && !gt {
				continue
			}
			if specs[k].Descending {
				return gt
			}
			return lt
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	for _, tp := range tuples {
		tctx := ctx.child()
		tctx.vars = tp.env
		v, err := tctx.eval(n.Return)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (ctx *dynCtx) evalQuantified(n *xq.Quantified) (xdm.Sequence, error) {
	seq, err := ctx.eval(n.In)
	if err != nil {
		return nil, err
	}
	for _, it := range seq {
		tctx := ctx.child()
		tctx.bind(n.Var, xdm.Singleton(it))
		v, err := tctx.eval(n.Satisfies)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBoolean(v)
		if err != nil {
			return nil, err
		}
		if n.Every && !b {
			return xdm.Singleton(xdm.Boolean(false)), nil
		}
		if !n.Every && b {
			return xdm.Singleton(xdm.Boolean(true)), nil
		}
	}
	return xdm.Singleton(xdm.Boolean(n.Every)), nil
}

// --------------------------------------------------------------- paths

func (ctx *dynCtx) evalPath(p *xq.Path) (xdm.Sequence, error) {
	var current xdm.Sequence
	switch {
	case p.Root != nil:
		v, err := ctx.eval(p.Root)
		if err != nil {
			return nil, err
		}
		current = v
	case p.FromRoot:
		n, ok := ctx.item.(*xdm.Node)
		if !ok {
			return nil, xdm.NewError("XPDY0002", "no context node for '/'")
		}
		current = xdm.Singleton(n.Root())
	default:
		if ctx.item == nil {
			return nil, xdm.NewError("XPDY0002", "no context item for relative path")
		}
		current = xdm.Singleton(ctx.item)
	}
	// predicates on the root primary
	for _, pred := range p.RootPreds {
		filtered, err := ctx.applyPredicate(current, pred)
		if err != nil {
			return nil, err
		}
		current = filtered
	}
	if len(p.Steps) == 0 {
		return current, nil
	}
	for si := range p.Steps {
		st := &p.Steps[si]
		nodes, ok := xdm.NodesOf(current)
		if !ok {
			return nil, xdm.NewError("XPTY0004", "path step applied to non-node")
		}
		var results []*xdm.Node
		for _, cn := range nodes {
			stepOut := ctx.memoStep(st, cn)
			preds := st.Preds
			// hash-index fast path for a join-shaped first predicate (§4)
			if len(preds) > 0 {
				if hits, ok := ctx.tryIndexedPredicate(st, cn, stepOut, preds[0]); ok {
					stepOut, preds = hits, preds[1:]
				}
			}
			if len(preds) == 0 {
				results = append(results, stepOut...)
				continue
			}
			seq := xdm.NodeSeq(stepOut)
			for _, pred := range preds {
				var err error
				seq, err = ctx.applyPredicate(seq, pred)
				if err != nil {
					return nil, err
				}
			}
			ns, _ := xdm.NodesOf(seq)
			results = append(results, ns...)
		}
		results = xdm.SortDocOrderDedup(results)
		current = xdm.NodeSeq(results)
	}
	return current, nil
}

// applyPredicate filters seq by one predicate row-at-a-time, with XPath
// positional semantics (numeric predicate selects by position;
// position() and last() are available). Step results arrive in axis
// order, so positions equal sequence order on reverse axes too.
func (ctx *dynCtx) applyPredicate(seq xdm.Sequence, pred xq.Expr) (xdm.Sequence, error) {
	// fast path: constant integer predicate
	if lit, ok := pred.(*xq.IntLit); ok {
		idx := int(lit.Val)
		if idx >= 1 && idx <= len(seq) {
			return xdm.Singleton(seq[idx-1]), nil
		}
		return nil, nil
	}
	ctx.cnt.fallbacks++
	var out xdm.Sequence
	for i, it := range seq {
		pctx := ctx.child()
		pctx.item = it
		pctx.pos = i + 1
		pctx.size = len(seq)
		v, err := pctx.eval(pred)
		if err != nil {
			return nil, err
		}
		// numeric predicate: position match
		if len(v) == 1 {
			if f, isNum := numericOf(v[0]); isNum {
				if float64(i+1) == f {
					out = append(out, it)
				}
				continue
			}
		}
		b, err := xdm.EffectiveBoolean(v)
		if err != nil {
			return nil, err
		}
		if b {
			out = append(out, it)
		}
	}
	return out, nil
}

func numericOf(it xdm.Item) (float64, bool) {
	if xdm.IsNumeric(it) {
		f, _ := xdm.NumericValue(it)
		return f, true
	}
	return 0, false
}

// --------------------------------------------------------- constructors

func (ctx *dynCtx) constructElem(n *xq.DirElem) (*xdm.Node, error) {
	el := xdm.NewElement(n.Name)
	for _, a := range n.Attrs {
		var sb strings.Builder
		for _, part := range a.Value {
			switch pt := part.(type) {
			case *xq.StringLit:
				sb.WriteString(pt.Val)
			case *xq.Enclosed:
				v, err := ctx.eval(pt.X)
				if err != nil {
					return nil, err
				}
				sb.WriteString(xdm.Atomize(v).StringJoin(" "))
			}
		}
		el.SetAttr(xdm.NewAttribute(a.Name, sb.String()))
	}
	for _, c := range n.Content {
		switch cn := c.(type) {
		case *xq.StringLit:
			if cn.Val != "" {
				el.AppendChild(xdm.NewText(cn.Val))
			}
		case *xq.DirElem:
			sub, err := ctx.constructElem(cn)
			if err != nil {
				return nil, err
			}
			el.AppendChild(sub)
		case *xq.DirComment:
			el.AppendChild(xdm.NewComment(cn.CommentValue()))
		case *xq.Enclosed:
			v, err := ctx.eval(cn.X)
			if err != nil {
				return nil, err
			}
			xqrt.AppendContent(el, v)
		default:
			v, err := ctx.eval(c)
			if err != nil {
				return nil, err
			}
			xqrt.AppendContent(el, v)
		}
	}
	el.Seal()
	return el, nil
}

func (ctx *dynCtx) evalCompElem(n *xq.CompElem) (xdm.Sequence, error) {
	nameSeq, err := ctx.eval(n.Name)
	if err != nil {
		return nil, err
	}
	if len(nameSeq) != 1 {
		return nil, xdm.NewError("XPTY0004", "element name must be a single item")
	}
	el := xdm.NewElement(nameSeq[0].StringValue())
	content, err := ctx.eval(n.Content)
	if err != nil {
		return nil, err
	}
	xqrt.AppendContent(el, content)
	el.Seal()
	return xdm.Singleton(el), nil
}

func (ctx *dynCtx) evalCompAttr(n *xq.CompAttr) (xdm.Sequence, error) {
	nameSeq, err := ctx.eval(n.Name)
	if err != nil {
		return nil, err
	}
	if len(nameSeq) != 1 {
		return nil, xdm.NewError("XPTY0004", "attribute name must be a single item")
	}
	val, err := ctx.eval(n.Value)
	if err != nil {
		return nil, err
	}
	a := xdm.NewAttribute(nameSeq[0].StringValue(), xdm.Atomize(val).StringJoin(" "))
	a.Seal()
	return xdm.Singleton(a), nil
}

// evalTypeswitch implements typeswitch: the first case whose sequence
// type matches the operand wins; its variable (if any) binds the
// operand.
func (ctx *dynCtx) evalTypeswitch(n *xq.Typeswitch) (xdm.Sequence, error) {
	v, err := ctx.eval(n.Operand)
	if err != nil {
		return nil, err
	}
	for _, c := range n.Cases {
		if xqrt.MatchesSeqType(v, c.Type) {
			cctx := ctx.child()
			if c.Var != "" {
				cctx.bind(c.Var, v)
			}
			return cctx.eval(c.Ret)
		}
	}
	dctx := ctx.child()
	if n.DefaultVar != "" {
		dctx.bind(n.DefaultVar, v)
	}
	return dctx.eval(n.Default)
}

// ------------------------------------------------------ function calls

func (ctx *dynCtx) evalCall(call *xq.FuncCall) (xdm.Sequence, error) {
	// user-defined functions first (they shadow nothing builtin by
	// namespace, but our builtins are fn:/xs:/xrpc: names)
	if f, ok := ctx.c.LookupFunc(ctx.module, call.Name, len(call.Args)); ok {
		args := make([]xdm.Sequence, len(call.Args))
		for i, a := range call.Args {
			v, err := ctx.eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return ctx.callBound(f, args)
	}
	return ctx.evalBuiltin(call)
}

// callBound applies a user-defined function: converts arguments per the
// signature (function conversion rules), binds parameters, evaluates the
// body in the defining module's static context.
func (ctx *dynCtx) callBound(f *xqrt.Func, args []xdm.Sequence) (xdm.Sequence, error) {
	if ctx.depth >= ctx.maxRec {
		return nil, xdm.NewError("FOER0000", "recursion limit exceeded")
	}
	if f.Decl.External {
		return nil, xdm.Errorf("XPST0017", "external function %s has no implementation", f.Decl.Name)
	}
	fctx := ctx.child()
	fctx.module = f.Module
	// functions see only their parameters (and globals via rebinding
	// below), and none of the caller's focus
	fctx.vars = nil
	fctx.item, fctx.pos, fctx.size = nil, 0, 0
	fctx.depth = ctx.depth + 1
	for i, p := range f.Decl.Params {
		conv, err := xqrt.ConvertParam(args[i], p.Type)
		if err != nil {
			return nil, xdm.Errorf("XPTY0004", "argument %d of %s: %v", i+1, f.Decl.Name, err)
		}
		fctx.bind(p.Name, conv)
	}
	res, err := fctx.eval(f.Decl.Body)
	if err != nil {
		return nil, err
	}
	// propagate updates collected by updating functions
	return res, xqrt.CheckCardinality(res, f.Decl.Return, f.Decl.Name)
}

// --------------------------------------------------------- execute at

func (ctx *dynCtx) evalExecuteAt(n *xq.ExecuteAt) (xdm.Sequence, error) {
	if ctx.rpc == nil {
		return nil, xdm.NewError("XRPC0001", "no RPC transport configured for execute at")
	}
	destSeq, err := ctx.eval(n.Dest)
	if err != nil {
		return nil, err
	}
	if len(destSeq) != 1 {
		return nil, xdm.NewError("XRPC0002", "execute at destination must be a single string")
	}
	dest := destSeq[0].StringValue()

	f, ok := ctx.c.LookupFunc(ctx.module, n.Call.Name, len(n.Call.Args))
	if !ok {
		return nil, xdm.Errorf("XPST0017", "unknown function %s#%d in execute at", n.Call.Name, len(n.Call.Args))
	}
	args := make([]xdm.Sequence, len(n.Call.Args))
	for i, a := range n.Call.Args {
		v, err := ctx.eval(a)
		if err != nil {
			return nil, err
		}
		// XRPC requires the *caller* to perform parameter up-casting
		// (§2.2 "Parameter Marshaling").
		conv, err := xqrt.ConvertParam(v, f.Decl.Params[i].Type)
		if err != nil {
			return nil, err
		}
		args[i] = conv
	}
	// one-at-a-time RPC is a Bulk RPC of one call
	results, err := ctx.rpc.CallBulk(dest, &client.BulkRequest{
		ModuleURI:  f.Module.ModuleURI,
		AtHint:     f.AtHint,
		Func:       f.Decl.LocalName(),
		Arity:      f.Decl.Arity(),
		Updating:   f.Decl.Updating,
		ByFragment: ctx.eng.ByFragment,
		Calls:      [][]xdm.Sequence{args},
	})
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("xrpc: expected 1 result sequence, got %d", len(results))
	}
	return results[0], nil
}
