package pathfinder

import (
	"fmt"
	"strings"

	"xrpc/internal/algebra"
	"xrpc/internal/interp"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

const maxInlineDepth = 64

// compileCall handles built-in functions (as per-iteration aggregates
// and maps over iter|pos|item tables) and user-defined functions (which
// are inlined — MonetDB/XQuery compiles loop-lifted function bodies).
func (env *staticEnv) compileCall(call *xq.FuncCall) (Plan, error) {
	if f, mod, _, ok := env.static.LookupFunc(env.module, call.Name, len(call.Args)); ok {
		return env.inlineFunction(call, f, mod)
	}
	return env.compileBuiltin(call)
}

// inlineFunction compiles a user-defined function application by
// compiling the body with parameters bound in the caller's loop.
func (env *staticEnv) inlineFunction(call *xq.FuncCall, f *xq.FuncDecl, mod *xq.Module) (Plan, error) {
	if env.depth >= maxInlineDepth {
		return nil, unsupported("recursive user-defined functions")
	}
	if f.Updating {
		return nil, unsupported("updating functions in the loop-lifted engine")
	}
	if f.External {
		return nil, unsupported("external functions")
	}
	argPlans := make([]Plan, len(call.Args))
	for i, a := range call.Args {
		p, err := env.compile(a)
		if err != nil {
			return nil, err
		}
		argPlans[i] = p
	}
	fenv := &staticEnv{static: env.static, module: mod, vars: map[string]bool{}, depth: env.depth + 1, proj: env.proj}
	for _, prm := range f.Params {
		fenv.vars[prm.Name] = true
	}
	bodyPlan, err := fenv.compile(f.Body)
	if err != nil {
		return nil, err
	}
	params := f.Params
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		// parameters: computed in the caller's scope, converted per the
		// signature, visible as the only variables in the body scope
		fsc := newScope(sc.loop)
		for i, ap := range argPlans {
			t, err := ap(ec, sc)
			if err != nil {
				return nil, err
			}
			conv, err := convertTable(t, params[i].Type, itersOf(sc.loop))
			if err != nil {
				return nil, err
			}
			fsc = fsc.bind(params[i].Name, conv)
		}
		return bodyPlan(ec, fsc)
	}, nil
}

// convertTable applies the function conversion rules per iteration.
func convertTable(t *algebra.Table, typ xq.SeqType, iters []int64) (*algebra.Table, error) {
	groups := groupByIter(t)
	out := map[int64]xdm.Sequence{}
	for _, it := range iters {
		conv, err := interp.ConvertParam(groups[it], typ)
		if err != nil {
			return nil, err
		}
		out[it] = conv
	}
	return tableFromSeqs(iters, out), nil
}

// aggPlan compiles a per-iteration application: args are grouped by iter
// and f computes each iteration's result sequence (aligned to the loop,
// so empty groups still invoke f — needed for count() = 0).
func (env *staticEnv) aggPlan(args []xq.Expr, f interp.BuiltinFunc) (Plan, error) {
	plans := make([]Plan, len(args))
	for i, a := range args {
		p, err := env.compile(a)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		grouped := make([]map[int64]xdm.Sequence, len(plans))
		for i, p := range plans {
			t, err := p(ec, sc)
			if err != nil {
				return nil, err
			}
			grouped[i] = groupByIter(t)
		}
		iters := itersOf(sc.loop)
		seqs := map[int64]xdm.Sequence{}
		for _, it := range iters {
			argSeqs := make([]xdm.Sequence, len(plans))
			for i := range plans {
				argSeqs[i] = grouped[i][it]
			}
			res, err := f(ec.Docs, argSeqs)
			if err != nil {
				return nil, err
			}
			seqs[it] = res
		}
		return tableFromSeqs(iters, seqs), nil
	}, nil
}

// focusVar names the variable a predicate's scope binds for each part of
// the focus interp.Builtin can report a function needs.
var focusVar = map[string]string{
	"the context item":     ".",
	"the context position": "@position",
	"the context size":     "@last",
}

// compileBuiltin applies the function library the interpreter defines
// (interp.Builtin) once per iteration; no function is defined here. A
// function that reads the focus is served where the focus is bound, in a
// path predicate: position() and last() are the variables "@position"
// and "@last", and f() is f(.).
func (env *staticEnv) compileBuiltin(call *xq.FuncCall) (Plan, error) {
	f, needs, err := interp.Builtin(call.Name, len(call.Args))
	if err != nil {
		return nil, err
	}
	if v := focusVar[needs]; f == nil && env.vars[v] {
		if v != "." {
			return env.compile(&xq.VarRef{Name: v})
		}
		return env.compileBuiltin(&xq.FuncCall{Name: call.Name, Args: []xq.Expr{&xq.ContextItem{}}})
	}
	if f == nil {
		return nil, unsupported(fmt.Sprintf("function %s#%d, which needs %s,", call.Name, len(call.Args), needs))
	}
	return env.aggPlan(call.Args, f)
}

// ------------------------------------------------------- constructors

func (env *staticEnv) compileDirElem(n *xq.DirElem) (Plan, error) {
	type attrPart struct {
		lit  string
		plan Plan
	}
	type attrSpec struct {
		name  string
		parts []attrPart
	}
	var attrs []attrSpec
	for _, a := range n.Attrs {
		spec := attrSpec{name: a.Name}
		for _, part := range a.Value {
			switch p := part.(type) {
			case *xq.StringLit:
				spec.parts = append(spec.parts, attrPart{lit: p.Val})
			case *xq.Enclosed:
				pl, err := env.compile(p.X)
				if err != nil {
					return nil, err
				}
				spec.parts = append(spec.parts, attrPart{plan: pl})
			}
		}
		attrs = append(attrs, spec)
	}
	type contentPart struct {
		lit  string
		plan Plan
	}
	var content []contentPart
	for _, c := range n.Content {
		switch p := c.(type) {
		case *xq.StringLit:
			content = append(content, contentPart{lit: p.Val})
		default:
			pl, err := env.compile(c)
			if err != nil {
				return nil, err
			}
			content = append(content, contentPart{plan: pl})
		}
	}
	name := n.Name
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		// evaluate all enclosed parts loop-lifted, then assemble one
		// element per iteration
		attrVals := make([][]map[int64]xdm.Sequence, len(attrs))
		for ai, a := range attrs {
			attrVals[ai] = make([]map[int64]xdm.Sequence, len(a.parts))
			for pi, part := range a.parts {
				if part.plan == nil {
					continue
				}
				t, err := part.plan(ec, sc)
				if err != nil {
					return nil, err
				}
				attrVals[ai][pi] = groupByIter(t)
			}
		}
		contVals := make([]map[int64]xdm.Sequence, len(content))
		for ci, part := range content {
			if part.plan == nil {
				continue
			}
			t, err := part.plan(ec, sc)
			if err != nil {
				return nil, err
			}
			contVals[ci] = groupByIter(t)
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			el := xdm.NewElement(name)
			for ai, a := range attrs {
				var sb strings.Builder
				for pi, part := range a.parts {
					if part.plan == nil {
						sb.WriteString(part.lit)
						continue
					}
					sb.WriteString(xdm.Atomize(attrVals[ai][pi][it]).StringJoin(" "))
				}
				el.SetAttr(xdm.NewAttribute(a.name, sb.String()))
			}
			for ci, part := range content {
				if part.plan == nil {
					if part.lit != "" {
						el.AppendChild(xdm.NewText(part.lit))
					}
					continue
				}
				if err := interp.AppendContent(el, contVals[ci][it]); err != nil {
					return nil, err
				}
			}
			el.Seal()
			out.Append(xdm.Integer(it), xdm.Integer(1), el)
		}
		return out, nil
	}, nil
}

func (env *staticEnv) compileCompText(n *xq.CompText) (Plan, error) {
	return env.aggPlan([]xq.Expr{n.Val}, func(_ interp.DocResolver, g []xdm.Sequence) (xdm.Sequence, error) {
		t := xdm.NewText(g[0].StringJoin(" "))
		t.Seal()
		return xdm.Singleton(t), nil
	})
}
