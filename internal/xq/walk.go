package xq

// Walk calls visit on e and on every expression below it, each with the
// set of variables bound on the way down — bound plus what the enclosing
// for, let, quantifier and typeswitch clauses inside e bind (valid during
// the call only). An execute at is walked through its destination and
// arguments; the called function is the remote peer's to evaluate, so
// its name is not visited as a local call. Walk is the one traversal of
// the AST: a static question about an expression is a visitor over it,
// and a new Expr node is added to the switch below or fails
// TestWalkVisitsEveryExprField.
func Walk(e Expr, bound map[string]bool, visit func(Expr, map[string]bool)) {
	if e == nil {
		return
	}
	visit(e, bound)
	walk := func(x Expr) { Walk(x, bound, visit) }
	// binding walks x with one more variable in scope
	binding := func(name string, x Expr) {
		b := bound
		if name != "" {
			b = copyBound(bound)
			b[name] = true
		}
		Walk(x, b, visit)
	}
	switch x := e.(type) {
	case *Path:
		walk(x.Root)
		for _, p := range x.RootPreds {
			walk(p)
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				walk(p)
			}
		}
	case *FLWOR:
		b := copyBound(bound)
		for _, cl := range x.Clauses {
			switch c := cl.(type) {
			case *ForClause:
				Walk(c.In, b, visit)
				b[c.Var] = true
				if c.PosVar != "" {
					b[c.PosVar] = true
				}
			case *LetClause:
				Walk(c.Val, b, visit)
				b[c.Var] = true
			}
		}
		Walk(x.Where, b, visit)
		for _, o := range x.OrderBy {
			Walk(o.Key, b, visit)
		}
		Walk(x.Return, b, visit)
	case *Quantified:
		walk(x.In)
		binding(x.Var, x.Satisfies)
	case *Typeswitch:
		walk(x.Operand)
		for _, c := range x.Cases {
			binding(c.Var, c.Ret)
		}
		binding(x.DefaultVar, x.Default)
	case *SeqExpr:
		for _, it := range x.Items {
			walk(it)
		}
	case *RangeExpr:
		walk(x.Lo)
		walk(x.Hi)
	case *Arith:
		walk(x.L)
		walk(x.R)
	case *Unary:
		walk(x.X)
	case *Comparison:
		walk(x.L)
		walk(x.R)
	case *Logic:
		walk(x.L)
		walk(x.R)
	case *UnionExpr:
		walk(x.L)
		walk(x.R)
	case *If:
		walk(x.Cond)
		walk(x.Then)
		walk(x.Else)
	case *FuncCall:
		for _, a := range x.Args {
			walk(a)
		}
	case *ExecuteAt:
		walk(x.Dest)
		if x.Call != nil {
			for _, a := range x.Call.Args {
				walk(a)
			}
		}
	case *DirElem:
		for _, a := range x.Attrs {
			for _, v := range a.Value {
				walk(v)
			}
		}
		for _, c := range x.Content {
			walk(c)
		}
	case *Enclosed:
		walk(x.X)
	case *CompElem:
		walk(x.Name)
		walk(x.Content)
	case *CompAttr:
		walk(x.Name)
		walk(x.Value)
	case *CompText:
		walk(x.Val)
	case *Cast:
		walk(x.X)
	case *Castable:
		walk(x.X)
	case *InstanceOf:
		walk(x.X)
	case *Insert:
		walk(x.Source)
		walk(x.Target)
	case *Delete:
		walk(x.Target)
	case *Replace:
		walk(x.Target)
		walk(x.Source)
	case *Rename:
		walk(x.Target)
		walk(x.NewName)
	}
}

func copyBound(bound map[string]bool) map[string]bool {
	b := make(map[string]bool, len(bound)+2)
	for k, v := range bound {
		b[k] = v
	}
	return b
}
