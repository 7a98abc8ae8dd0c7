package interp

import (
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xquf"
)

// evalUpdate evaluates one XQUF update expression, appending primitives
// to the pending update list; its value is the empty sequence.
func (ctx *dynCtx) evalUpdate(e xq.Expr) (xdm.Sequence, error) {
	switch n := e.(type) {
	case *xq.Insert:
		src, err := ctx.eval(n.Source)
		if err != nil {
			return nil, err
		}
		srcNodes := contentNodes(src)
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		kind := xquf.PrimInsertInto
		switch n.Pos {
		case xq.InsertAsFirst:
			kind = xquf.PrimInsertFirst
		case xq.InsertAsLast:
			kind = xquf.PrimInsertLast
		case xq.InsertBefore:
			kind = xquf.PrimInsertBefore
		case xq.InsertAfter:
			kind = xquf.PrimInsertAfter
		}
		if (kind == xquf.PrimInsertBefore || kind == xquf.PrimInsertAfter) && tgt.Parent == nil {
			return nil, xdm.NewError("XUDY0029", "insert before/after target has no parent")
		}
		if err := xquf.CheckKinds(kind, tgt, tgt.Parent, srcNodes); err != nil {
			return nil, err
		}
		ctx.pul.Add(xquf.Primitive{Kind: kind, Target: tgt, Source: srcNodes})
		return nil, nil
	case *xq.Delete:
		tgts, err := ctx.eval(n.Target)
		if err != nil {
			return nil, err
		}
		nodes, ok := xdm.NodesOf(tgts)
		if !ok {
			return nil, xdm.NewError("XUTY0007", "delete target is not a node sequence")
		}
		for _, t := range nodes {
			ctx.pul.Add(xquf.Primitive{Kind: xquf.PrimDelete, Target: t})
		}
		return nil, nil
	case *xq.Replace:
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		src, err := ctx.eval(n.Source)
		if err != nil {
			return nil, err
		}
		if n.ValueOf {
			ctx.pul.Add(xquf.Primitive{
				Kind:   xquf.PrimReplaceValue,
				Target: tgt,
				Value:  xdm.Atomize(src).StringJoin(" "),
			})
			return nil, nil
		}
		srcNodes := contentNodes(src)
		if tgt.Parent == nil {
			return nil, xdm.NewError("XUDY0029", "replace target has no parent")
		}
		if err := xquf.CheckKinds(xquf.PrimReplaceNode, tgt, tgt.Parent, srcNodes); err != nil {
			return nil, err
		}
		ctx.pul.Add(xquf.Primitive{Kind: xquf.PrimReplaceNode, Target: tgt, Source: srcNodes})
		return nil, nil
	case *xq.Rename:
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		nameSeq, err := ctx.eval(n.NewName)
		if err != nil {
			return nil, err
		}
		if len(nameSeq) != 1 {
			return nil, xdm.NewError("XPTY0004", "rename target name must be a single item")
		}
		ctx.pul.Add(xquf.Primitive{Kind: xquf.PrimRename, Target: tgt, Value: nameSeq[0].StringValue()})
		return nil, nil
	}
	return nil, xdm.Errorf("XPST0003", "unknown update expression %T", e)
}

func (ctx *dynCtx) evalSingleNode(e xq.Expr) (*xdm.Node, error) {
	v, err := ctx.eval(e)
	if err != nil {
		return nil, err
	}
	if len(v) != 1 {
		return nil, xdm.Errorf("XUTY0008", "update target must be exactly one node, got %d items", len(v))
	}
	n, ok := v[0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XUTY0008", "update target is not a node")
	}
	return n, nil
}

// contentNodes converts an insert/replace source sequence into copied
// content nodes (atomics become text nodes).
func contentNodes(v xdm.Sequence) []*xdm.Node {
	var out []*xdm.Node
	for _, it := range v {
		switch x := it.(type) {
		case *xdm.Node:
			if x.Kind == xdm.DocumentNode {
				for _, c := range x.Children() {
					out = append(out, c.Clone())
				}
				continue
			}
			out = append(out, x.Clone())
		default:
			out = append(out, xdm.NewText(it.StringValue()).Seal())
		}
	}
	return out
}
