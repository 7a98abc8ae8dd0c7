package interp

import (
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
)

// dynBuiltins implement the entries of the shared function library that
// read the interpreter's dynamic context: xqrt.Builtin names what each
// one needs and serves it to no other engine.
var dynBuiltins = map[string]func(ctx *dynCtx, args []xdm.Sequence) (xdm.Sequence, error){
	"put":      bifPut,
	"last":     bifLast,
	"position": bifPosition,
}

// evalBuiltin applies a built-in (or host extension) function to its
// evaluated arguments.
func (ctx *dynCtx) evalBuiltin(call *xq.FuncCall) (xdm.Sequence, error) {
	f, _, err := xqrt.Builtin(call.Name, len(call.Args))
	var ext ExtFunc
	if err != nil {
		if ext = ctx.eng.ExtFuncs[call.Name]; ext == nil {
			return nil, err
		}
	}
	args := make([]xdm.Sequence, len(call.Args))
	for i, a := range call.Args {
		v, err := ctx.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch {
	case ext != nil:
		return ext(args)
	case f != nil:
		return f(ctx.docs, args)
	}
	if dyn := dynBuiltins[strings.TrimPrefix(call.Name, "fn:")]; dyn != nil {
		return dyn(ctx, args)
	}
	// a zero-arity form applied to the context item (fn:string() is
	// fn:string(.))
	if ctx.item == nil {
		return nil, xdm.NewError("XPDY0002", "context item is absent")
	}
	f, _, _ = xqrt.Builtin(call.Name, 1)
	return f(ctx.docs, []xdm.Sequence{xdm.Singleton(ctx.item)})
}

// bifPut is XQUF fn:put: registers a "put document" update primitive.
func bifPut(ctx *dynCtx, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) != 1 {
		return nil, xdm.NewError("XPTY0004", "fn:put requires a single node")
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XPTY0004", "fn:put requires a node")
	}
	uri := args[1].StringJoin("")
	ctx.pul.Add(xquf.Primitive{Kind: xquf.PrimPut, PutURI: uri, Source: []*xdm.Node{n.Clone()}})
	return nil, nil
}

func bifLast(ctx *dynCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
	if ctx.size == 0 {
		return nil, xdm.NewError("XPDY0002", "fn:last outside a predicate")
	}
	return xdm.Singleton(xdm.Integer(ctx.size)), nil
}

func bifPosition(ctx *dynCtx, _ []xdm.Sequence) (xdm.Sequence, error) {
	if ctx.pos == 0 {
		return nil, xdm.NewError("XPDY0002", "fn:position outside a predicate")
	}
	return xdm.Singleton(xdm.Integer(ctx.pos)), nil
}
