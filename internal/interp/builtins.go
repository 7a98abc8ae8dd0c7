package interp

import (
	"math"
	"sort"
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// BuiltinFunc is a built-in function that reads nothing but its evaluated
// arguments and the document resolver, so either engine can apply it.
type BuiltinFunc func(docs DocResolver, args []xdm.Sequence) (xdm.Sequence, error)

// builtin is one entry of the function library both engines share.
type builtin struct {
	minArgs, maxArgs int
	eval             BuiltinFunc
	// ctxItem: called without arguments, eval is applied to the context
	// item (fn:string() is fn:string(.)).
	ctxItem bool
	// dyn replaces eval in the entries that read the interpreter's
	// dynamic context; needs names what they read.
	dyn   func(ctx *dynCtx, args []xdm.Sequence) (xdm.Sequence, error)
	needs string
}

func fn(minArgs, maxArgs int, eval BuiltinFunc) builtin {
	return builtin{minArgs: minArgs, maxArgs: maxArgs, eval: eval}
}

func ctxFn(eval BuiltinFunc) builtin {
	return builtin{maxArgs: 1, eval: eval, ctxItem: true}
}

func dynFn(args int, needs string, dyn func(*dynCtx, []xdm.Sequence) (xdm.Sequence, error)) builtin {
	return builtin{minArgs: args, maxArgs: args, dyn: dyn, needs: needs}
}

var builtins = map[string]builtin{
	"doc": fn(1, 1, bifDoc),
	"put": dynFn(2, "the pending update list", bifPut),

	"count":  fn(1, 1, bifCount),
	"empty":  fn(1, 1, bifEmpty),
	"exists": fn(1, 1, bifExists),

	"not":     fn(1, 1, bifNot),
	"boolean": fn(1, 1, bifBoolean),
	"true":    fn(0, 0, bifTrue),
	"false":   fn(0, 0, bifFalse),

	"string":           ctxFn(bifString),
	"data":             fn(1, 1, bifData),
	"number":           ctxFn(bifNumber),
	"concat":           fn(2, 64, bifConcat),
	"contains":         fn(2, 2, bifContains),
	"starts-with":      fn(2, 2, bifStartsWith),
	"ends-with":        fn(2, 2, bifEndsWith),
	"substring":        fn(2, 3, bifSubstring),
	"substring-before": fn(2, 2, bifSubstringBefore),
	"substring-after":  fn(2, 2, bifSubstringAfter),
	"string-length":    ctxFn(bifStringLength),
	"string-join":      fn(2, 2, bifStringJoin),
	"upper-case":       fn(1, 1, bifUpperCase),
	"lower-case":       fn(1, 1, bifLowerCase),
	"normalize-space":  ctxFn(bifNormalizeSpace),
	"translate":        fn(3, 3, bifTranslate),
	"tokenize":         fn(2, 2, bifTokenize),

	"sum":     fn(1, 2, bifSum),
	"avg":     fn(1, 1, bifAvg),
	"min":     fn(1, 1, bifMin),
	"max":     fn(1, 1, bifMax),
	"abs":     fn(1, 1, bifAbs),
	"floor":   fn(1, 1, bifFloor),
	"ceiling": fn(1, 1, bifCeiling),
	"round":   fn(1, 1, bifRound),

	"distinct-values": fn(1, 1, bifDistinctValues),
	"reverse":         fn(1, 1, bifReverse),
	"subsequence":     fn(2, 3, bifSubsequence),
	"insert-before":   fn(3, 3, bifInsertBefore),
	"remove":          fn(2, 2, bifRemove),
	"index-of":        fn(2, 2, bifIndexOf),

	"zero-or-one":  fn(1, 1, bifZeroOrOne),
	"one-or-more":  fn(1, 1, bifOneOrMore),
	"exactly-one":  fn(1, 1, bifExactlyOne),
	"deep-equal":   fn(2, 2, bifDeepEqual),
	"name":         ctxFn(bifName),
	"local-name":   ctxFn(bifLocalName),
	"node-name":    fn(1, 1, bifNodeName),
	"root":         ctxFn(bifRoot),
	"last":         dynFn(0, "the context size", bifLast),
	"position":     dynFn(0, "the context position", bifPosition),
	"error":        fn(0, 2, bifError),
	"trace":        fn(2, 2, bifTrace),
	"string-value": fn(1, 1, bifStringValue),

	// xrpc: helper functions from §5 "Advanced Pushdown"
	"xrpc:host": fn(1, 1, bifXrpcHost),
	"xrpc:path": fn(1, 1, bifXrpcPath),
}

// lookupBuiltin resolves a call by name and arity, the same way for both
// engines. Names may be written bare ("count") or with the fn: prefix;
// xs:TYPE(...) constructor functions cast; xrpc:host/xrpc:path are the
// §5 helper functions.
func lookupBuiltin(name string, arity int) (builtin, error) {
	if strings.HasPrefix(name, "xs:") && arity == 1 {
		return fn(1, 1, castTo(name)), nil
	}
	b, ok := builtins[strings.TrimPrefix(name, "fn:")]
	if !ok {
		return builtin{}, xdm.Errorf("XPST0017", "unknown function %s#%d", name, arity)
	}
	if b.minArgs > arity || arity > b.maxArgs {
		return builtin{}, xdm.Errorf("XPST0017", "wrong number of arguments for %s: %d", name, arity)
	}
	return b, nil
}

// Builtin returns the built-in function name#arity for an engine that
// keeps no dynamic context of its own (the loop-lifted one). f is nil
// for the applications only the interpreter can evaluate, and needs
// then names what they read: the focus (position, last, the zero-arity
// forms that default to the context item) or the pending update list
// (put). err is the XPST0017 the interpreter raises for the same call.
func Builtin(name string, arity int) (f BuiltinFunc, needs string, err error) {
	b, err := lookupBuiltin(name, arity)
	switch {
	case err != nil:
		return nil, "", err
	case b.dyn != nil:
		return nil, b.needs, nil
	case b.ctxItem && arity == 0:
		return nil, "the context item", nil
	}
	return b.eval, "", nil
}

// BuiltinNames lists the function library's names, sorted (the xs:
// constructors are a prefix rule, not entries).
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// evalBuiltin applies a built-in (or host extension) function to its
// evaluated arguments.
func (ctx *dynCtx) evalBuiltin(call *xq.FuncCall) (xdm.Sequence, error) {
	b, err := lookupBuiltin(call.Name, len(call.Args))
	var ext ExtFunc
	if err != nil {
		if ext = ctx.c.engine.ExtFuncs[call.Name]; ext == nil {
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
	case b.dyn != nil:
		return b.dyn(ctx, args)
	case b.ctxItem && len(args) == 0:
		if ctx.item == nil {
			return nil, xdm.NewError("XPDY0002", "context item is absent")
		}
		args = []xdm.Sequence{xdm.Singleton(ctx.item)}
	}
	return b.eval(ctx.docs, args)
}

// castTo is the xs:TYPE(...) constructor function: "cast as TYPE?".
func castTo(typ string) BuiltinFunc {
	return func(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
		return CastSingleton(args[0], typ, true)
	}
}

// CastSingleton is "cast as" for both engines, and castable is whether
// it succeeds: the atomized operand must be one item, or () when the
// target type is optional ("cast as T?"), which casts to ().
func CastSingleton(v xdm.Sequence, typ string, optional bool) (xdm.Sequence, error) {
	v = xdm.Atomize(v)
	if len(v) == 0 && optional {
		return nil, nil
	}
	if len(v) != 1 {
		return nil, xdm.Errorf("XPTY0004", "cast source is %d items, not one", len(v))
	}
	out, err := xdm.CastAtomic(v[0], typ)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(out), nil
}

// Unary is unary minus (neg) or plus for both engines: () stays (), an
// untyped operand is cast to xs:double, and any other non-numeric one
// raises XPTY0004. xs:decimal has no negative zero.
func Unary(neg bool, v xdm.Sequence) (xdm.Sequence, error) {
	v = xdm.Atomize(v)
	if len(v) == 0 {
		return nil, nil
	}
	if len(v) > 1 {
		return nil, xdm.NewError("XPTY0004", "unary operand is not a singleton")
	}
	x := v[0]
	if u, ok := x.(xdm.Untyped); ok {
		d, err := xdm.CastAtomic(u, "xs:double")
		if err != nil {
			return nil, err
		}
		x = d
	}
	if !xdm.IsNumeric(x) {
		return nil, xdm.Errorf("XPTY0004", "unary operand is %s, not numeric", x.TypeName())
	}
	if neg {
		switch n := x.(type) {
		case xdm.Integer:
			x = -n
		case xdm.Decimal:
			x = 0 - n
		case xdm.Double:
			x = -n
		}
	}
	return xdm.Singleton(x), nil
}

func bifDoc(docs DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, nil
	}
	uri := args[0].StringJoin("")
	if docs == nil {
		return nil, xdm.NewError("FODC0002", "no document resolver")
	}
	doc, err := docs.Doc(uri)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(doc), nil
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
	ctx.pul.Add(Primitive{Kind: PrimPut, PutURI: uri, Source: []*xdm.Node{n.Clone()}})
	return nil, nil
}

func bifCount(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Integer(len(args[0]))), nil
}

func bifEmpty(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(len(args[0]) == 0)), nil
}

func bifExists(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(len(args[0]) > 0)), nil
}

func bifNot(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	b, err := xdm.EffectiveBoolean(args[0])
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Boolean(!b)), nil
}

func bifBoolean(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	b, err := xdm.EffectiveBoolean(args[0])
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Boolean(b)), nil
}

func bifTrue(_ DocResolver, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(true)), nil
}

func bifFalse(_ DocResolver, _ []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(false)), nil
}

func bifString(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	v := args[0]
	if len(v) == 0 {
		return xdm.Singleton(xdm.String("")), nil
	}
	if len(v) > 1 {
		return nil, xdm.NewError("XPTY0004", "fn:string argument is not a singleton")
	}
	return xdm.Singleton(xdm.String(v[0].StringValue())), nil
}

func bifData(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Atomize(args[0]), nil
}

func bifNumber(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	v := xdm.Atomize(args[0])
	if len(v) != 1 {
		return xdm.Singleton(xdm.Double(math.NaN())), nil
	}
	f, ok := xdm.NumericValue(v[0])
	if !ok {
		cast, err := xdm.CastAtomic(v[0], "xs:double")
		if err != nil {
			return xdm.Singleton(xdm.Double(math.NaN())), nil
		}
		return xdm.Singleton(cast), nil
	}
	return xdm.Singleton(xdm.Double(f)), nil
}

func bifConcat(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	var sb strings.Builder
	for _, a := range args {
		if len(a) > 1 {
			return nil, xdm.NewError("XPTY0004", "fn:concat argument is not a singleton")
		}
		if len(a) == 1 {
			sb.WriteString(a[0].StringValue())
		}
	}
	return xdm.Singleton(xdm.String(sb.String())), nil
}

func strArg(a xdm.Sequence) string {
	if len(a) == 0 {
		return ""
	}
	return a[0].StringValue()
}

func bifContains(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(strings.Contains(strArg(args[0]), strArg(args[1])))), nil
}

func bifStartsWith(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(strings.HasPrefix(strArg(args[0]), strArg(args[1])))), nil
}

func bifEndsWith(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(strings.HasSuffix(strArg(args[0]), strArg(args[1])))), nil
}

func bifSubstring(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	s := []rune(strArg(args[0]))
	startF, ok := xdm.NumericValue(firstOrNaN(args[1]))
	if !ok {
		return nil, xdm.NewError("XPTY0004", "fn:substring start is not numeric")
	}
	start := int(math.Round(startF))
	length := len(s) - start + 1
	if len(args) == 3 {
		lenF, ok := xdm.NumericValue(firstOrNaN(args[2]))
		if !ok {
			return nil, xdm.NewError("XPTY0004", "fn:substring length is not numeric")
		}
		length = int(math.Round(lenF))
	}
	// spec: characters at positions p with p >= round(start) and
	// p < round(start) + round(length); clamping lo must not shrink hi
	lo := start - 1
	hi := lo + length
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if lo >= len(s) || hi <= lo {
		return xdm.Singleton(xdm.String("")), nil
	}
	return xdm.Singleton(xdm.String(string(s[lo:hi]))), nil
}

func firstOrNaN(s xdm.Sequence) xdm.Item {
	if len(s) == 0 {
		return xdm.Double(math.NaN())
	}
	return s[0]
}

func bifSubstringBefore(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	s, sub := strArg(args[0]), strArg(args[1])
	if i := strings.Index(s, sub); i >= 0 {
		return xdm.Singleton(xdm.String(s[:i])), nil
	}
	return xdm.Singleton(xdm.String("")), nil
}

func bifSubstringAfter(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	s, sub := strArg(args[0]), strArg(args[1])
	if i := strings.Index(s, sub); i >= 0 {
		return xdm.Singleton(xdm.String(s[i+len(sub):])), nil
	}
	return xdm.Singleton(xdm.String("")), nil
}

func bifStringLength(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Integer(len([]rune(strArg(args[0]))))), nil
}

func bifStringJoin(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.String(args[0].StringJoin(strArg(args[1])))), nil
}

func bifUpperCase(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.String(strings.ToUpper(strArg(args[0])))), nil
}

func bifLowerCase(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.String(strings.ToLower(strArg(args[0])))), nil
}

func bifNormalizeSpace(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.String(strings.Join(strings.Fields(strArg(args[0])), " "))), nil
}

func bifTranslate(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	s := []rune(strArg(args[0]))
	from := []rune(strArg(args[1]))
	to := []rune(strArg(args[2]))
	var sb strings.Builder
	for _, r := range s {
		replaced := false
		for i, f := range from {
			if r == f {
				if i < len(to) {
					sb.WriteRune(to[i])
				}
				replaced = true
				break
			}
		}
		if !replaced {
			sb.WriteRune(r)
		}
	}
	return xdm.Singleton(xdm.String(sb.String())), nil
}

func bifTokenize(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	s, sep := strArg(args[0]), strArg(args[1])
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, sep)
	out := make(xdm.Sequence, len(parts))
	for i, p := range parts {
		out[i] = xdm.String(p)
	}
	return out, nil
}

func numericFold(args xdm.Sequence, init float64, f func(acc, v float64) float64) (float64, bool, error) {
	acc := init
	any := false
	for _, it := range xdm.Atomize(args) {
		v, ok := xdm.NumericValue(it)
		if !ok {
			return 0, false, xdm.Errorf("FORG0006", "non-numeric item %q in aggregate", it.StringValue())
		}
		if !any {
			acc = v
			any = true
			continue
		}
		acc = f(acc, v)
	}
	return acc, any, nil
}

func bifSum(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	total := 0.0
	allInt := true
	for _, it := range xdm.Atomize(args[0]) {
		v, ok := xdm.NumericValue(it)
		if !ok {
			return nil, xdm.Errorf("FORG0006", "non-numeric item in fn:sum")
		}
		if _, isInt := it.(xdm.Integer); !isInt {
			allInt = false
		}
		total += v
	}
	if len(args[0]) == 0 {
		if len(args) == 2 {
			return args[1], nil
		}
		return xdm.Singleton(xdm.Integer(0)), nil
	}
	if allInt {
		return xdm.Singleton(xdm.Integer(int64(total))), nil
	}
	return xdm.Singleton(xdm.Double(total)), nil
}

func bifAvg(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, nil
	}
	total, _, err := numericFold(args[0], 0, func(a, v float64) float64 { return a + v })
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Double(total / float64(len(args[0])))), nil
}

func bifMin(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, nil
	}
	v, _, err := numericFold(args[0], math.Inf(1), math.Min)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Double(v)), nil
}

func bifMax(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, nil
	}
	v, _, err := numericFold(args[0], math.Inf(-1), math.Max)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Double(v)), nil
}

func numUnary(args []xdm.Sequence, f func(float64) float64) (xdm.Sequence, error) {
	a := xdm.Atomize(args[0])
	if len(a) == 0 {
		return nil, nil
	}
	v, ok := xdm.NumericValue(a[0])
	if !ok {
		return nil, xdm.NewError("XPTY0004", "non-numeric argument")
	}
	res := f(v)
	if n, isInt := a[0].(xdm.Integer); isInt {
		_ = n
		return xdm.Singleton(xdm.Integer(int64(res))), nil
	}
	return xdm.Singleton(xdm.Double(res)), nil
}

func bifAbs(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return numUnary(args, math.Abs)
}

func bifFloor(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return numUnary(args, math.Floor)
}

func bifCeiling(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return numUnary(args, math.Ceil)
}

func bifRound(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return numUnary(args, math.Round)
}

func bifDistinctValues(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	var out xdm.Sequence
	for _, it := range xdm.Atomize(args[0]) {
		dup := false
		for _, seen := range out {
			eq, err := xdm.CompareAtomic(it, seen, xdm.OpEq)
			if err == nil && eq {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, it)
		}
	}
	return out, nil
}

func bifReverse(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	in := args[0]
	out := make(xdm.Sequence, len(in))
	for i, it := range in {
		out[len(in)-1-i] = it
	}
	return out, nil
}

func bifSubsequence(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	in := args[0]
	startF, _ := xdm.NumericValue(firstOrNaN(args[1]))
	start := int(math.Round(startF))
	end := len(in) + 1
	if len(args) == 3 {
		lenF, _ := xdm.NumericValue(firstOrNaN(args[2]))
		end = start + int(math.Round(lenF))
	}
	var out xdm.Sequence
	for i := 1; i <= len(in); i++ {
		if i >= start && i < end {
			out = append(out, in[i-1])
		}
	}
	return out, nil
}

func bifInsertBefore(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	target, ins := args[0], args[2]
	posF, _ := xdm.NumericValue(firstOrNaN(args[1]))
	pos := int(posF)
	if pos < 1 {
		pos = 1
	}
	if pos > len(target)+1 {
		pos = len(target) + 1
	}
	out := make(xdm.Sequence, 0, len(target)+len(ins))
	out = append(out, target[:pos-1]...)
	out = append(out, ins...)
	out = append(out, target[pos-1:]...)
	return out, nil
}

func bifRemove(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	in := args[0]
	posF, _ := xdm.NumericValue(firstOrNaN(args[1]))
	pos := int(posF)
	if pos < 1 || pos > len(in) {
		return in, nil
	}
	out := make(xdm.Sequence, 0, len(in)-1)
	out = append(out, in[:pos-1]...)
	out = append(out, in[pos:]...)
	return out, nil
}

func bifIndexOf(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[1]) != 1 {
		return nil, xdm.NewError("XPTY0004", "fn:index-of search value must be a singleton")
	}
	var out xdm.Sequence
	for i, it := range xdm.Atomize(args[0]) {
		eq, err := xdm.CompareAtomic(it, xdm.Atomize(args[1])[0], xdm.OpEq)
		if err == nil && eq {
			out = append(out, xdm.Integer(i+1))
		}
	}
	return out, nil
}

func bifZeroOrOne(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) > 1 {
		return nil, xdm.NewError("FORG0003", "fn:zero-or-one called with more than one item")
	}
	return args[0], nil
}

func bifOneOrMore(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, xdm.NewError("FORG0004", "fn:one-or-more called with empty sequence")
	}
	return args[0], nil
}

func bifExactlyOne(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) != 1 {
		return nil, xdm.NewError("FORG0005", "fn:exactly-one called with a non-singleton")
	}
	return args[0], nil
}

func bifDeepEqual(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.Boolean(xdm.DeepEqual(args[0], args[1]))), nil
}

// nodeArg is the optional node argument of name, local-name and root.
func nodeArg(v xdm.Sequence) (*xdm.Node, error) {
	if len(v) == 0 {
		return nil, nil
	}
	n, ok := v[0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XPTY0004", "expected a node")
	}
	return n, nil
}

func bifName(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	n, err := nodeArg(args[0])
	if err != nil {
		return nil, err
	}
	if n == nil {
		return xdm.Singleton(xdm.String("")), nil
	}
	return xdm.Singleton(xdm.String(n.Name)), nil
}

func bifLocalName(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	n, err := nodeArg(args[0])
	if err != nil {
		return nil, err
	}
	if n == nil {
		return xdm.Singleton(xdm.String("")), nil
	}
	name := n.Name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[i+1:]
	}
	return xdm.Singleton(xdm.String(name)), nil
}

func bifNodeName(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args[0]) == 0 {
		return nil, nil
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XPTY0004", "fn:node-name requires a node")
	}
	if n.Name == "" {
		return nil, nil
	}
	return xdm.Singleton(xdm.String(n.Name)), nil
}

func bifRoot(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	n, err := nodeArg(args[0])
	if err != nil || n == nil {
		return nil, err
	}
	return xdm.Singleton(n.Root()), nil
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

func bifError(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	code := "FOER0000"
	msg := "error signalled by fn:error"
	if len(args) >= 1 && len(args[0]) > 0 {
		code = args[0].StringJoin("")
	}
	if len(args) >= 2 {
		msg = args[1].StringJoin("")
	}
	return nil, xdm.NewError(code, msg)
}

func bifTrace(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return args[0], nil
}

func bifStringValue(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Singleton(xdm.String(args[0].StringJoin(""))), nil
}

// bifXrpcHost implements xrpc:host (§5): for xrpc:// URLs it returns the
// xrpc://host[:port] prefix; otherwise "localhost".
func bifXrpcHost(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	host, _ := SplitXrpcURL(strArg(args[0]))
	return xdm.Singleton(xdm.String(host)), nil
}

// bifXrpcPath implements xrpc:path (§5): for xrpc:// URLs it returns the
// path suffix; otherwise the argument unchanged.
func bifXrpcPath(_ DocResolver, args []xdm.Sequence) (xdm.Sequence, error) {
	_, path := SplitXrpcURL(strArg(args[0]))
	return xdm.Singleton(xdm.String(path)), nil
}

// SplitXrpcURL splits "xrpc://host[:port]/path" into the peer URI
// ("xrpc://host[:port]") and the local document path. Non-xrpc URLs map
// to ("localhost", url), the defaults given in §5.
func SplitXrpcURL(url string) (host, path string) {
	const scheme = "xrpc://"
	if !strings.HasPrefix(url, scheme) {
		return "localhost", url
	}
	rest := url[len(scheme):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return scheme + rest[:i], rest[i+1:]
	}
	return url, ""
}
