package pathfinder

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
)

// libFn is one application of the shared function library: a name and
// an arity xqrt.Builtin serves to the loop-lifted engine.
type libFn struct {
	name  string
	arity int
}

// maxLibArity bounds the arities the tests enumerate (only concat takes
// more).
const maxLibArity = 3

// servedLib enumerates the library through the exported accessor.
func servedLib() []libFn {
	var out []libFn
	for _, name := range xqrt.BuiltinNames() {
		for arity := 0; arity <= maxLibArity; arity++ {
			if f, _, _ := xqrt.Builtin(name, arity); f != nil {
				out = append(out, libFn{name, arity})
			}
		}
	}
	return out
}

// libPool selects, by applying them, the library functions that turn
// every sample (passed in each argument position) into a singleton the
// caller wants — so qgen's function cases follow the table instead of a
// hand-kept list of names.
func libPool(samples []xdm.Sequence, want func(xdm.Item) bool) []libFn {
	var out []libFn
fns:
	for _, fn := range servedLib() {
		if fn.arity == 0 {
			continue
		}
		f, _, _ := xqrt.Builtin(fn.name, fn.arity)
		for _, sample := range samples {
			args := make([]xdm.Sequence, fn.arity)
			for i := range args {
				args[i] = sample
			}
			res, err := f(nil, args)
			if err != nil || len(res) != 1 || !want(res[0]) {
				continue fns
			}
		}
		out = append(out, fn)
	}
	return out
}

var (
	anyArgs = []xdm.Sequence{nil, {xdm.Integer(2)}, {xdm.String("s")}, {xdm.Double(3.5)}}
	numArgs = []xdm.Sequence{{xdm.Integer(0)}, {xdm.Integer(1), xdm.Integer(2)}, {xdm.Integer(3), xdm.Integer(4), xdm.Integer(5)}}
	strArgs = []xdm.Sequence{{xdm.String("")}, {xdm.String("xy z")}}

	isBool = func(it xdm.Item) bool { _, ok := it.(xdm.Boolean); return ok }
	isStr  = func(it xdm.Item) bool { _, ok := it.(xdm.String); return ok }

	numOfAny    = libPool(anyArgs, xdm.IsNumeric) // count, string-length, ...
	numOfNumseq = libPool(numArgs, xdm.IsNumeric) // count, sum, avg, ...
	strOfStr    = libPool(strArgs, isStr)         // concat, upper-case, ...
	boolOfAny   = libPool(anyArgs, isBool)        // exists, empty, not, ...
)

// qgen generates random queries from the subset both engines support.
// Generated queries avoid runtime errors by construction (no division,
// small integers, bound variables only, library functions drawn from
// the pool their argument generator fits).
type qgen struct {
	r     *rand.Rand
	vars  []string
	nvars int
	// focus is set while a step predicate is generated: num, str and
	// boolean then also draw the focus atoms — ".", position(), last(), the
	// zero-arity context-item forms — and the productions around them.
	focus bool
	// drawn counts, by production, the focus productions that came out
	// with position() or last() below them (nil: not counted).
	drawn map[string]int
}

// focusDrawn notes that production came out as s.
func (g *qgen) focusDrawn(production, s string) string {
	if g.drawn != nil && (strings.Contains(s, "position()") || strings.Contains(s, "last()")) {
		g.drawn[production]++
	}
	return s
}

func (g *qgen) oneOf(forms ...string) string { return forms[g.r.Intn(len(forms))] }

func (g *qgen) pick(weights ...int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := g.r.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return 0
}

// call applies a random function of the pool to arguments from arg.
func (g *qgen) call(pool []libFn, arg func() string) string {
	fn := pool[g.r.Intn(len(pool))]
	args := make([]string, fn.arity)
	for i := range args {
		args[i] = arg()
	}
	return fmt.Sprintf("%s(%s)", fn.name, strings.Join(args, ", "))
}

// expr produces an arbitrary expression (any sequence).
func (g *qgen) expr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.pick(3, 2, 2, 2, 2, 1, 1, 1, 2, 1) {
	case 0:
		return g.atom()
	case 1: // arithmetic
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.num(depth-1))
	case 2: // sequence
		return fmt.Sprintf("(%s, %s)", g.expr(depth-1), g.expr(depth-1))
	case 3: // range
		lo := g.r.Intn(4)
		return fmt.Sprintf("(%d to %d)", lo, lo+g.r.Intn(4))
	case 4: // FLWOR
		return g.flwor(depth - 1)
	case 5: // if
		return fmt.Sprintf("(if (%s) then %s else %s)", g.boolean(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 6: // aggregate
		return g.call(numOfNumseq, func() string { return g.numseq(depth - 1) })
	case 7: // path over the film db
		return g.path()
	case 8: // string function
		return g.call(strOfStr, func() string { return g.str(depth - 1) })
	default:
		return g.typed(depth - 1)
	}
}

// typed produces a cast, castable or instance of, now and then under a
// unary + or -, over an empty, a one-item or a two-item operand, and
// with or without the "?" of the target type.
func (g *qgen) typed(depth int) string {
	var operand string
	switch g.r.Intn(4) {
	case 0:
		operand = "()"
	case 1:
		operand = fmt.Sprintf("(%s, %s)", g.num(depth), g.num(depth))
	case 2:
		operand = g.str(depth)
	default:
		operand = g.num(depth)
	}
	sign := g.oneOf("", "", "-", "+")
	typ := g.oneOf("xs:integer", "xs:string", "xs:double", "xs:boolean")
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s%s cast as %s%s)", sign, operand, typ, g.oneOf("", "?"))
	case 1:
		return fmt.Sprintf("(%s%s castable as %s%s)", sign, operand, typ, g.oneOf("", "?"))
	default:
		return fmt.Sprintf("(%s%s instance of %s%s)", sign, operand, typ, g.oneOf("", "?", "*", "+"))
	}
}

// num produces a singleton numeric expression.
func (g *qgen) num(depth int) string {
	if g.focus && g.r.Intn(3) == 0 {
		return g.oneOf("position()", "last()", "fn:position()", "fn:last()", "string-length()", "fn:string-length()", "count(*)")
	}
	if depth <= 0 || g.r.Intn(3) == 0 {
		if len(g.vars) > 0 && g.r.Intn(3) == 0 {
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(7))
	}
	switch g.pick(3, 2, 1) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.num(depth-1))
	case 1:
		return g.call(numOfAny, func() string { return g.expr(depth - 1) })
	default:
		return g.call(numOfNumseq, func() string { return g.numseq(depth - 1) })
	}
}

// numseq produces a sequence of numbers.
func (g *qgen) numseq(depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("(%d, %d)", g.r.Intn(5), g.r.Intn(5))
	}
	switch g.pick(2, 2, 1) {
	case 0:
		lo := g.r.Intn(3)
		return fmt.Sprintf("(%d to %d)", lo, lo+g.r.Intn(4))
	case 1:
		return fmt.Sprintf("(%s, %s)", g.num(depth-1), g.numseq(depth-1))
	default:
		in := g.numseq(depth - 1)
		v := g.freshVar()
		inner := fmt.Sprintf("for $%s in %s return $%s * 2", v, in, v)
		g.dropVar()
		return "(" + inner + ")"
	}
}

// str produces a singleton string expression.
func (g *qgen) str(depth int) string {
	words := []string{`"a"`, `"bc"`, `"xy z"`, `""`}
	if g.focus && g.r.Intn(3) == 0 {
		return g.oneOf("string()", "fn:string()", "name()", "local-name()", "normalize-space()", "string(.)",
			"string(number())", "name(root()/*)")
	}
	if depth <= 0 || g.r.Intn(2) == 0 {
		return words[g.r.Intn(len(words))]
	}
	return g.call(strOfStr, func() string { return g.str(depth - 1) })
}

// boolean produces a boolean expression.
func (g *qgen) boolean(depth int) string {
	if g.focus && g.r.Intn(2) == 0 {
		return g.focusBoolean(depth)
	}
	if depth <= 0 {
		return []string{"true()", "false()", "1 < 2", "2 eq 3"}[g.r.Intn(4)]
	}
	switch g.pick(3, 2, 2, 1) {
	case 0:
		op := []string{"=", "<", "<=", ">", "!="}[g.r.Intn(5)]
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), op, g.num(depth-1))
	case 1:
		return fmt.Sprintf("(%s %s %s)", g.boolean(depth-1), []string{"and", "or"}[g.r.Intn(2)], g.boolean(depth-1))
	case 2:
		return g.call(boolOfAny, func() string { return g.expr(depth - 1) })
	default:
		in := g.numseq(depth - 1)
		v := g.freshVar()
		out := fmt.Sprintf("(some $%s in %s satisfies $%s > 1)", v, in, v)
		g.dropVar()
		return out
	}
}

// focusBoolean produces the predicate shapes that read the focus through
// something other than a call, a comparison, a logic or an arithmetic
// node: every one was once refused by the loop-lifted engine.
func (g *qgen) focusBoolean(depth int) string {
	if depth <= 0 {
		return g.oneOf(`position() = 1`, `position() < last()`, `. = "Sean Connery"`, `name() = "actor"`,
			`string() = .`, `not(position() = last())`)
	}
	depth--
	switch g.pick(2, 2, 2, 2, 2, 2) {
	case 0:
		return g.focusDrawn("if", fmt.Sprintf("(if (%s) then %s else %s)", g.boolean(depth), g.boolean(depth), g.boolean(depth)))
	case 1:
		return g.focusDrawn("unary minus", fmt.Sprintf("(-%s %s -%s)", g.num(depth), g.oneOf("=", "<", ">="), g.num(depth)))
	case 2:
		in := g.numseq(depth)
		v := g.freshVar()
		out := fmt.Sprintf("(%s $%s in %s satisfies $%s %s %s)", g.oneOf("some", "every"), v, in, v, g.oneOf("=", "<=", "!="), g.num(depth))
		g.dropVar()
		return g.focusDrawn("quantifier", out)
	case 3:
		return g.focusDrawn("sequence comparison", fmt.Sprintf("((%s, %s) %s %s)", g.num(depth), g.num(depth), g.oneOf("=", "<", "!="), g.num(depth)))
	case 4:
		return g.focusDrawn("filter expression", fmt.Sprintf("exists((%s)[. = %d])", g.num(depth), 1+g.r.Intn(3)))
	default:
		return fmt.Sprintf("(%s %s %s)", g.str(depth), g.oneOf("=", "!=", "<"), g.str(depth))
	}
}

// focusPath produces a path whose step predicate, or whose filter
// expression, is drawn from boolean's grammar with the focus on offer.
func (g *qgen) focusPath(depth int) string {
	outer := g.focus
	g.focus = true
	pred := g.boolean(depth)
	g.focus = outer
	shape := g.oneOf(`doc("filmDB.xml")//film/*[%s]`, `doc("filmDB.xml")//film[%s]/name`,
		`(doc("filmDB.xml")//film/*)[%s]`, `doc("filmDB.xml")/films/film[%s][1]/actor`)
	return fmt.Sprintf(shape, pred)
}

func (g *qgen) flwor(depth int) string {
	if g.r.Intn(3) == 0 {
		return g.joinFlwor(depth)
	}
	in := g.numseq(depth) // generate before binding: $v not in scope here
	v := g.freshVar()
	var sb strings.Builder
	fmt.Fprintf(&sb, "(for $%s in %s ", v, in)
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&sb, "where %s ", g.boolean(depth))
	}
	fmt.Fprintf(&sb, "return %s)", g.expr(depth))
	g.dropVar()
	return sb.String()
}

// joinFlwor produces two fors joined by a where equality — the shape the
// join rule looks for — over string, node or numeric keys, so the rule's
// hash path, its run-time fallback (numeric keys) and its refusals (an
// operand that reads both variables, a second for that reads the first)
// all meet the interpreter. Optional parts: at $i, an "and <boolean>"
// tail, and an enclosing for whose variable both keys read. Only numeric
// variables are offered to the other generators.
func (g *qgen) joinFlwor(depth int) string {
	side := func(numeric bool) string {
		switch {
		case numeric:
			return g.numseq(depth)
		case g.r.Intn(2) == 0:
			return g.path()
		default:
			return fmt.Sprintf("(%s, %s, %s)", g.str(depth), g.str(depth), g.str(depth))
		}
	}
	// both sides of one kind, so keys often match; now and then one of each
	numA := g.r.Intn(2) == 0
	numB := numA != (g.r.Intn(8) == 0)
	var sb strings.Builder
	sb.WriteString("(")
	scoped := 0 // variables pushed on g.vars
	outer := ""
	if g.r.Intn(3) == 0 {
		outer = g.freshVar()
		scoped++
		fmt.Fprintf(&sb, "for $%s in %s return ", outer, g.numseq(0))
	}
	inA := side(numA)
	a := g.freshVar()
	if scoped++; !numA {
		g.dropVar()
		scoped--
	}
	inB := side(numB) // may read a numeric $a: the rule must refuse
	b := g.freshVar()
	g.dropVar()
	at, ret := "", "$"+b
	if g.r.Intn(3) == 0 {
		at, ret = fmt.Sprintf(" at $%si", a), fmt.Sprintf("($%si, $%s)", a, b)
	}
	keyA, keyB := "$"+a, "$"+b
	switch {
	case outer != "":
		keyA, keyB = fmt.Sprintf("concat($%s, $%s)", a, outer), fmt.Sprintf("concat($%s, $%s)", b, outer)
	case g.r.Intn(6) == 0:
		keyA = fmt.Sprintf("($%s, $%s)", a, b) // reads both sides
	}
	if g.r.Intn(2) == 0 {
		keyA, keyB = keyB, keyA
	}
	fmt.Fprintf(&sb, "for $%s%s in %s, $%s in %s where %s = %s", a, at, inA, b, inB, keyA, keyB)
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&sb, " and %s", g.boolean(depth))
	}
	fmt.Fprintf(&sb, " return %s)", ret)
	for ; scoped > 0; scoped-- {
		g.dropVar()
	}
	return sb.String()
}

func (g *qgen) atom() string {
	switch g.pick(3, 2, 1, 1) {
	case 0:
		if len(g.vars) > 0 && g.r.Intn(2) == 0 {
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(9))
	case 1:
		return []string{`"s"`, `"t u"`, "3.5", "()"}[g.r.Intn(4)]
	case 2:
		return "true()"
	default:
		return g.path()
	}
}

func (g *qgen) path() string {
	if g.r.Intn(3) == 0 {
		return g.focusPath(2)
	}
	paths := []string{
		`doc("filmDB.xml")//film/name`,
		`doc("filmDB.xml")//actor`,
		`count(doc("filmDB.xml")//film)`,
		`doc("filmDB.xml")/films/film[1]/name`,
		`doc("filmDB.xml")//name[../actor="Sean Connery"]`,
		`string((doc("filmDB.xml")//actor)[1])`,
	}
	return paths[g.r.Intn(len(paths))]
}

func (g *qgen) freshVar() string {
	g.nvars++
	v := fmt.Sprintf("v%d", g.nvars)
	g.vars = append(g.vars, v)
	return v
}

func (g *qgen) dropVar() {
	g.vars = g.vars[:len(g.vars)-1]
}

// TestDifferentialEngines generates hundreds of random queries and
// requires the loop-lifting engine and the interpreter to agree on every
// one of them (same result or both erroring).
func TestDifferentialEngines(t *testing.T) {
	f := newFixture(t)
	refEngine := interp.New(f.reg)
	const n = 400
	skipped, bothErr := 0, 0
	var joins JoinStats
	for seed := 0; seed < n; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed)))}
		query := g.expr(4)

		pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, refEngine, query, &ExecCtx{Docs: f.docs, Joins: &joins}, nil)
		if pfErr != nil && strings.Contains(pfErr.Error(), "not supported") {
			skipped++
			continue
		}
		switch {
		case pfErr == nil && iErr == nil:
			got, want := xdm.SerializeSequence(pfSeq), xdm.SerializeSequence(iSeq)
			if got != want {
				t.Fatalf("seed %d: engines disagree\nquery: %s\npathfinder: %s\ninterp:     %s",
					seed, query, got, want)
			}
		case pfErr != nil && iErr != nil:
			bothErr++ // both reject: fine
		default:
			t.Fatalf("seed %d: one engine errored\nquery: %s\npathfinder err: %v\ninterp err:     %v",
				seed, query, pfErr, iErr)
		}
	}
	if skipped > 0 {
		t.Errorf("%d/%d generated queries unsupported by pathfinder", skipped, n)
	}
	t.Logf("%d/%d queries rejected by both engines; join rule: %+v", bothErr, n, joins)
	if joins.Hashed == 0 || joins.Fallback == 0 || joins.Pairs == 0 {
		t.Errorf("the generated queries no longer reach the join rule's hash path and its fallback: %+v", joins)
	}
}

// TestDifferentialPredicates draws step predicates and filter
// expressions from qgen's grammar: inside a predicate the loop-lifted
// engine refuses nothing — position(), last(), "." and the zero-arity
// context-item forms are served under any node — and agrees with the
// interpreter on the result or the error code. The shapes it once
// refused must be among the predicates drawn.
func TestDifferentialPredicates(t *testing.T) {
	f := newFixture(t)
	refEngine := interp.New(f.reg)
	drawn := map[string]int{}
	bothErr := 0
	for seed := 0; seed < 300; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed))), drawn: drawn}
		query := g.focusPath(3)
		pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, refEngine, query, &ExecCtx{Docs: f.docs}, nil)
		if got, want := outcome(pfSeq, pfErr), outcome(iSeq, iErr); got != want {
			t.Fatalf("seed %d: engines disagree\nquery: %s\npathfinder: %s\ninterp:     %s", seed, query, got, want)
		}
		if iErr != nil {
			bothErr++
		}
	}
	for _, production := range []string{"if", "unary minus", "quantifier", "sequence comparison", "filter expression"} {
		if drawn[production] == 0 {
			t.Errorf("no generated predicate reads position() or last() under: %s", production)
		}
	}
	t.Logf("%d/300 predicates raise the same error on both engines; focus productions drawn: %v", bothErr, drawn)
}

// errCode is the XQuery error code of err ("" for none), or its text
// when it is not an XQuery error.
func errCode(err error) string {
	var xe *xdm.Error
	switch {
	case err == nil:
		return ""
	case errors.As(err, &xe):
		return xe.Code
	}
	return err.Error()
}

// outcome is what a run produced: the serialized result, or errCode.
func outcome(seq xdm.Sequence, err error) string {
	if err != nil {
		return errCode(err)
	}
	return xdm.SerializeSequence(seq)
}

// bothEngines runs a query on the loop-lifted engine, under ec, and on
// the reference interpreter over ec's documents. Each engine sends its
// execute-at calls to a callRecorder of its own, answering each call
// with what reply returns (7 when reply is nil), and when both engines
// answer, they must have made the same calls at every destination.
//
// The two engines agree on a result or on an error, with one allowed
// difference: some and every compile to exists(for … where P) on the
// loop-lifted engine, which evaluates P in every iteration, while the
// interpreter stops at the first iteration that decides. So where only
// the loop-lifted engine raised, and the interpreter raises the same
// error once each quantifier evaluates P in every iteration too, the
// error is one P raised in an iteration the interpreter
// never reached (raisedByP): the differential accepts the interpreter's
// value, and returns it for both. Any other error the loop-lifted engine
// raises alone stays a disagreement.
func bothEngines(t testing.TB, f *fixture, ref *interp.Engine, query string, ec *ExecCtx, reply func() xdm.Sequence) (pfSeq xdm.Sequence, pfErr error, iSeq xdm.Sequence, iErr error) {
	t.Helper()
	pfRec, iRec := &callRecorder{}, &callRecorder{}
	if reply != nil {
		pfRec.reply, iRec.reply = reply(), reply()
	}
	ec.Bulk = pfRec
	pfc, pfErr := Compile(query, f.reg)
	if pfErr == nil {
		pfSeq, pfErr = pfc.Eval(ec, nil)
	}
	ic, iErr := ref.Compile(query)
	if iErr == nil {
		iSeq, _, iErr = ref.Eval(ic, &interp.EvalOptions{Docs: ec.Docs, RPC: iRec})
	}
	if pfErr != nil && iErr == nil && raisedByP(ref, query, ec.Docs, iRec.reply, pfErr) {
		return iSeq, nil, iSeq, nil
	}
	if pfErr == nil && iErr == nil {
		if got, want := pfRec.distinct(), iRec.distinct(); got != want {
			t.Errorf("%s\nthe engines made different calls\npathfinder:\n%s\ninterp:\n%s", query, got, want)
		}
	}
	return pfSeq, pfErr, iSeq, iErr
}

// raisedByP reports whether err is the error the interpreter raises on
// query once every some and every in its body evaluates P in each
// iteration, as the loop-lifted engine does: "some $v in E satisfies P"
// is evaluated as "some $v in (for $v in E where P return 1) satisfies
// true()", and "every $v in E satisfies P" as "every $v in (for $v in E
// where not(P) return 1) satisfies false()". A query that does not
// quantify is evaluated as it is, and raises no error where the
// interpreter answered.
func raisedByP(ref *interp.Engine, query string, docs docres.DocResolver, reply xdm.Sequence, err error) bool {
	c, cErr := ref.Compile(query)
	if cErr != nil {
		return false
	}
	xq.Walk(c.Module().Body, nil, func(x xq.Expr, _ map[string]bool) {
		q, ok := x.(*xq.Quantified)
		if !ok {
			return
		}
		where, holds := q.Satisfies, "true"
		if q.Every {
			where, holds = &xq.FuncCall{Name: "not", Args: []xq.Expr{q.Satisfies}}, "false"
		}
		q.In = &xq.FLWOR{
			Clauses: []xq.FLWORClause{&xq.ForClause{Var: q.Var, In: q.In}},
			Where:   where,
			Return:  &xq.IntLit{Val: 1},
		}
		q.Satisfies = &xq.FuncCall{Name: holds}
	})
	_, _, pErr := ref.Eval(c, &interp.EvalOptions{Docs: docs, RPC: &callRecorder{reply: reply}})
	return pErr != nil && errCode(pErr) == errCode(err)
}

// callRecorder stands in for the XRPC client of either engine and notes
// how each execute at was addressed, how many calls each request
// carried, and each distinct call by destination; every call is
// answered with reply (7 when nil).
type callRecorder struct {
	sent  []string
	calls []int
	made  map[string]bool
	reply xdm.Sequence
}

func (r *callRecorder) answer() xdm.Sequence {
	if r.reply == nil {
		return xdm.Sequence{xdm.Integer(7)}
	}
	return r.reply
}

func (r *callRecorder) note(dest, module, hint, fn string) {
	r.sent = append(r.sent, fmt.Sprintf("%s %s@%s %s", dest, module, hint, fn))
}

func (r *callRecorder) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	r.note(dest, br.ModuleURI, br.AtHint, br.Func)
	r.calls = append(r.calls, len(br.Calls))
	if r.made == nil {
		r.made = map[string]bool{}
	}
	out := make([]xdm.Sequence, len(br.Calls))
	for i, args := range br.Calls {
		call := fmt.Sprintf("%s %s:%s", dest, br.ModuleURI, br.Func)
		for _, a := range args {
			call += " (" + xdm.SerializeSequence(a) + ")"
		}
		r.made[call] = true
		out[i] = r.answer()
	}
	return out, nil
}

// distinct lists the distinct calls made, sorted: by destination, then
// function and arguments. The loop-lifted engine folds identical
// read-only calls of one request into one (δ), so how often a call was
// made is not compared, only which calls were.
func (r *callRecorder) distinct() string {
	calls := make([]string, 0, len(r.made))
	for c := range r.made {
		calls = append(calls, c)
	}
	slices.Sort(calls)
	return strings.Join(calls, "\n")
}

// TestLogicShortCircuits: "and" evaluates its right operand only in the
// iterations where the left one is true, and "or" only where it is
// false, on both engines — so the guard idioms hold, and an execute at
// under a false guard sends no call.
func TestLogicShortCircuits(t *testing.T) {
	f := newFixture(t)
	if err := f.reg.Register(`module namespace a="A"; declare function a:g($i as xs:integer) { $i };`, "http://h/a.xq"); err != nil {
		t.Fatal(err)
	}
	ref := interp.New(f.reg)
	for _, tc := range []struct{ query, want string }{
		{`false() and error()`, `false`},
		{`true() or error()`, `true`},
		{`for $x in ("a", "1") return $x castable as xs:integer and xs:integer($x) > 0`, `false true`},
		{`for $x in (0, 1) return $x ne 0 and 1 idiv $x = 1`, `false true`},
		{`for $x in (0, 1) return $x eq 0 or 1 idiv $x = 1`, `true true`},
		{`import module namespace a="A" at "http://h/a.xq";
for $i in 1 to 10 return $i = 3 and (execute at {"xrpc://p"} {a:g($i)}) = 7`,
			`false false true false false false false false false false`},
	} {
		pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, ref, tc.query, &ExecCtx{Docs: f.docs}, nil)
		if got, want := outcome(pfSeq, pfErr), outcome(iSeq, iErr); got != tc.want || want != tc.want {
			t.Errorf("%s\n  pathfinder: %s\n  interp:     %s\n  want:       %s", tc.query, got, want, tc.want)
		}
	}
	// the guarded execute at is one call in one request, not ten
	rec := &callRecorder{}
	pfc, err := Compile(`import module namespace a="A" at "http://h/a.xq";
for $i in 1 to 10 return $i = 3 and (execute at {"xrpc://p"} {a:g($i)}) = 7`, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pfc.Eval(&ExecCtx{Bulk: rec}, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rec.calls), "[1]"; got != want {
		t.Errorf("calls per request %s, want %s", got, want)
	}
}

// TestQuantifierErrorRule: bothEngines lets the loop-lifted engine's
// error stand for the interpreter's value only when P raised it, in an
// iteration the interpreter never reached; an error raised outside P, in
// a query that also quantifies, is still a disagreement.
func TestQuantifierErrorRule(t *testing.T) {
	f := newFixture(t)
	ref := interp.New(f.reg)
	// P raises FOAR0001 in an iteration after the one that decides
	some := `some $x in (1, 0) satisfies 1 idiv $x = 1`
	every := `every $x in (1, 2, 0) satisfies 1 idiv $x = 1`
	for query, want := range map[string]string{some: "true", every: "false"} {
		pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, ref, query, &ExecCtx{Docs: f.docs}, nil)
		if got, iGot := outcome(pfSeq, pfErr), outcome(iSeq, iErr); got != want || iGot != want {
			t.Errorf("%s\n  pathfinder: %s\n  interp:     %s\n  want:       %s", query, got, iGot, want)
		}
	}
	for _, tc := range []struct {
		query, code string
		byP         bool
	}{
		{some, "FOAR0001", true},
		{every, "FOAR0001", true},
		{some, "XPTY0004", false},
		{`(some $x in (1, 2) satisfies $x = 1), 1 idiv 1`, "FOAR0001", false},
		{`1 idiv 1`, "FOAR0001", false},
	} {
		if got := raisedByP(ref, tc.query, f.docs, nil, xdm.NewError(tc.code, "raised by the loop-lifted engine")); got != tc.byP {
			t.Errorf("%s raising %s: raised by P = %v, want %v", tc.query, tc.code, got, tc.byP)
		}
	}
}

// TestStaticContextAgreement: a loop-lifted plan is lifted from the
// interpreter's static context, so on everything a prolog can say — which
// module an import resolves to, which declaration a name means, how an
// execute at is addressed — the two engines give the same answer or raise
// the same static error.
func TestStaticContextAgreement(t *testing.T) {
	reg := modules.NewRegistry()
	for _, m := range []struct{ src, hint string }{
		{`module namespace a="A"; declare function a:f() { 1 };`, "http://h/a.xq"},
		{`module namespace t="T"; import module namespace a="A"; declare function t:g() { a:f() + 1 };`, "http://h/t.xq"},
	} {
		if err := reg.Register(m.src, m.hint); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, query string
		noRegistry  bool
		want        string // serialized result, or the error code
		wantSent    string
	}{
		{name: "hint resolves to a module of another namespace",
			query: `import module namespace b="B" at "http://h/a.xq"; b:f()`, want: "XQST0059"},
		{name: "duplicate function declaration",
			query: `declare function local:f() { 1 }; declare function local:f() { 2 }; local:f()`, want: "XQST0034"},
		{name: "import of an unregistered module",
			query: `import module namespace z="Z"; z:f()`, want: "XQST0059"},
		{name: "import with no registry", noRegistry: true,
			query: `import module namespace a="A" at "http://h/a.xq"; a:f()`, want: "XQST0059"},
		{name: "library module passed as a query",
			query: `module namespace a="A"; declare function a:f() { 1 };`, want: xqrt.ErrLibraryModule.Error()},
		{name: "unprefixed main-module function",
			query: `declare function inc($x as xs:integer) as xs:integer { $x + 1 }; for $i in (1, 2) return inc($i)`, want: "2 3"},
		{name: "function reached through a transitive import",
			query: `import module namespace t="T" at "http://h/t.xq"; t:g()`, want: "2"},
		{name: "at-hint carried to execute at",
			query: `import module namespace a="A" at "http://h/a.xq"; execute at {"xrpc://p"} {a:f()}`,
			want:  "7", wantSent: "xrpc://p A@http://h/a.xq f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resolver xqrt.ModuleResolver = reg
			pfReg := reg
			if tc.noRegistry {
				resolver, pfReg = nil, nil
			}
			var iRec, pfRec callRecorder
			var iSeq, pfSeq xdm.Sequence
			ie := interp.New(resolver)
			ic, iErr := ie.Compile(tc.query)
			if iErr == nil {
				iSeq, _, iErr = ie.Eval(ic, &interp.EvalOptions{RPC: &iRec})
			}
			pfc, pfErr := Compile(tc.query, pfReg)
			if pfErr == nil {
				pfSeq, pfErr = pfc.Eval(&ExecCtx{Bulk: &pfRec}, nil)
			}
			if got := outcome(iSeq, iErr); got != tc.want {
				t.Errorf("interp: %s (err %v), want %s", got, iErr, tc.want)
			}
			if got := outcome(pfSeq, pfErr); got != tc.want {
				t.Errorf("pathfinder: %s (err %v), want %s", got, pfErr, tc.want)
			}
			if got := strings.Join(iRec.sent, "; "); got != tc.wantSent {
				t.Errorf("interp sent %q, want %q", got, tc.wantSent)
			}
			if got := strings.Join(pfRec.sent, "; "); got != tc.wantSent {
				t.Errorf("pathfinder sent %q, want %q", got, tc.wantSent)
			}
		})
	}
}

// TestJoinShapes runs the shapes the join rule accepts, the key columns
// that send it down the nested plan at run time, and the shapes it must
// refuse through both engines — equal serialization or equal error code —
// and checks on JoinStats which way the loop-lifted engine went.
func TestJoinShapes(t *testing.T) {
	f := newFixture(t)
	refEngine := interp.New(f.reg)
	const (
		hash     = "hash"
		fallback = "fallback"
		refused  = "refused"
	)
	films := `doc("filmDB.xml")//film`
	cases := []struct {
		name, query string
		path        string
		want        string // serialization or error code; "" = whatever the interpreter says
		pairs       int    // hash rows: pairs handed on
	}{
		{name: "string keys", path: hash, pairs: 2, want: "y-y z-z",
			query: `for $a in ("x","y","z"), $b in ("y","z","w") where $a = $b return concat($a,"-",$b)`},
		{name: "string keys, $b's operand first", path: hash, pairs: 2, want: "y-y z-z",
			query: `for $a in ("x","y","z"), $b in ("y","z","w") where $b = $a return concat($a,"-",$b)`},
		{name: "duplicate keys on both sides, at $i/$j returned", path: hash, pairs: 5, want: "1:2 2:1 2:3 3:1 3:3",
			query: `for $a at $i in ("1","2","2"), $b at $j in ("2","1","2") where $a = $b return concat($i,":",$j)`},
		{name: "empty E1", path: hash, want: "",
			query: `for $a in (), $b in ("x") where $a = $b return 1`},
		{name: "empty E2", path: hash, want: "",
			query: `for $a in ("x"), $b in () where $a = $b return 1`},
		{name: "empty key on every row", path: hash, want: "",
			query: `for $a in ` + films + `, $b in ("Sean Connery") where $a/missing = $b return $a/name`},
		{name: "multi-item key matches once", path: hash, pairs: 2, want: "xx yx",
			query: `for $a in ("x","y"), $b in ("x","q") where ($a,"x") = $b return concat($a,$b)`},
		{name: "node keys", path: hash, pairs: 5,
			query: `for $a in ` + films + `, $b in ` + films + ` where $a/actor = $b/actor return concat($a/name,"/",$b/name)`},
		{name: "node key against strings", path: hash, pairs: 2,
			query: `for $a in ` + films + `, $b in ("Sean Connery","x") where $b = $a/actor return $a/name`},
		{name: "residual conjuncts", path: hash, pairs: 2, want: "x",
			query: `for $a in ("x","y"), $b in ("x","y") where $a = $b and $a = "x" and true() return $b`},
		{name: "residual as written on the right", path: hash, pairs: 2, want: "x",
			query: `for $a in ("x","y"), $b in ("x","y") where $a = $b and ($a = "x" and true()) return $b`},
		{name: "enclosing for read by both keys", path: hash, pairs: 4, want: "1aa 1bb 2aa 2bb",
			query: `for $o in ("1","2") return for $a in ("a","b"), $b in ("b","a") where concat($a,$o) = concat($b,$o) return concat($o,$a,$b)`},
		{name: "enclosing for with an empty side in one iteration", path: hash, pairs: 1, want: "2a",
			query: `for $o in (1,2) return for $a in ("a","b"), $b in (if ($o = 1) then () else "a") where $a = $b return concat($o,$a)`},
		{name: "let before the fors", path: hash, pairs: 1, want: "y",
			query: `let $k := "y" for $a in ("x","y"), $b in ($k,"z") where $a = $b return $b`},
		{name: "third for before the pair", path: hash, pairs: 2, want: "1x 2x",
			query: `for $o in (1,2), $a in ("x","y"), $b in ("x","z") where $a = $b return concat($o,$b)`},
		{name: "prefixed variable names", path: hash, pairs: 2, want: "1 y 2 y 2 x 1 x",
			query: `for $local:a at $local:i in ("y","x"), $local:b at $local:j in ("x","y") where $local:a = $local:b return ($local:i, $local:a, $local:j, $local:b)`},

		{name: "integer keys", path: fallback, want: "2 3",
			query: `for $a in (1,2,3), $b in (2,3,4) where $a = $b return $a`},
		{name: "position keys", path: fallback, want: "a b",
			query: `for $a at $i in ("a","b"), $b at $j in ("c","d") where $i = $j return $a`},
		{name: "mixed numeric and string keys", path: fallback, want: "XPTY0004",
			query: `for $a in (1.0, 2e0, "2"), $b in (2, 3) where $a = $b return $a`},
		{name: "untyped node against numbers", path: fallback, want: "FORG0001",
			query: `for $a in <x>a</x>, $b in (1, 2) where $a = $b return 1`},
		{name: "boolean keys", path: fallback, want: "true",
			query: `for $a in (true(), false()), $b in (true()) where $a = $b return $a`},

		{name: "$b in ($a, 3)", path: refused, want: "x y",
			query: `for $a in ("x","y"), $b in ($a, "3") where $a = $b return $b`},
		{name: "$b in (1 to $a)", path: refused, want: "1 2",
			query: `for $a in (1, 2), $b in (1 to $a) where $a = $b return $b`},
		{name: "shadowed $a", path: refused, want: "x z x z",
			query: `for $a in ("x","y"), $a in ("x","z") where $a = ("x","z") return $a`},
		{name: "shadowing position variable", path: refused, want: "1 1",
			query: `for $a in ("x","y"), $b at $a in (1, 5) where $a = $b return $b`},
		{name: "position variable named as its for variable", path: refused, want: "2",
			query: `for $a at $a in ("1","2"), $b in (2, 3) where $a = $b return $b`},
		{name: "($a = $b) = true()", path: refused, want: "x",
			query: `for $a in ("x","y"), $b in ("x","z") where ($a = $b) = true() return $b`},
		{name: "$a eq $b", path: refused, want: "x",
			query: `for $a in ("x","y"), $b in ("x","z") where $a eq $b return $b`},
		{name: "$a = $b or …", path: refused, want: "x x z",
			query: `for $a in ("x","y"), $b in ("x","z") where $a = $b or $a = "y" return $b`},
		{name: "not($a = $b)", path: refused, want: "z x z",
			query: `for $a in ("x","y"), $b in ("x","z") where not($a = $b) return $b`},
		{name: "K is not the leftmost conjunct", path: refused, want: "x",
			query: `for $a in ("x","y"), $b in ("x","z") where true() and $a = $b return $b`},
		{name: "an operand reads both variables", path: refused, want: "x z x z",
			query: `for $a in ("x","y"), $b in ("x","z") where ($a, $b) = $b return $b`},
		{name: "an operand reads neither variable", path: refused, want: "",
			query: `for $a in ("x","y"), $b in ("x","z") where "q" = $b return $b`},
		{name: "inner for nested in return", path: refused, want: "x",
			query: `for $a in ("x","y") return for $b in ("x","z") where $a = $b return $b`},
		{name: "let after the fors", path: refused, want: "xc",
			query: `for $a in ("x","y"), $b in ("x","z") let $c := "c" where $a = $b return concat($b,$c)`},
		{name: "E2 constructs nodes", path: refused,
			query: `(for $a in ("x","x"), $b in <k>x</k> where $a = $b return $b)/text()`},
		{name: "E2 constructs nodes in a function", path: refused,
			query: `declare function local:k() { <k>x</k> }; (for $a in ("x","x"), $b in local:k() where $a = $b return $b)/text()`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var js JoinStats
			pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, refEngine, tc.query, &ExecCtx{Docs: f.docs, Joins: &js}, nil)
			ref, got := outcome(iSeq, iErr), outcome(pfSeq, pfErr)
			if got != ref {
				t.Errorf("engines disagree\n  pathfinder: %s\n  interp:     %s", got, ref)
			}
			if tc.want != "" && ref != tc.want || tc.want == "" && iErr != nil {
				t.Errorf("interp: %s (err %v), want %q", ref, iErr, tc.want)
			}
			want := map[string]JoinStats{
				hash:     {Hashed: 1, Pairs: tc.pairs},
				fallback: {Fallback: 1},
				refused:  {},
			}[tc.path]
			js.BuildRows, js.ProbeRows = 0, 0
			if js != want {
				t.Errorf("join rule went %+v, want %s: %+v", js, tc.path, want)
			}
		})
	}
}

// TestJoinSendsOneRequest: with E2 an execute at, the join evaluates it
// once under the enclosing loop — one request carrying one call, where the
// nested plan relies on δ to fold one call per $a into it — whether the
// keys can be hashed or not, and not at all when E1 is empty.
func TestJoinSendsOneRequest(t *testing.T) {
	reg := modules.NewRegistry()
	if err := reg.Register(`module namespace a="A"; declare function a:f() { 1 };`, "http://h/a.xq"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, e1 string
		reply    xdm.Sequence
		want     JoinStats
		calls    []int
		result   string
	}{
		{name: "Q7_1's shape", e1: `("p", "q", "r")`, reply: xdm.Sequence{xdm.String("q"), xdm.String("s")}, calls: []int{1},
			want: JoinStats{Hashed: 1, BuildRows: 2, ProbeRows: 3, Pairs: 1}, result: "q"},
		{name: "numeric keys", e1: `(1, 2, 3)`, reply: xdm.Sequence{xdm.Integer(2), xdm.Integer(4)}, calls: []int{1},
			want: JoinStats{Fallback: 1}, result: "2"},
		{name: "empty E1", e1: `()`, reply: xdm.Sequence{xdm.String("q")}, want: JoinStats{Hashed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &callRecorder{reply: tc.reply}
			pfc, err := Compile(`import module namespace a="A" at "http://h/a.xq";
for $p in `+tc.e1+`, $ca in execute at {"xrpc://p"} {a:f()} where $p = $ca return $ca`, reg)
			if err != nil {
				t.Fatal(err)
			}
			var js JoinStats
			seq, err := pfc.Eval(&ExecCtx{Bulk: rec, Joins: &js}, nil)
			if got := outcome(seq, err); got != tc.result {
				t.Errorf("result %q, want %q", got, tc.result)
			}
			if js != tc.want {
				t.Errorf("join stats %+v, want %+v", js, tc.want)
			}
			if fmt.Sprint(rec.calls) != fmt.Sprint(tc.calls) {
				t.Errorf("calls per request %v, want %v", rec.calls, tc.calls)
			}
		})
	}
}

// TestSharedLibraryPerIteration applies every function the library
// serves, inside a loop, to every combination of sample arguments — (),
// a multi-item sequence, a node, a non-integer numeric, a string, the
// loop variable — and requires both engines to give the same
// serialization or the same error code.
func TestSharedLibraryPerIteration(t *testing.T) {
	f := newFixture(t)
	refEngine := interp.New(f.reg)
	samples := []string{`()`, `(1, 2, 3, 4)`, `(doc("filmDB.xml")//name)[1]`, `1.5`, `"hello"`, `$i`}
	lib := servedLib()
	for _, typ := range []string{"xs:integer", "xs:double", "xs:string", "xs:boolean"} {
		lib = append(lib, libFn{typ, 1})
	}
	for _, fn := range lib {
		args := make([]string, fn.arity)
		var walk func(i int)
		walk = func(i int) {
			if i < fn.arity {
				for _, s := range samples {
					args[i] = s
					walk(i + 1)
				}
				return
			}
			query := fmt.Sprintf("for $i in (1, 2, 3) return %s(%s)", fn.name, strings.Join(args, ", "))
			pfSeq, pfErr, iSeq, iErr := bothEngines(t, f, refEngine, query, &ExecCtx{Docs: f.docs}, nil)
			if errCode(pfErr) != errCode(iErr) {
				t.Errorf("%s\npathfinder err: %v\ninterp err:     %v", query, pfErr, iErr)
			} else if got, want := xdm.SerializeSequence(pfSeq), xdm.SerializeSequence(iSeq); got != want {
				t.Errorf("%s\npathfinder: %s\ninterp:     %s", query, got, want)
			}
		}
		walk(0)
	}
}

// TestLibraryClassification: every name in the interpreter's table is
// served to the loop-lifted engine at some arity, except the short list
// that reads the interpreter's dynamic context — so a future built-in
// cannot silently become interpreter-only. The lists are README's
// ("Both engines share one built-in function library").
func TestLibraryClassification(t *testing.T) {
	interpOnly := map[string]string{
		"position": "the context position",
		"last":     "the context size",
		"put":      "the pending update list",
	}
	// the zero-arity forms that default to the context item: served in a
	// path predicate, where "." is bound, and refused anywhere else
	contextItemForms := []string{"string", "number", "string-length", "normalize-space", "name", "local-name", "root"}
	for _, name := range xqrt.BuiltinNames() {
		served, needs := false, ""
		for arity := 0; arity <= maxLibArity; arity++ {
			f, n, err := xqrt.Builtin(name, arity)
			switch {
			case err != nil:
			case f != nil:
				served = true
			case n != "the context item":
				needs = n
			case arity != 0 || !slices.Contains(contextItemForms, name):
				t.Errorf("%s#%d needs the context item and is not one of the zero-arity forms %v", name, arity, contextItemForms)
			}
		}
		if want := interpOnly[name]; needs != want || served == (want != "") {
			t.Errorf("%s: served=%v needs=%q, want interpreter-only=%q", name, served, needs, want)
		}
	}
	f := newFixture(t)
	for _, name := range contextItemForms {
		if _, n, err := xqrt.Builtin(name, 0); err != nil || n != "the context item" {
			t.Errorf("%s#0: needs %q, err %v, want the context item", name, n, err)
		}
		for _, q := range []string{name + `()`, `for $n in doc("filmDB.xml")//name return ` + name + `()`} {
			if _, err := Compile(q, modules.NewRegistry()); err == nil || !strings.Contains(err.Error(), "needs the context item") {
				t.Errorf("%s outside a predicate: err = %v, want a refusal that names the context item", q, err)
			}
		}
	}
	// inside a predicate every function that reads the focus is served, in
	// any position: evalBoth compiles the query and holds the result
	// against the interpreter's
	positions := []string{`%s`, `contains(string(%s), "n")`, `if (exists(%s)) then true() else false()`,
		`some $x in (1, 2) satisfies exists(($x, %s)[2])`, `count((%s, 7)) = 2`, `exists((%s)[1])`,
		`for $i in 1 return exists(%s)`, `string(%s) cast as xs:string = ""`, `exists(<a>{%s}</a>/node())`,
		`typeswitch (%s) case xs:integer return true() default return false()`, `-number(%s) = -1`}
	for _, name := range append([]string{"position", "last", "fn:position", "fn:last", "fn:string"}, contextItemForms...) {
		for _, position := range positions {
			call := name + "()"
			f.evalBoth(t, `doc("filmDB.xml")//film/*[`+strings.ReplaceAll(position, "%s", call)+`]`)
			f.evalBoth(t, `for $f in doc("filmDB.xml")//film return ($f/name, $f/actor)[`+strings.ReplaceAll(position, "%s", call)+`]`)
		}
	}
	// … and refused outside one, also in a function a predicate calls:
	// the body of a function has no focus
	for _, q := range []string{`position()`, `for $n in doc("filmDB.xml")//name return last()`,
		`declare function local:p() { position() }; doc("filmDB.xml")//name[local:p() = 1]`} {
		_, err := Compile(q, modules.NewRegistry())
		if err == nil || !strings.Contains(err.Error(), "needs the context") || strings.Count(err.Error(), "loop-lifted engine") != 1 {
			t.Errorf("%s outside a predicate: err = %v", q, err)
		}
		if _, _, _, iErr := bothEngines(t, f, interp.New(f.reg), q, &ExecCtx{Docs: f.docs}, nil); errCode(iErr) != "XPDY0002" {
			t.Errorf("%s on the interpreter: err = %v, want XPDY0002", q, iErr)
		}
	}
	if _, _, err := xqrt.Builtin("no-such-function", 1); errCode(err) != "XPST0017" {
		t.Errorf("unknown function: err = %v, want XPST0017", err)
	}
	if _, err := Compile(`no-such-function(1)`, modules.NewRegistry()); errCode(err) != "XPST0017" {
		t.Errorf("pathfinder compile of an unknown function: err = %v, want XPST0017", err)
	}
}
