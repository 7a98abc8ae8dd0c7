package xq

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"xrpc/internal/xdm"
)

func mustParse(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nquery: %s", err, src)
	}
	return m
}

func mustParseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr: %v\nexpr: %s", err, src)
	}
	return e
}

// The paper's running example Q1.
func TestParseQ1(t *testing.T) {
	m := mustParse(t, `
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  execute at {"xrpc://y.example.org"}
  {f:filmsByActor("Sean Connery")}
} </films>`)
	if len(m.Imports) != 1 || m.Imports[0].URI != "films" {
		t.Fatalf("imports = %+v", m.Imports)
	}
	if m.Imports[0].AtHints[0] != "http://x.example.org/film.xq" {
		t.Fatalf("at hint = %v", m.Imports[0].AtHints)
	}
	el, ok := m.Body.(*DirElem)
	if !ok {
		t.Fatalf("body = %T, want DirElem", m.Body)
	}
	if el.Name != "films" {
		t.Fatalf("element name = %q", el.Name)
	}
	var exec *ExecuteAt
	for _, c := range el.Content {
		if enc, ok := c.(*Enclosed); ok {
			exec, _ = enc.X.(*ExecuteAt)
		}
	}
	if exec == nil {
		t.Fatal("no ExecuteAt found in element content")
	}
	if exec.Call.Name != "f:filmsByActor" || len(exec.Call.Args) != 1 {
		t.Fatalf("call = %+v", exec.Call)
	}
}

// Q2: execute at inside a for-loop with let-bound destination.
func TestParseQ2(t *testing.T) {
	m := mustParse(t, `
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  for $actor in ("Julie Andrews", "Sean Connery")
  let $dst := "xrpc://y.example.org"
  return execute at {$dst} {f:filmsByActor($actor)}
} </films>`)
	el := m.Body.(*DirElem)
	var fl *FLWOR
	for _, c := range el.Content {
		if e, isEnc := c.(*Enclosed); isEnc {
			fl, _ = e.X.(*FLWOR)
			if fl != nil {
				break
			}
		}
	}
	if fl == nil || len(fl.Clauses) != 2 {
		t.Fatalf("FLWOR clauses = %+v", fl)
	}
	if _, ok := fl.Clauses[0].(*ForClause); !ok {
		t.Fatalf("clause 0 = %T", fl.Clauses[0])
	}
	if _, ok := fl.Clauses[1].(*LetClause); !ok {
		t.Fatalf("clause 1 = %T", fl.Clauses[1])
	}
	if _, ok := fl.Return.(*ExecuteAt); !ok {
		t.Fatalf("return = %T", fl.Return)
	}
}

// Q7: two-document join, the §5 experiment query.
func TestParseQ7(t *testing.T) {
	m := mustParse(t, `
for $p in doc("persons.xml")//person,
    $ca in doc("xrpc://B/auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`)
	fl := m.Body.(*FLWOR)
	if len(fl.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(fl.Clauses))
	}
	fc := fl.Clauses[0].(*ForClause)
	path := fc.In.(*Path)
	if _, ok := path.Root.(*FuncCall); !ok {
		t.Fatalf("for-in root = %T", path.Root)
	}
	if len(path.Steps) != 1 { // fused descendant::person
		t.Fatalf("steps = %d", len(path.Steps))
	}
	if fl.Where == nil {
		t.Fatal("missing where")
	}
	cmp := fl.Where.(*Comparison)
	if !cmp.General || cmp.Op != "=" {
		t.Fatalf("where op = %+v", cmp)
	}
}

func TestParseLibraryModule(t *testing.T) {
	m := mustParse(t, `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`)
	if !m.IsLibrary || m.ModuleURI != "films" || m.ModulePrefix != "film" {
		t.Fatalf("module = %+v", m)
	}
	f := m.Function("film:filmsByActor", 1)
	if f == nil {
		t.Fatal("function not found")
	}
	if f.Params[0].Type.TypeName != "xs:string" || f.Params[0].Type.Occurrence != '1' {
		t.Fatalf("param type = %+v", f.Params[0].Type)
	}
	if f.Return.TypeName != "node()" || f.Return.Occurrence != '*' {
		t.Fatalf("return type = %+v", f.Return)
	}
}

func TestParseUpdatingFunction(t *testing.T) {
	m := mustParse(t, `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string)
{ insert node <film><name>{$name}</name></film> into doc("filmDB.xml")/films };`)
	f := m.Function("u:addFilm", 1)
	if f == nil || !f.Updating {
		t.Fatalf("updating function = %+v", f)
	}
	ins, ok := f.Body.(*Insert)
	if !ok {
		t.Fatalf("body = %T", f.Body)
	}
	if ins.Pos != InsertInto {
		t.Fatalf("insert pos = %v", ins.Pos)
	}
}

func TestParseUpdateForms(t *testing.T) {
	cases := []string{
		`insert node <a/> as first into doc("d")/r`,
		`insert node <a/> as last into doc("d")/r`,
		`insert node <a/> before doc("d")/r/x`,
		`insert node <a/> after doc("d")/r/x`,
		`insert nodes ($n1, $n2) into doc("d")/r`,
		`delete node doc("d")/r/x`,
		`delete nodes doc("d")//x`,
		`replace node doc("d")/r/x with <y/>`,
		`replace value of node doc("d")/r/x with "v"`,
		`rename node doc("d")/r/x as "y"`,
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestParseDeclareOption(t *testing.T) {
	m := mustParse(t, `
declare option xrpc:isolation "repeatable";
declare option xrpc:timeout "30";
1`)
	if m.Options["xrpc:isolation"] != "repeatable" {
		t.Fatalf("options = %v", m.Options)
	}
	if m.Options["xrpc:timeout"] != "30" {
		t.Fatalf("options = %v", m.Options)
	}
}

// parens prints an operator expression fully parenthesized, for the
// precedence table; path operands print as written.
func parens(e Expr) string {
	bin := func(l Expr, op string, r Expr) string { return "(" + parens(l) + " " + op + " " + parens(r) + ")" }
	opt := func(optional bool) string { return map[bool]string{true: "?"}[optional] }
	switch n := e.(type) {
	case *IntLit:
		return strconv.FormatInt(n.Val, 10)
	case *VarRef:
		return "$" + n.Name
	case *EmptySeq:
		return "()"
	case *Path:
		s := parens(n.Root)
		for _, st := range n.Steps {
			s += "/" + st.Test.Name
		}
		return s
	case *Logic:
		return bin(n.L, n.Op, n.R)
	case *Comparison:
		return bin(n.L, n.Op, n.R)
	case *RangeExpr:
		return bin(n.Lo, "to", n.Hi)
	case *Arith:
		return bin(n.L, n.Op, n.R)
	case *UnionExpr:
		return bin(n.L, "|", n.R)
	case *InstanceOf:
		return "(" + parens(n.X) + " instance of " + n.Type.String() + ")"
	case *Castable:
		return "(" + parens(n.X) + " castable as " + n.Type + opt(n.Optional) + ")"
	case *Cast:
		return "(" + parens(n.X) + " cast as " + n.Type + opt(n.Optional) + ")"
	case *Unary:
		return "(" + map[bool]string{true: "-", false: "+"}[n.Neg] + parens(n.X) + ")"
	}
	return fmt.Sprintf("%T", e)
}

// TestParsePrecedence parses one row per adjacent pair of precedence
// levels (XQuery 1.0 A.4, loosest first), both ways round where both are
// binary, and the unary rows over the type operators.
func TestParsePrecedence(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`1 or 2 and 3`, `(1 or (2 and 3))`},
		{`1 and 2 or 3`, `((1 and 2) or 3)`},
		{`1 and 2 = 3`, `(1 and (2 = 3))`},
		{`1 = 2 and 3`, `((1 = 2) and 3)`},
		{`1 eq 2 to 3`, `(1 eq (2 to 3))`},
		{`1 to 2 is 3`, `((1 to 2) is 3)`},
		{`1 to 2 + 3`, `(1 to (2 + 3))`},
		{`1 - 2 to 3`, `((1 - 2) to 3)`},
		{`1 + 2 * 3`, `(1 + (2 * 3))`},
		{`1 idiv 2 - 3`, `((1 idiv 2) - 3)`},
		{`1 - 2 - 3`, `((1 - 2) - 3)`},
		{`$a * $b | $c`, `($a * ($b | $c))`},
		{`$a union $b mod $c`, `(($a | $b) mod $c)`},
		{`$a | $b instance of xs:integer`, `($a | ($b instance of xs:integer))`},
		{`$a instance of xs:integer+ | $b`, `(($a instance of xs:integer+) | $b)`},
		{`$a castable as xs:integer instance of xs:boolean`, `(($a castable as xs:integer) instance of xs:boolean)`},
		{`$a cast as xs:string castable as xs:integer?`, `(($a cast as xs:string) castable as xs:integer?)`},
		{`-$a cast as xs:string`, `((-$a) cast as xs:string)`},
		{`-$a castable as xs:integer`, `((-$a) castable as xs:integer)`},
		{`+$a instance of xs:integer`, `((+$a) instance of xs:integer)`},
		{`-$a/b * 2`, `((-$a/b) * 2)`},
		{`- + -3`, `(-(+(-3)))`},
		{`() cast as xs:integer? = 3 cast as xs:integer * 2`, `((() cast as xs:integer?) = ((3 cast as xs:integer) * 2))`},
	} {
		if got := parens(mustParseExpr(t, tc.src)); got != tc.want {
			t.Errorf("%s parsed as %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParseRangeAndQuantified(t *testing.T) {
	e := mustParseExpr(t, `for $i in (1 to $x) return $i`)
	fl := e.(*FLWOR)
	if _, ok := fl.Clauses[0].(*ForClause).In.(*RangeExpr); !ok {
		t.Fatalf("in = %T", fl.Clauses[0].(*ForClause).In)
	}
	e = mustParseExpr(t, `some $x in (1,2,3) satisfies $x gt 2`)
	q := e.(*Quantified)
	if q.Every || q.Var != "x" {
		t.Fatalf("quantified = %+v", q)
	}
	// a binding list is one nested quantifier per binding
	for _, kw := range []string{"some", "every"} {
		e = mustParseExpr(t, kw+` $a in (1,2), $b in ($a, 3), $c in 4 satisfies $a = $b + $c`)
		for _, v := range []string{"a", "b", "c"} {
			q, ok := e.(*Quantified)
			if !ok || q.Var != v || q.Every != (kw == "every") {
				t.Fatalf("%s: binding $%s parsed as %#v", kw, v, e)
			}
			e = q.Satisfies
		}
		if _, ok := e.(*Comparison); !ok {
			t.Fatalf("%s: satisfies = %T", kw, e)
		}
	}
	for _, bad := range []string{`some $a in 1, satisfies 1`, `some $a in 1, $b satisfies 1`, `every $a in 1, $b in 2`} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("%s: parsed", bad)
		}
	}
}

func TestParsePathForms(t *testing.T) {
	cases := map[string]int{ // expr -> number of steps
		`/films`:                      1,
		`//film`:                      1, // fused descendant::film
		`doc("f")//name[../actor=$a]`: 1, // fused (boolean predicate)
		`$p/@id`:                      1,
		`$ca/buyer/@person`:           2,
		`.//name`:                     1,
		`$d/..`:                       1,
		`child::film/attribute::id`:   2,
		`$x/descendant-or-self::node()/self::film`: 2,
		`$x/text()`: 1,
	}
	for src, steps := range cases {
		e := mustParseExpr(t, src)
		p, ok := e.(*Path)
		if !ok {
			t.Errorf("%s: got %T, want *Path", src, e)
			continue
		}
		if len(p.Steps) != steps {
			t.Errorf("%s: %d steps, want %d", src, len(p.Steps), steps)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	e := mustParseExpr(t, `//person[@id=$pid][2]`)
	p := e.(*Path)
	last := p.Steps[len(p.Steps)-1]
	if len(last.Preds) != 2 {
		t.Fatalf("predicates = %d", len(last.Preds))
	}
	if _, ok := last.Preds[1].(*IntLit); !ok {
		t.Fatalf("positional predicate = %T", last.Preds[1])
	}
}

func TestParseDirectConstructorText(t *testing.T) {
	e := mustParseExpr(t, `<a x="1" y="{1+1}">hi {2+3} bye &amp; &lt;</a>`)
	el := e.(*DirElem)
	if len(el.Attrs) != 2 {
		t.Fatalf("attrs = %d", len(el.Attrs))
	}
	if el.Attrs[0].Value[0].(*StringLit).Val != "1" {
		t.Fatalf("attr 0 = %+v", el.Attrs[0])
	}
	if _, ok := el.Attrs[1].Value[0].(*Enclosed); !ok {
		t.Fatalf("attr 1 = %+v", el.Attrs[1])
	}
	if len(el.Content) != 3 {
		t.Fatalf("content = %d items: %#v", len(el.Content), el.Content)
	}
	if el.Content[0].(*StringLit).Val != "hi " {
		t.Fatalf("text 0 = %q", el.Content[0].(*StringLit).Val)
	}
	if el.Content[2].(*StringLit).Val != " bye & <" {
		t.Fatalf("text 2 = %q", el.Content[2].(*StringLit).Val)
	}
}

func TestParseNestedConstructor(t *testing.T) {
	e := mustParseExpr(t, `<r><a>{$x}</a><b/></r>`)
	el := e.(*DirElem)
	if len(el.Content) != 2 {
		t.Fatalf("content = %d", len(el.Content))
	}
	a := el.Content[0].(*DirElem)
	if a.Name != "a" || len(a.Content) != 1 {
		t.Fatalf("a = %+v", a)
	}
	b := el.Content[1].(*DirElem)
	if b.Name != "b" || len(b.Content) != 0 {
		t.Fatalf("b = %+v", b)
	}
}

func TestParseCurlyEscapes(t *testing.T) {
	e := mustParseExpr(t, `<a>{{literal}}</a>`)
	el := e.(*DirElem)
	if len(el.Content) != 1 || el.Content[0].(*StringLit).Val != "{literal}" {
		t.Fatalf("content = %#v", el.Content)
	}
}

func TestParseComments(t *testing.T) {
	e := mustParseExpr(t, `(: outer (: nested :) comment :) 1 + (: x :) 2`)
	if _, ok := e.(*Arith); !ok {
		t.Fatalf("got %T", e)
	}
}

func TestParseStringEscapes(t *testing.T) {
	e := mustParseExpr(t, `"say ""hi"" &amp; bye"`)
	s := e.(*StringLit)
	if s.Val != `say "hi" & bye` {
		t.Fatalf("string = %q", s.Val)
	}
	e = mustParseExpr(t, `'it''s'`)
	if e.(*StringLit).Val != "it's" {
		t.Fatalf("string = %q", e.(*StringLit).Val)
	}
}

func TestParseComputedConstructors(t *testing.T) {
	e := mustParseExpr(t, `element {"foo"} {1, 2}`)
	ce := e.(*CompElem)
	if _, ok := ce.Content.(*SeqExpr); !ok {
		t.Fatalf("content = %T", ce.Content)
	}
	e = mustParseExpr(t, `text {"hello"}`)
	if _, ok := e.(*CompText); !ok {
		t.Fatalf("got %T", e)
	}
	e = mustParseExpr(t, `attribute {"id"} {"x1"}`)
	if _, ok := e.(*CompAttr); !ok {
		t.Fatalf("got %T", e)
	}
}

func TestParseCastInstance(t *testing.T) {
	e := mustParseExpr(t, `"42" cast as xs:integer`)
	if c := e.(*Cast); c.Type != "xs:integer" {
		t.Fatalf("cast = %+v", c)
	}
	e = mustParseExpr(t, `$x instance of xs:string+`)
	io := e.(*InstanceOf)
	if io.Type.TypeName != "xs:string" || io.Type.Occurrence != '+' {
		t.Fatalf("instance of = %+v", io.Type)
	}
}

func TestParseNodeComparisons(t *testing.T) {
	for _, src := range []string{`$a is $b`, `$a << $b`, `$a >> $b`} {
		e := mustParseExpr(t, src)
		c, ok := e.(*Comparison)
		if !ok || !c.Node {
			t.Errorf("%s: got %#v", src, e)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`for $x in`,
		`<a><b></a>`,
		`execute at {"x"} {1+1}`,
		`"unterminated`,
		`declare bogus thing; 1`,
		`1 +`,
		`<a>{1</a>`,
		`1 = 1 = 1`,
		`1 to 2 to 3`,
		`3 cast as xs:string cast as xs:integer`,
		`3 castable as xs:integer cast as xs:string`,
		`3 instance of xs:integer instance of xs:boolean`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", src)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("1 +\n  &")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Line != 2 {
		t.Errorf("line = %d, want 2", se.Line)
	}
}

func TestParseEchoVoidBench(t *testing.T) {
	// The Table 2 experiment query.
	m := mustParse(t, `
import module namespace t="test" at "http://x.example.org/test.xq";
for $i in (1 to $x)
return execute at {"xrpc://y.example.org"} {t:echoVoid()}`)
	fl := m.Body.(*FLWOR)
	ex := fl.Return.(*ExecuteAt)
	if ex.Call.Name != "t:echoVoid" || len(ex.Call.Args) != 0 {
		t.Fatalf("call = %+v", ex.Call)
	}
}

func TestParseSemiJoinModule(t *testing.T) {
	// The §5 distributed semi-join module function.
	m := mustParse(t, `
module namespace b = "functions_b";
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };`)
	f := m.Function("b:Q_B3", 1)
	if f == nil {
		t.Fatal("function missing")
	}
	path := f.Body.(*Path)
	last := path.Steps[len(path.Steps)-1]
	if len(last.Preds) != 1 {
		t.Fatalf("preds = %d", len(last.Preds))
	}
	// predicate is ./buyer/@person=$pid
	cmp := last.Preds[0].(*Comparison)
	if !cmp.General {
		t.Fatal("predicate comparison should be general")
	}
	lp := cmp.L.(*Path)
	if len(lp.Steps) != 2 {
		t.Fatalf("predicate path steps = %d", len(lp.Steps))
	}
	if lp.Steps[1].Axis != xdm.AxisAttribute {
		t.Fatalf("axis = %v", lp.Steps[1].Axis)
	}
}

func TestParseOrderBy(t *testing.T) {
	e := mustParseExpr(t, `for $x in (3,1,2) order by $x descending return $x`)
	fl := e.(*FLWOR)
	if len(fl.OrderBy) != 1 || !fl.OrderBy[0].Descending {
		t.Fatalf("order by = %+v", fl.OrderBy)
	}
}

func TestParsePositionalVar(t *testing.T) {
	e := mustParseExpr(t, `for $x at $i in ("a","b") return $i`)
	fc := e.(*FLWOR).Clauses[0].(*ForClause)
	if fc.PosVar != "i" {
		t.Fatalf("pos var = %q", fc.PosVar)
	}
}

func TestSeqTypeString(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"xs:string", "xs:string"},
		{"node()*", "node()*"},
		{"item()?", "item()?"},
		{"xs:integer+", "xs:integer+"},
		{"empty-sequence()", "empty-sequence()"},
	}
	for _, c := range cases {
		p := &parser{lex: &lexer{src: c.src}}
		if err := p.advance(); err != nil {
			t.Fatal(err)
		}
		st, err := p.parseSeqType()
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if st.String() != c.want {
			t.Errorf("%s: got %q", c.src, st.String())
		}
	}
}

func TestParseWrapperGeneratedQueryShape(t *testing.T) {
	// Shape of the Figure 3 generated query (the wrapper emits this).
	src := `
import module namespace func = "functions" at "http://example.org/functions.xq";
declare namespace env = "http://www.w3.org/2003/05/soap-envelope";
declare namespace xrpc = "http://monetdb.cwi.nl/XQuery";
<env:Envelope>
<env:Body>
<xrpc:response>{
  for $call in doc("/tmp/request.xml")//xrpc:call
  let $param1 := $call/xrpc:sequence[1]
  let $param2 := $call/xrpc:sequence[2]
  return func:getPerson(string($param1), string($param2))
}</xrpc:response>
</env:Body>
</env:Envelope>`
	m := mustParse(t, src)
	if m.Namespaces["env"] != "http://www.w3.org/2003/05/soap-envelope" {
		t.Fatalf("namespaces = %v", m.Namespaces)
	}
	if !strings.Contains(src, "xrpc:response") {
		t.Fatal("sanity")
	}
	el := m.Body.(*DirElem)
	if el.Name != "env:Envelope" {
		t.Fatalf("root = %q", el.Name)
	}
}
