package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/modules"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
)

const filmDB = `<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>`

const filmModule = `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`

// testEngine is an Engine and the documents its test evaluations read;
// each evaluation passes them as EvalOptions.Docs.
type testEngine struct {
	*Engine
	docs docres.DocResolver
}

func newTestEngine(t *testing.T) (*testEngine, *store.Store) {
	t.Helper()
	st := store.New()
	if err := st.LoadXML("filmDB.xml", filmDB); err != nil {
		t.Fatal(err)
	}
	reg := modules.NewRegistry()
	if err := reg.Register(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	return &testEngine{Engine: New(reg), docs: storetest.Latest(t, st)}, st
}

func evalQuery(t *testing.T, e *testEngine, src string) xdm.Sequence {
	t.Helper()
	c, err := e.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nquery: %s", err, src)
	}
	seq, _, err := e.Eval(c, &EvalOptions{Docs: e.docs})
	if err != nil {
		t.Fatalf("eval: %v\nquery: %s", err, src)
	}
	return seq
}

func evalStr(t *testing.T, e *testEngine, src string) string {
	t.Helper()
	return xdm.SerializeSequence(evalQuery(t, e, src))
}

func TestEvalLiteralsAndArithmetic(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`1 + 2`:                "3",
		`2 * 3 + 4`:            "10",
		`10 div 4`:             "2.5",
		`10 idiv 4`:            "2",
		`10 mod 4`:             "2",
		`-(3)`:                 "-3",
		`1.5 + 1`:              "2.5",
		`2e1 * 2`:              "40",
		`"a"`:                  "a",
		`()`:                   "",
		`(1,2,3)`:              "1 2 3",
		`(1 to 5)`:             "1 2 3 4 5",
		`(5 to 1)`:             "",
		`concat("a","b")`:      "ab",
		`1 + ()`:               "",
		`sum((1,2,3))`:         "6",
		`sum(())`:              "0",
		`count((1,2,3))`:       "3",
		`avg((2,4))`:           "3",
		`min((3,1,2))`:         "1",
		`max((3,1,2))`:         "3",
		`abs(-4)`:              "4",
		`floor(2.7)`:           "2",
		`ceiling(2.1)`:         "3",
		`round(2.5)`:           "3",
		`string-length("abc")`: "3",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`1 div 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Fatal("expected FOAR0001")
	} else if !strings.Contains(err.Error(), "FOAR0001") {
		t.Fatalf("error = %v", err)
	}
}

func TestEvalComparisons(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`1 < 2`:                                 "true",
		`2 le 2`:                                "true",
		`"a" eq "a"`:                            "true",
		`(1,2,3) = 3`:                           "true",
		`(1,2) = (3,4)`:                         "false",
		`() = 1`:                                "false",
		`1 eq 1.0`:                              "true",
		`not(1 = 2)`:                            "true",
		`true() and false()`:                    "false",
		`true() or false()`:                     "true",
		`1 < 2 and 2 < 3`:                       "true",
		`some $x in (1,2,3) satisfies $x gt 2`:  "true",
		`every $x in (1,2,3) satisfies $x gt 2`: "false",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalPathsOnFilmDB(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`count(doc("filmDB.xml")//film)`:                       "3",
		`doc("filmDB.xml")//name[../actor="Sean Connery"]`:     "<name>The Rock</name><name>Goldfinger</name>",
		`doc("filmDB.xml")/films/film[1]/name`:                 "<name>The Rock</name>",
		`doc("filmDB.xml")/films/film[last()]/name`:            "<name>Green Card</name>",
		`string(doc("filmDB.xml")//film[2]/actor)`:             "Sean Connery",
		`count(doc("filmDB.xml")//film[actor="Sean Connery"])`: "2",
		// 6 content texts + 4 inter-element whitespace texts
		`count(doc("filmDB.xml")//text())`: "10",
		// //name[2] is per-parent (each film has one name) — to pick the
		// second overall, filter the whole sequence:
		`(doc("filmDB.xml")//name)[position()=2]`:                "<name>Goldfinger</name>",
		`doc("filmDB.xml")//name[2]`:                             "",
		`count(doc("filmDB.xml")/films/film/node())`:             "6",
		`doc("filmDB.xml")//actor[.="Gerard Depardieu"]/../name`: "<name>Green Card</name>",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalAttributes(t *testing.T) {
	st := store.New()
	if err := st.LoadXML("p.xml", `<people><person id="p1" age="30"/><person id="p2" age="40"/></people>`); err != nil {
		t.Fatal(err)
	}
	e := &testEngine{Engine: New(nil), docs: storetest.Latest(t, st)}
	cases := map[string]string{
		`string(doc("p.xml")//person[1]/@id)`:       "p1",
		`count(doc("p.xml")//person[@id="p2"])`:     "1",
		`string(doc("p.xml")//person[@age=40]/@id)`: "p2",
		`count(doc("p.xml")//@*)`:                   "4",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalFLWOR(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`for $x in (1,2,3) return $x * 2`:                          "2 4 6",
		`for $x in (1,2,3) where $x gt 1 return $x`:                "2 3",
		`for $x in (3,1,2) order by $x return $x`:                  "1 2 3",
		`for $x in (3,1,2) order by $x descending return $x`:       "3 2 1",
		`for $x at $i in ("a","b") return $i`:                      "1 2",
		`let $y := 5 return $y + 1`:                                "6",
		`for $x in (1,2) for $y in (10,20) return $x + $y`:         "11 21 12 22",
		`for $x in (1,2), $y in (10,20) return $x + $y`:            "11 21 12 22",
		`for $f in doc("filmDB.xml")//film return string($f/name)`: "The Rock Goldfinger Green Card",
		`for $x in (1,2) let $z := ($x, $x*10) return count($z)`:   "2 2",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// Q5 from §3.1 of the paper: nested for-loops with a two-item let.
func TestEvalQ5LoopLifting(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
for $x in (10,20)
return for $y in (100,200)
       let $z := ($x,$y)
       return $z`)
	want := "10 100 10 200 20 100 20 200"
	if got != want {
		t.Errorf("Q5 = %q, want %q", got, want)
	}
}

func TestEvalConstructors(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`<a/>`:                  "<a/>",
		`<a x="1">t</a>`:        `<a x="1">t</a>`,
		`<a>{1+1}</a>`:          "<a>2</a>",
		`<a>{(1,2,3)}</a>`:      "<a>1 2 3</a>",
		`<a>x{1}y</a>`:          "<a>x1y</a>",
		`<a b="{1+1}"/>`:        `<a b="2"/>`,
		`element {"z"} {42}`:    "<z>42</z>",
		`text {"hi"}`:           "hi",
		`<a>{<b>inner</b>}</a>`: "<a><b>inner</b></a>",
		`<films>{doc("filmDB.xml")//name[../actor="Sean Connery"]}</films>`: "<films><name>The Rock</name><name>Goldfinger</name></films>",
		`<p>{attribute {"id"} {"x"}}</p>`:                                   `<p id="x"/>`,
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestConstructorCopiesNodes(t *testing.T) {
	e, _ := newTestEngine(t)
	// the node inside the constructor must be a copy: its parent chain
	// ends at the new element, not the source document.
	seq := evalQuery(t, e, `<wrap>{doc("filmDB.xml")//name[1]}</wrap>`)
	wrap := seq[0].(*xdm.Node)
	inner := wrap.Children()[0]
	if inner.Parent != wrap {
		t.Error("inner node's parent should be the new element")
	}
	if inner.Root() != wrap {
		t.Error("inner node's root should be the constructed element")
	}
}

func TestEvalUserFunctions(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
declare function local:fact($n as xs:integer) as xs:integer
{ if ($n le 1) then 1 else $n * local:fact($n - 1) };
local:fact(5)`)
	if got != "120" {
		t.Errorf("fact(5) = %q", got)
	}
}

func TestEvalModuleImport(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
import module namespace f="films" at "http://x.example.org/film.xq";
f:filmsByActor("Sean Connery")`)
	want := "<name>The Rock</name><name>Goldfinger</name>"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestEvalFunctionConversionRules(t *testing.T) {
	e, _ := newTestEngine(t)
	// untyped node content must cast to the declared xs:string parameter
	got := evalStr(t, e, `
declare function local:greet($who as xs:string) as xs:string
{ concat("hi ", $who) };
local:greet((doc("filmDB.xml")//actor)[1])`)
	if got != "hi Sean Connery" {
		t.Errorf("got %q", got)
	}
	// cardinality violation
	c, err := e.Compile(`
declare function local:one($x as xs:string) { $x };
local:one(("a","b"))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Error("expected cardinality error")
	}
}

func TestEvalRecursionLimit(t *testing.T) {
	e, _ := newTestEngine(t)
	e.MaxRecursion = 32
	c, err := e.Compile(`
declare function local:loop($n as xs:integer) as xs:integer
{ local:loop($n + 1) };
local:loop(0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Fatal("expected recursion limit error")
	}
}

func TestEvalExternalVariables(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`for $i in (1 to $x) return $i`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := e.Eval(c, &EvalOptions{Vars: map[string]xdm.Sequence{
		"x": {xdm.Integer(4)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != "1 2 3 4" {
		t.Errorf("got %q", got)
	}
}

func TestEvalPrologVariables(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
declare variable $base as xs:integer := 10;
$base * 2`)
	if got != "20" {
		t.Errorf("got %q", got)
	}
}

func TestEvalStringFunctions(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`contains("hello","ell")`:        "true",
		`starts-with("hello","he")`:      "true",
		`ends-with("hello","lo")`:        "true",
		`substring("hello",2)`:           "ello",
		`substring("hello",2,3)`:         "ell",
		`substring-before("a=b","=")`:    "a",
		`substring-after("a=b","=")`:     "b",
		`upper-case("aBc")`:              "ABC",
		`lower-case("aBc")`:              "abc",
		`normalize-space("  a   b ")`:    "a b",
		`translate("abc","ab","xy")`:     "xyc",
		`string-join(("a","b","c"),"-")`: "a-b-c",
		`count(tokenize("a,b,c",","))`:   "3",
		`string(number("42"))`:           "42",
		`string(number("nope"))`:         "NaN",
		`distinct-values((1,2,1,3))`:     "1 2 3",
		`reverse((1,2,3))`:               "3 2 1",
		`subsequence((1,2,3,4),2,2)`:     "2 3",
		`insert-before((1,2),2,(9))`:     "1 9 2",
		`remove((1,2,3),2)`:              "1 3",
		`index-of((10,20,10),10)`:        "1 3",
		`deep-equal(<a>x</a>,<a>x</a>)`:  "true",
		`deep-equal(<a>x</a>,<a>y</a>)`:  "false",
		`name(<foo/>)`:                   "foo",
		`local-name(<x:foo/>)`:           "foo",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalCardinalityFunctions(t *testing.T) {
	e, _ := newTestEngine(t)
	if got := evalStr(t, e, `zero-or-one(())`); got != "" {
		t.Errorf("zero-or-one(()) = %q", got)
	}
	if got := evalStr(t, e, `exactly-one(5)`); got != "5" {
		t.Errorf("exactly-one(5) = %q", got)
	}
	c, _ := e.Compile(`zero-or-one((1,2))`)
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Error("zero-or-one((1,2)) should fail")
	}
	c, _ = e.Compile(`one-or-more(())`)
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Error("one-or-more(()) should fail")
	}
}

func TestEvalCastAndInstance(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`"42" cast as xs:integer`:         "42",
		`xs:integer("17") + 1`:            "18",
		`"x" castable as xs:integer`:      "false",
		`"7" castable as xs:integer`:      "true",
		`5 instance of xs:integer`:        "true",
		`(1,2) instance of xs:integer+`:   "true",
		`() instance of empty-sequence()`: "true",
		`<a/> instance of element()`:      "true",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalNodeComparisons(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`let $d := doc("filmDB.xml") return $d//film[1] is $d//film[1]`: "true",
		`let $d := doc("filmDB.xml") return $d//film[1] is $d//film[2]`: "false",
		`let $d := doc("filmDB.xml") return $d//film[1] << $d//film[2]`: "true",
		`let $d := doc("filmDB.xml") return $d//film[2] >> $d//film[1]`: "true",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalUnion(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
let $d := doc("filmDB.xml")
return count(($d//film[1] | $d//film[2] | $d//film[1]))`)
	if got != "2" {
		t.Errorf("union count = %q", got)
	}
}

func TestEvalIfElse(t *testing.T) {
	e, _ := newTestEngine(t)
	if got := evalStr(t, e, `if (1 < 2) then "y" else "n"`); got != "y" {
		t.Errorf("got %q", got)
	}
	if got := evalStr(t, e, `if (()) then "y" else "n"`); got != "n" {
		t.Errorf("got %q", got)
	}
}

func TestEvalXrpcHelpers(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`xrpc:host("xrpc://b.example.org/auctions.xml")`: "xrpc://b.example.org",
		`xrpc:path("xrpc://b.example.org/auctions.xml")`: "auctions.xml",
		`xrpc:host("auctions.xml")`:                      "localhost",
		`xrpc:path("auctions.xml")`:                      "auctions.xml",
		`xrpc:host("xrpc://b.example.org:9000/a/b.xml")`: "xrpc://b.example.org:9000",
		`xrpc:path("xrpc://b.example.org:9000/a/b.xml")`: "a/b.xml",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	e, _ := newTestEngine(t)
	bad := []string{
		`$undefined`,
		`error("err:TEST", "boom")`,
		`doc("nope.xml")`,
		`unknownfn(1)`,
	}
	for _, q := range bad {
		c, err := e.Compile(q)
		if err != nil {
			continue
		}
		if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

// --------------------------------------------------------------- updates

func TestUpdateInsertDelete(t *testing.T) {
	e, st := newTestEngine(t)
	c, err := e.Compile(`insert node <film><name>New</name><actor>X</actor></film> into doc("filmDB.xml")/films`)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pul.Prims) != 1 {
		t.Fatalf("pul = %d prims", len(pul.Prims))
	}
	// before apply: invisible (XQUF defers side effects)
	if got := evalStr(t, e, `count(doc("filmDB.xml")//film)`); got != "3" {
		t.Fatalf("pre-apply count = %s", got)
	}
	if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, e, `count(doc("filmDB.xml")//film)`); got != "4" {
		t.Fatalf("post-apply count = %s", got)
	}
	// delete it again
	c, _ = e.Compile(`delete nodes doc("filmDB.xml")//film[name="New"]`)
	_, pul, err = e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, e, `count(doc("filmDB.xml")//film)`); got != "3" {
		t.Fatalf("post-delete count = %s", got)
	}
}

func TestUpdateInsertPositions(t *testing.T) {
	e, st := newTestEngine(t)
	apply := func(q string) {
		t.Helper()
		c, err := e.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
			t.Fatal(err)
		}
	}
	apply(`insert node <film><name>AAA</name></film> as first into doc("filmDB.xml")/films`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")/films/film[1]/name)`); got != "AAA" {
		t.Fatalf("as-first = %q", got)
	}
	apply(`insert node <film><name>ZZZ</name></film> as last into doc("filmDB.xml")/films`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")/films/film[last()]/name)`); got != "ZZZ" {
		t.Fatalf("as-last = %q", got)
	}
	apply(`insert node <film><name>MID</name></film> before doc("filmDB.xml")//film[name="ZZZ"]`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")/films/film[last()-1]/name)`); got != "MID" {
		t.Fatalf("before = %q", got)
	}
	apply(`insert node <film><name>END</name></film> after doc("filmDB.xml")//film[name="ZZZ"]`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")/films/film[last()]/name)`); got != "END" {
		t.Fatalf("after = %q", got)
	}
}

func TestUpdateReplaceRename(t *testing.T) {
	e, st := newTestEngine(t)
	apply := func(q string) {
		t.Helper()
		c, err := e.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
			t.Fatal(err)
		}
	}
	apply(`replace value of node doc("filmDB.xml")//film[1]/name with "Renamed Rock"`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")//film[1]/name)`); got != "Renamed Rock" {
		t.Fatalf("replace value = %q", got)
	}
	apply(`replace node doc("filmDB.xml")//film[3] with <film><name>Other</name><actor>Nobody</actor></film>`)
	if got := evalStr(t, e, `string(doc("filmDB.xml")//film[3]/actor)`); got != "Nobody" {
		t.Fatalf("replace node = %q", got)
	}
	apply(`rename node doc("filmDB.xml")//film[1]/name as "title"`)
	if got := evalStr(t, e, `count(doc("filmDB.xml")//film[1]/title)`); got != "1" {
		t.Fatalf("rename = %q", got)
	}
}

func TestUpdatePut(t *testing.T) {
	e, st := newTestEngine(t)
	c, err := e.Compile(`put(<backup>{doc("filmDB.xml")//name}</backup>, "backup.xml")`)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, e, `count(doc("backup.xml")//name)`); got != "3" {
		t.Fatalf("put = %q", got)
	}
}

// illKindedUpdates are inserts and replaces whose target and source
// kinds XQUF forbids, on illKindedDoc. Each row is the query and the
// same primitive built by hand, the way a PUL decoded from the wire or
// the log reaches xquf.ApplyUpdates without evalUpdate's check.
const illKindedDoc = `<r><p id="1">t</p></r>`

var illKindedUpdates = []struct {
	query          string
	kind           xquf.PrimitiveKind
	target, source string
	code           string
}{
	{`replace node doc("a.xml")/r/p/@id with <x/>`,
		xquf.PrimReplaceNode, `doc("a.xml")/r/p/@id`, `<x/>`, "XUTY0011"},
	{`replace node doc("a.xml")/r/p with doc("a.xml")/r/p/@id`,
		xquf.PrimReplaceNode, `doc("a.xml")/r/p`, `doc("a.xml")/r/p/@id`, "XUTY0010"},
	{`insert node <x/> into doc("a.xml")/r/p/@id`,
		xquf.PrimInsertInto, `doc("a.xml")/r/p/@id`, `<x/>`, "XUTY0005"},
	{`insert node <x/> as first into doc("a.xml")/r/p/text()`,
		xquf.PrimInsertFirst, `doc("a.xml")/r/p/text()`, `<x/>`, "XUTY0005"},
	{`insert node <x/> before doc("a.xml")/r/p/@id`,
		xquf.PrimInsertBefore, `doc("a.xml")/r/p/@id`, `<x/>`, "XUTY0006"},
	{`insert node attribute {"a"} {"v"} into doc("a.xml")`,
		xquf.PrimInsertInto, `doc("a.xml")`, `attribute {"a"} {"v"}`, "XUTY0022"},
	{`insert node attribute {"a"} {"v"} after doc("a.xml")/r`,
		xquf.PrimInsertAfter, `doc("a.xml")/r`, `attribute {"a"} {"v"}`, "XUDY0030"},
}

// TestIllKindedUpdatesRejected holds both checks: evaluation raises the
// row's code, and so does xquf.ApplyUpdates on the hand-built primitive (an
// attribute target has no index among its parent's children), and
// neither changes the document.
func TestIllKindedUpdatesRejected(t *testing.T) {
	codeOf := func(err error) string {
		var xe *xdm.Error
		if errors.As(err, &xe) {
			return xe.Code
		}
		return fmt.Sprint(err)
	}
	for _, row := range illKindedUpdates {
		e, st := newTestEngine(t)
		if err := st.LoadXML("a.xml", illKindedDoc); err != nil {
			t.Fatal(err)
		}
		c, err := e.Compile(row.query)
		if err != nil {
			t.Fatalf("%s: %v", row.query, err)
		}
		if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true}); codeOf(err) != row.code {
			t.Errorf("%s: eval error %v, want %s", row.query, err, row.code)
		}
		target := evalQuery(t, e, row.target)[0].(*xdm.Node)
		var src []*xdm.Node
		for _, it := range evalQuery(t, e, row.source) {
			src = append(src, it.(*xdm.Node).Clone())
		}
		ul := &xquf.UpdateList{}
		ul.Add(xquf.Primitive{Kind: row.kind, Target: target, Source: src})
		if err := xquf.ApplyUpdates(st, ul, nil); codeOf(err) != row.code {
			t.Errorf("%s: xquf.ApplyUpdates error %v, want %s", row.query, err, row.code)
		}
		if got := evalStr(t, e, `doc("a.xml")`); got != illKindedDoc {
			t.Errorf("%s: document changed to %s", row.query, got)
		}
	}
}

// updatingShapes are queries whose update sits below a node the
// classification once did not descend into: a typeswitch branch, computed
// element content, a quantifier's satisfies, a path predicate. Each
// deletes every film of filmDB.xml; core's TestUpdateBelowAnyNodeCommits
// runs the same four through Peer.Query.
var updatingShapes = []string{
	`for $a in doc("filmDB.xml")//film return typeswitch ($a) case element() return delete node $a default return ()`,
	`element {"gone"} {delete node doc("filmDB.xml")//film}`,
	`some $f in doc("filmDB.xml")//film satisfies delete node $f`,
	`declare updating function local:del($n as node()) { delete node $n }; doc("filmDB.xml")//film[local:del(.)]`,
}

func TestUpdatingFunctionClassification(t *testing.T) {
	e, _ := newTestEngine(t)
	updating := append([]string{`
declare updating function local:add($n as xs:string)
{ insert node <film><name>{$n}</name></film> into doc("filmDB.xml")/films };
local:add("via function")`,
		`put(<a/>, "a.xml")`, `fn:put(<a/>, "a.xml")`,
		`if (delete node doc("filmDB.xml")//film) then 1 else 2`,
		`for $f in doc("filmDB.xml")//film order by count(delete node $f) return 1`,
		`import module namespace film="films" at "http://x.example.org/film.xq";
declare updating function local:del($n as node()) { delete node $n };
execute at {"xrpc://y"} {film:filmsByActor(string(local:del(doc("filmDB.xml")//film)))}`,
	}, updatingShapes...)
	for _, q := range updating {
		c, err := e.Compile(q)
		if err != nil {
			t.Fatalf("%v\nquery: %s", err, q)
		}
		if !c.IsUpdating() {
			t.Errorf("must be classified updating: %s", q)
		}
	}
	for _, q := range []string{`1 + 1`, `doc("filmDB.xml")//film[name = "x"]`,
		`declare function local:f($n) { $n }; for $f in doc("filmDB.xml")//film return typeswitch ($f) case element() return local:f($f) default return ()`,
		`import module namespace film="films" at "http://x.example.org/film.xq"; execute at {"xrpc://y"} {film:filmsByActor("x")}`} {
		c, err := e.Compile(q)
		if err != nil {
			t.Fatalf("%v\nquery: %s", err, q)
		}
		if c.IsUpdating() {
			t.Errorf("misclassified as updating: %s", q)
		}
	}
}

// //a[…] selects per parent when the predicate consults the position,
// wherever in the predicate: fused into descendant::a[…] the four <a>
// would be numbered 1..4 and these answer 1 (xq's
// TestFuseDescendantSteps has the parse; pathfinder's TestFocusBoth the
// rows both engines serve — order by is the interpreter's alone).
func TestPositionKeptPerParent(t *testing.T) {
	e, st := newTestEngine(t)
	if err := st.LoadXML("d.xml", `<r><g><a n="1"/><a n="2"/></g><g><a n="3"/><a n="4"/></g></r>`); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{
		`not(if (position() = 1) then false() else true())`,
		`(position() cast as xs:string) = "1"`,
		`not(typeswitch (position()) case xs:integer return position() != 1 default return true())`,
		`(for $x in (1, 2) order by $x = position() descending return $x)[1] = 1`,
	} {
		if got := evalStr(t, e, `data(doc("d.xml")//a[`+pred+`]/@n)`); got != "1 3" {
			t.Errorf("//a[%s] = %q, want 1 3", pred, got)
		}
	}
}

func TestUpdateRejectedOutsideUpdatingContext(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`delete node doc("filmDB.xml")//film[1]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs}); err == nil {
		t.Fatal("update without CollectUpdates should be rejected")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	e, st := newTestEngine(t)
	snap := st.Snapshot()
	// concurrent update commits a 4th film
	c, _ := e.Compile(`insert node <film><name>X</name></film> into doc("filmDB.xml")/films`)
	_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
		t.Fatal(err)
	}
	// query against the snapshot still sees 3 (repeatable read, rule R'_Fr)
	c2, _ := e.Compile(`count(doc("filmDB.xml")//film)`)
	seq, _, err := e.Eval(c2, &EvalOptions{Docs: snap})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != "3" {
		t.Errorf("snapshot sees %s films, want 3", got)
	}
	// latest state sees 4 (rule R_Fr)
	if got := evalStr(t, e, `count(doc("filmDB.xml")//film)`); got != "4" {
		t.Errorf("latest sees %s films, want 4", got)
	}
}

func TestCallFunctionDirect(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`import module namespace f="films" at "http://x.example.org/film.xq"; 1`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := e.CallFunction(c, "films", "filmsByActor",
		[]xdm.Sequence{{xdm.String("Sean Connery")}}, &EvalOptions{Docs: e.docs})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Fatalf("got %d films", len(seq))
	}
}

// A request whose module URI matches no imported module falls back to
// the local name; with two candidates every call of the bulk must run the
// same one — the lowest module URI — and FunctionUpdating must describe
// that one, not "any candidate".
func TestCallResolvesOneFunctionForTheWholeRequest(t *testing.T) {
	reg := modules.NewRegistry()
	for uri, src := range map[string]string{
		"mod_a": `module namespace a = "mod_a"; declare function a:pick($x as xs:string) as xs:string { concat("a:", $x) };`,
		"mod_b": `module namespace b = "mod_b"; declare updating function b:pick($x as xs:string) { delete node doc("filmDB.xml")//film[name = $x] };`,
	} {
		if err := reg.Register(src, "http://x.example.org/"+uri+".xq"); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := newTestEngine(t)
	e.Modules = reg
	c, err := e.Compile(`
import module namespace b = "mod_b" at "http://x.example.org/mod_b.xq";
import module namespace a = "mod_a" at "http://x.example.org/mod_a.xq";
1`)
	if err != nil {
		t.Fatal(err)
	}
	calls := make([][]xdm.Sequence, 64)
	for i := range calls {
		calls[i] = []xdm.Sequence{{xdm.String("The Rock")}}
	}
	// map iteration order is drawn per range statement, so a resolver
	// that ranges per call would split this bulk between the two
	results, puls, err := e.CallBulk(c, "mod_renamed", "pick", calls, &EvalOptions{Docs: e.docs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if got := xdm.SerializeSequence(results[i]); got != "a:The Rock" || !puls[i].Empty() {
			t.Fatalf("call %d ran %q with %d pending updates, want a:pick", i, got, len(puls[i].Prims))
		}
	}
	if c.FunctionUpdating("mod_renamed", "pick", 1) {
		t.Error("FunctionUpdating(mod_renamed) = true, but the request runs the non-updating a:pick")
	}
	if !c.FunctionUpdating("mod_b", "pick", 1) || c.FunctionUpdating("mod_a", "pick", 1) {
		t.Error("an exact module URI must win over the fallback")
	}
	if seq, pul, err := e.CallFunction(c, "mod_b", "pick", calls[0], &EvalOptions{Docs: e.docs}); err != nil || len(seq) != 0 || pul.Empty() {
		t.Errorf("exact match b:pick: %v, %d items, pending updates empty=%v", err, len(seq), pul.Empty())
	}
	if _, _, err := e.CallFunction(c, "mod_renamed", "pick", nil, &EvalOptions{Docs: e.docs}); err == nil || !strings.Contains(err.Error(), "XPST0017") {
		t.Errorf("pick#0 does not exist: err = %v", err)
	}
}

func TestStatsCompileTimeRecorded(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`1+1`)
	if err != nil {
		t.Fatal(err)
	}
	if c.CompileTime <= 0 {
		t.Error("compile time not recorded")
	}
}

// noResults answers every Bulk RPC with no result sequences.
type noResults struct{}

func (noResults) CallBulk(string, *client.BulkRequest) ([]xdm.Sequence, error) { return nil, nil }

// An execute at whose Bulk RPC of one call comes back with a result
// count other than one raises an error instead of reading a missing
// result.
func TestExecuteAtExpectsOneResult(t *testing.T) {
	e, _ := newTestEngine(t)
	c, err := e.Compile(`import module namespace film="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y"} {film:filmsByActor("x")}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Eval(c, &EvalOptions{Docs: e.docs, RPC: noResults{}}); err == nil || !strings.Contains(err.Error(), "expected 1 result sequence, got 0") {
		t.Errorf("err = %v, want the result count", err)
	}
}
