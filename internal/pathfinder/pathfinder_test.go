package pathfinder

import (
	"io"
	"strings"
	"testing"

	"xrpc/internal/algebra"
	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

const filmDBY = `<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>`

const filmDBZ = `<films>
<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>
</films>`

const filmModule = `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`

const testModule = `
module namespace tst="test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { $x };`

type fixture struct {
	net    *netsim.Network
	st     *store.Store
	docs   *storetest.Resolver // st's latest state
	reg    *modules.Registry
	ySrv   *server.Server
	zSrv   *server.Server
	yExec  *server.NativeExecutor
	yStore func() *store.Store
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	for _, m := range []string{filmModule, testModule} {
		if err := reg.Register(m, "http://x.example.org/film.xq"); err != nil {
			t.Fatal(err)
		}
	}
	mkPeer := func(uri, xml string) (*server.Server, *server.NativeExecutor, *store.Store) {
		st := store.New()
		if err := st.LoadXML("filmDB.xml", xml); err != nil {
			t.Fatal(err)
		}
		eng := interp.New(reg)
		exec := server.NewNativeExecutor(eng, reg)
		srv := server.New(st, reg, exec)
		net.Register(uri, srv)
		return srv, exec, st
	}
	ySrv, yExec, ySt := mkPeer("xrpc://y.example.org", filmDBY)
	zSrv, _, _ := mkPeer("xrpc://z.example.org", filmDBZ)
	localStore := store.New()
	if err := localStore.LoadXML("filmDB.xml", filmDBY); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		net: net, st: localStore, docs: storetest.Latest(t, localStore), reg: reg, ySrv: ySrv, zSrv: zSrv, yExec: yExec,
		yStore: func() *store.Store { return ySt },
	}
}

func (f *fixture) eval(t *testing.T, query string, vars map[string]xdm.Sequence) xdm.Sequence {
	t.Helper()
	return f.evalCtx(t, query, vars, &ExecCtx{Docs: f.docs, Bulk: client.New(f.net)})
}

func (f *fixture) evalCtx(t *testing.T, query string, vars map[string]xdm.Sequence, ec *ExecCtx) xdm.Sequence {
	t.Helper()
	c, err := Compile(query, f.reg)
	if err != nil {
		t.Fatalf("pathfinder compile: %v\nquery: %s", err, query)
	}
	seq, err := c.Eval(ec, vars)
	if err != nil {
		t.Fatalf("pathfinder eval: %v\nquery: %s", err, query)
	}
	return seq
}

// evalBoth runs a query on both engines and requires identical
// serialized results — the loop-lifted engine must agree with the
// reference interpreter.
func (f *fixture) evalBoth(t *testing.T, query string) string {
	t.Helper()
	pf := f.eval(t, query, nil)
	c, err := interp.New(f.reg).Compile(query)
	if err != nil {
		t.Fatalf("interp compile: %v", err)
	}
	ref, _, err := c.Eval(&interp.EvalOptions{Docs: f.docs, RPC: client.New(f.net)})
	if err != nil {
		t.Fatalf("interp eval: %v", err)
	}
	got, want := xdm.SerializeSequence(pf), xdm.SerializeSequence(ref)
	if got != want {
		t.Errorf("engines disagree on %s\n  pathfinder: %s\n  interp:     %s", query, got, want)
	}
	return got
}

func TestBasicExpressions(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`1 + 2`,
		`(1,2,3)`,
		`(1 to 5)`,
		`2 * 3 + 4`,
		`10 idiv 4`,
		`-(5)`,
		`"a"`,
		`()`,
		`concat("a","b","c")`,
		`1 < 2`,
		`"x" eq "x"`,
		`(1,2,3) = 3`,
		`true() and false()`,
		`true() or false()`,
		`not(1=2)`,
		`count((1,2,3))`,
		`sum((1,2,3))`,
		`string(42)`,
		`if (1 < 2) then "y" else "n"`,
		`"42" cast as xs:integer`,
		`xs:integer("7") + 1`,
		`some $x in (1,2,3) satisfies $x gt 2`,
		`every $x in (1,2,3) satisfies $x gt 0`,
		`some $a in (1,2), $b in ($a, 5) satisfies $a + $b = 7`,
		`every $a in (1,2), $b in (1 to $a) satisfies $b le $a`,
		`min((3,1,2))`,
		`max((3,1,2))`,
		`avg((2,4))`,
		`distinct-values((1,2,1))`,
		`string-join(("a","b"),"-")`,
		`contains("hello","ell")`,
		`string-length("abc")`,
		`empty(())`,
		`exists((1))`,
		`reverse((1,2,3))`,
		`subsequence((1,2,3,4),2,2)`,
	}
	for _, q := range queries {
		f.evalBoth(t, q)
	}
	// XQuery 1.0's answers (a result, or an error code) on both engines:
	// unary binds tighter than cast, castable and instance of; a cast
	// keeps the "?" of its type and casts one item per iteration; unary
	// + and - take one atomized number
	ref := interp.New(f.reg)
	for _, tc := range []struct{ query, want string }{
		{`-3 cast as xs:string`, `-3`},
		{`let $x := 3 return -$x instance of xs:integer`, `true`},
		{`-"3" castable as xs:integer`, `XPTY0004`},
		{`() cast as xs:integer`, `XPTY0004`},
		{`() cast as xs:integer?`, ``},
		{`xs:integer(())`, ``},
		{`() castable as xs:integer?`, `true`},
		{`() castable as xs:integer`, `false`},
		{`(1,2) cast as xs:string`, `XPTY0004`},
		{`(1,2) castable as xs:string?`, `false`},
		{`for $i in (0, 1) return (1 to $i) cast as xs:string?`, `1`},
		{`for $i in (1, 2) return (1 to $i) cast as xs:string`, `XPTY0004`},
		{`-(0.0e0)`, `-0`},
		{`-(0.0)`, `0`},
		{`-<a>x</a>`, `FORG0001`},
		{`+"a"`, `XPTY0004`},
		{`+<a>3</a>`, `3`},
		{`for $x in (1, 2.5, <a>4</a>, ()) return -$x`, `-1 -2.5 -4`},
	} {
		pfSeq, pfErr, iSeq, iErr := bothEngines(f, ref, tc.query, &ExecCtx{Docs: f.docs}, nil)
		if got, want := outcome(pfSeq, pfErr), outcome(iSeq, iErr); got != tc.want || want != tc.want {
			t.Errorf("%s\n  pathfinder: %s\n  interp:     %s\n  want:       %s", tc.query, got, want, tc.want)
		}
	}
}

func TestFLWORBoth(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`for $x in (1,2,3) return $x * 2`,
		`for $x in (1,2,3) where $x gt 1 return $x`,
		`for $x in (1,2) for $y in (10,20) return $x + $y`,
		`for $x in (1,2), $y in (10,20) return $x + $y`,
		`let $y := 5 return $y + 1`,
		`for $x at $i in ("a","b","c") return $i`,
		`for $local:x at $local:i in ("a","b") return ($local:i, $local:x)`,
		`for $x in (1,2) let $z := ($x, $x*10) return count($z)`,
		`for $x in (1 to 3) return if ($x mod 2 eq 0) then "even" else "odd"`,
		`for $x in () return $x`,
		`for $x in (1,2) return for $y in (1 to $x) return $y`,
	}
	for _, q := range queries {
		f.evalBoth(t, q)
	}
}

// Q5 from §3.1: the canonical loop-lifting example; verify both result
// and the intermediate representation tables.
func TestLoopLifting_Q5(t *testing.T) {
	f := newFixture(t)
	got := f.evalBoth(t, `
for $x in (10,20)
return for $y in (100,200)
       let $z := ($x,$y)
       return $z`)
	if got != "10 100 10 200 20 100 20 200" {
		t.Errorf("Q5 = %q", got)
	}
}

// The §3.1 representation invariant: in the inner scope of Q5 there are
// four iterations; $x, $y and $z have the loop-lifted tables shown in
// the paper.
func TestLoopLifting_Q5_Tables(t *testing.T) {
	// reconstruct the inner-scope tables through the algebra directly
	x := algebra.Lit([]string{"iter", "pos", "item"},
		[]xdm.Item{xdm.Integer(1), xdm.Integer(1), xdm.Integer(10)},
		[]xdm.Item{xdm.Integer(2), xdm.Integer(1), xdm.Integer(10)},
		[]xdm.Item{xdm.Integer(3), xdm.Integer(1), xdm.Integer(20)},
		[]xdm.Item{xdm.Integer(4), xdm.Integer(1), xdm.Integer(20)},
	)
	y := algebra.Lit([]string{"iter", "pos", "item"},
		[]xdm.Item{xdm.Integer(1), xdm.Integer(1), xdm.Integer(100)},
		[]xdm.Item{xdm.Integer(2), xdm.Integer(1), xdm.Integer(200)},
		[]xdm.Item{xdm.Integer(3), xdm.Integer(1), xdm.Integer(100)},
		[]xdm.Item{xdm.Integer(4), xdm.Integer(1), xdm.Integer(200)},
	)
	// $z = ($x, $y): union with branch tags, renumbered per iter
	acc := algebra.NewTable("iter", "pos", "item", "branch")
	for ri := 0; ri < x.Len(); ri++ {
		acc.Append(x.Item(ri, 0), x.Item(ri, 1), x.Item(ri, 2), xdm.Integer(0))
	}
	for ri := 0; ri < y.Len(); ri++ {
		acc.Append(y.Item(ri, 0), y.Item(ri, 1), y.Item(ri, 2), xdm.Integer(1))
	}
	ranked := algebra.RowNum(acc, "newpos", []string{"branch", "pos"}, "iter")
	z := algebra.Project(ranked, "iter", "pos:newpos", "item")
	sorted := algebra.SortBy(z, "iter", "pos")
	want := [][3]int64{
		{1, 1, 10}, {1, 2, 100},
		{2, 1, 10}, {2, 2, 200},
		{3, 1, 20}, {3, 2, 100},
		{4, 1, 20}, {4, 2, 200},
	}
	if sorted.Len() != len(want) {
		t.Fatalf("z has %d rows", sorted.Len())
	}
	for i, w := range want {
		if sorted.Int(i, 0) != w[0] || sorted.Int(i, 1) != w[1] || sorted.Int(i, 2) != w[2] {
			t.Errorf("row %d = %v, want %v", i, sorted.Row(i), w)
		}
	}
}

func TestPathsBoth(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`count(doc("filmDB.xml")//film)`,
		`doc("filmDB.xml")//name[../actor="Sean Connery"]`,
		`doc("filmDB.xml")/films/film[1]/name`,
		`doc("filmDB.xml")/films/film[last()]/name`,
		`string(doc("filmDB.xml")//film[2]/actor)`,
		`count(doc("filmDB.xml")//film[actor="Sean Connery"])`,
		`for $f in doc("filmDB.xml")//film return string($f/name)`,
		`doc("filmDB.xml")//name[position()=1]`,
		`(doc("filmDB.xml")//name)[2]`,
		`doc("filmDB.xml")//actor[.="Gerard Depardieu"]/../name`,
		`for $f in doc("filmDB.xml")//film where $f/actor = "Sean Connery" return $f/name`,
	}
	for _, q := range queries {
		f.evalBoth(t, q)
	}
}

// TestFocusBoth: position() and last() mean the focus of the nearest
// enclosing predicate wherever they stand in it. The parser must not
// fuse //a[…] into descendant::a[…] when the predicate consults the
// position below an if, a cast or a typeswitch (the first group: 1 3 per
// parent, 1 when fused; order by, the fourth node kind the fusion check
// once skipped, is the interpreter's alone), and the loop-lifted engine
// serves them as the focus variables under any node (the second group,
// which it once refused with "needs the context position").
func TestFocusBoth(t *testing.T) {
	f := newFixture(t)
	if err := f.st.LoadXML("d.xml", `<r><g><a n="1"/><a n="2"/></g><g><a n="3"/><a n="4"/></g></r>`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ pred, want string }{
		{`not(if (position() = 1) then false() else true())`, "1 3"},
		{`(position() cast as xs:string) = "1"`, "1 3"},
		{`not(typeswitch (position()) case xs:integer return position() != 1 default return true())`, "1 3"},
		{`not(fn:position() != fn:last())`, "2 4"},
	} {
		if got := f.evalBoth(t, `data(doc("d.xml")//a[`+tc.pred+`]/@n)`); got != tc.want {
			t.Errorf("//a[%s] = %q, want %q", tc.pred, got, tc.want)
		}
	}
	for _, tc := range []struct{ pred, want string }{
		{`if (position() = 1) then true() else false()`, "1 3"},
		{`-position() = -2`, "2 4"},
		{`some $x in (1, 5) satisfies $x = position()`, "1 3"},
		{`every $x in (1, 2) satisfies $x <= last()`, "1 2 3 4"},
		{`exists((position())[. = 1])`, "1 3"},
		{`(position(), 7) = last()`, "2 4"},
		{`for $i in 2 return position() = $i`, "2 4"},
		{`(1 to last())[position() = last()] = position()`, "2 4"},
		{`@n = (3, 4)[position()]`, "3 4"}, // the inner predicate's own position
		{`../a[position() = last()]/@n = @n`, "2 4"},
		{`0`, ""},
		{`last()`, "2 4"},
		{`position() + 1`, ""},
	} {
		if got := f.evalBoth(t, `data(doc("d.xml")//g/a[`+tc.pred+`]/@n)`); got != tc.want {
			t.Errorf("//g/a[%s] = %q, want %q", tc.pred, got, tc.want)
		}
		// a filter expression opens the same focus, counted per iteration
		f.evalBoth(t, `for $g in doc("d.xml")//g return data(($g/a, $g/a)[`+tc.pred+`]/@n)`)
	}
}

// TestOneStepBoth pins what taking every axis with xdm.Step changed for
// the loop-lifted engine, and what the step itself got wrong from an
// attribute: an attribute's following axis starts with its owner's
// content, its preceding axis stops at its owner, it has no siblings;
// and a positional predicate on a reverse axis counts in axis order
// (nearest first), where the staircase step counted in document order.
func TestOneStepBoth(t *testing.T) {
	f := newFixture(t)
	const r = `let $r := <r><a/><e id="1"><c/><d/></e><z/></r> return $r/e/@id/`
	for _, tc := range []struct{ query, want string }{
		{r + `following::node()`, `<c/><d/><z/>`},
		{r + `preceding::node()`, `<a/>`},
		{r + `preceding-sibling::node()`, ``},
		{r + `following-sibling::node()`, ``},
		{`doc("filmDB.xml")//film[3]/preceding-sibling::film[1]/name`, `<name>Goldfinger</name>`},
		{`doc("filmDB.xml")//film[3]/preceding::name[1]`, `<name>Goldfinger</name>`},
		{`string(doc("filmDB.xml")//film[3]/name/ancestor::*[1]/actor)`, `Gerard Depardieu`},
	} {
		if got := f.evalBoth(t, tc.query); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.query, got, tc.want)
		}
	}
}

func TestConstructorsBoth(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`<a/>`,
		`<a x="1">t</a>`,
		`<a>{1+1}</a>`,
		`<a>{(1,2,3)}</a>`,
		`<a b="{1+1}"/>`,
		`<films>{doc("filmDB.xml")//name[../actor="Sean Connery"]}</films>`,
		`for $x in (1,2) return <n v="{$x}">{$x * 10}</n>`,
		`text {"hi"}`,
	}
	for _, q := range queries {
		f.evalBoth(t, q)
	}
}

func TestUserFunctionInlining(t *testing.T) {
	f := newFixture(t)
	got := f.evalBoth(t, `
declare function local:double($n as xs:integer) as xs:integer { $n * 2 };
for $x in (1,2,3) return local:double($x)`)
	if got != "2 4 6" {
		t.Errorf("got %q", got)
	}
	// recursion must be rejected at compile time
	_, err := Compile(`
declare function local:loop($n as xs:integer) as xs:integer { local:loop($n) };
local:loop(1)`, f.reg)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursion error = %v", err)
	}
}

func TestModuleFunctionInlining(t *testing.T) {
	f := newFixture(t)
	got := f.evalBoth(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
fm:filmsByActor("Sean Connery")`)
	if got != "<name>The Rock</name><name>Goldfinger</name>" {
		t.Errorf("got %q", got)
	}
}

// Q1 executed by the loop-lifted engine.
func TestQ1Bulk(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
<films> {
  execute at {"xrpc://y.example.org"}
  {fm:filmsByActor("Sean Connery")}
} </films>`, nil)
	got := xdm.SerializeSequence(seq)
	want := "<films><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q1 = %s", got)
	}
}

// Q2: the loop-lifted engine sends ONE bulk request for the whole loop —
// the central claim of §3.2.
func TestQ2SingleBulkRequest(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
<films> {
  for $actor in ("Julie Andrews", "Sean Connery")
  let $dst := "xrpc://y.example.org"
  return execute at {$dst} {fm:filmsByActor($actor)}
} </films>`, nil)
	got := xdm.SerializeSequence(seq)
	want := "<films><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q2 = %s", got)
	}
	if f.ySrv.ServedRequests != 1 {
		t.Errorf("y served %d requests, want 1 (Bulk RPC)", f.ySrv.ServedRequests)
	}
	if f.ySrv.ServedCalls != 2 {
		t.Errorf("y served %d calls, want 2", f.ySrv.ServedCalls)
	}
}

// Q3: two peers, one bulk request each, results re-united in query
// order (Figure 1).
func TestQ3TwoBulkRequests(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
<films> {
  for $actor in ("Julie Andrews", "Sean Connery")
  for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
  return execute at {$dst} {fm:filmsByActor($actor)}
} </films>`, nil)
	got := xdm.SerializeSequence(seq)
	want := "<films><name>Sound Of Music</name><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q3 = %s", got)
	}
	if f.ySrv.ServedRequests != 1 || f.zSrv.ServedRequests != 1 {
		t.Errorf("requests served: y=%d z=%d, want 1 each", f.ySrv.ServedRequests, f.zSrv.ServedRequests)
	}
}

// Figure 1: the intermediate map/req/msg/res tables for the
// multi-destination example. The two peers are called concurrently; the
// tables are fixed while the requests are built, so every run traces
// the same ones.
func TestFigure1Tables(t *testing.T) {
	f := newFixture(t)
	run := func() (*Trace, string) {
		trace := &Trace{}
		ec := &ExecCtx{Docs: f.docs, Bulk: client.New(f.net), Trace: trace}
		f.evalCtx(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
for $actor in ("Julie Andrews", "Sean Connery")
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {fm:filmsByActor($actor)}`, nil, ec)
		var b strings.Builder
		for _, pt := range trace.PerPeer {
			b.WriteString(pt.Peer + "\n" + pt.Map.String())
			for _, req := range pt.Req {
				b.WriteString(req.String())
			}
			b.WriteString(pt.Msg.String() + pt.Res.String())
		}
		return trace, b.String() + trace.Result.String()
	}
	trace, first := run()
	for i := 1; i < 20; i++ {
		if _, again := run(); again != first {
			t.Fatalf("run %d traced different tables:\n%s\nfirst run:\n%s", i, again, first)
		}
	}

	if len(trace.PerPeer) != 2 {
		t.Fatalf("traced %d peers, want 2", len(trace.PerPeer))
	}
	y := trace.PerPeer[0]
	if y.Peer != "xrpc://y.example.org" {
		t.Fatalf("first peer = %s", y.Peer)
	}
	// map_y: iters 1 and 3 map to iterp 1 and 2 (paper Figure 1)
	if y.Map.Len() != 2 {
		t.Fatalf("map_y rows = %d", y.Map.Len())
	}
	if y.Map.Int(0, 0) != 1 || y.Map.Int(0, 1) != 1 ||
		y.Map.Int(1, 0) != 3 || y.Map.Int(1, 1) != 2 {
		t.Errorf("map_y =\n%s", y.Map)
	}
	// req_y parameter table: iterp 1 = Julie Andrews, iterp 2 = Sean Connery
	req := y.Req[0]
	if req.Len() != 2 {
		t.Fatalf("req_y rows = %d", req.Len())
	}
	if req.Item(0, 2).StringValue() != "Julie Andrews" || req.Item(1, 2).StringValue() != "Sean Connery" {
		t.Errorf("req_y =\n%s", req)
	}
	// msg_y: The Rock, Goldfinger at iterp 2 (Sean Connery on y)
	if y.Msg.Len() != 2 {
		t.Fatalf("msg_y rows = %d:\n%s", y.Msg.Len(), y.Msg)
	}
	if y.Msg.Int(0, 0) != 2 || y.Msg.Item(0, 2).StringValue() != "The Rock" {
		t.Errorf("msg_y =\n%s", y.Msg)
	}
	// res_y mapped back to iter 3
	if y.Res.Int(0, 0) != 3 {
		t.Errorf("res_y =\n%s", y.Res)
	}
	// z: Sound of Music at iter 2 (Julie Andrews on z)
	z := trace.PerPeer[1]
	if z.Msg.Len() != 1 || z.Res.Int(0, 0) != 2 {
		t.Errorf("z trace: msg=\n%s res=\n%s", z.Msg, z.Res)
	}
	// final result: iters 2, 3 with correct items
	final := algebra.SortBy(trace.Result, "iter", "pos")
	if final.Len() != 3 {
		t.Fatalf("result rows = %d", final.Len())
	}
	if final.Int(0, 0) != 2 || final.Item(0, 2).StringValue() != "Sound Of Music" {
		t.Errorf("result =\n%s", final)
	}
}

// Q6 from §3.2: two execute-at calls in a sequence constructor become
// two Bulk RPCs, each carrying both loop iterations (out-of-order
// processing).
func TestQ6OutOfOrderBulk(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `
import module namespace tst="test" at "http://x.example.org/film.xq";
for $name in ("Julie", "Sean")
let $a := concat($name, "-A")
let $b := concat($name, "-B")
return (
  execute at {"xrpc://y.example.org"} {tst:echo($a)},
  execute at {"xrpc://y.example.org"} {tst:echo($b)} )`, nil)
	got := xdm.SerializeSequence(seq)
	// query order preserved in the result
	if got != "Julie-A Julie-B Sean-A Sean-B" {
		t.Errorf("Q6 = %q", got)
	}
	// but only 2 requests were sent (one per execute-at site), not 4
	if f.ySrv.ServedRequests != 2 {
		t.Errorf("y served %d requests, want 2", f.ySrv.ServedRequests)
	}
	if f.ySrv.ServedCalls != 4 {
		t.Errorf("y served %d calls, want 4", f.ySrv.ServedCalls)
	}
}

// One-at-a-time mode: same results, one request per iteration (Table 2's
// comparison mechanism).
func TestOneAtATimeMode(t *testing.T) {
	f := newFixture(t)
	ec := &ExecCtx{Docs: f.docs, Bulk: client.New(f.net), OneAtATime: true}
	seq := f.evalCtx(t, `
import module namespace tst="test" at "http://x.example.org/film.xq";
for $i in (1 to 10)
return execute at {"xrpc://y.example.org"} {tst:echoVoid()}`, nil, ec)
	if len(seq) != 0 {
		t.Errorf("echoVoid result = %v", seq)
	}
	if f.ySrv.ServedRequests != 10 {
		t.Errorf("y served %d requests, want 10 (one-at-a-time)", f.ySrv.ServedRequests)
	}
	// each call's result lands at its own iteration
	seq = f.evalCtx(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
for $actor in ("Sean Connery", "Julie Andrews", "Gerard Depardieu")
return count(execute at {"xrpc://y.example.org"} {fm:filmsByActor($actor)})`, nil, ec)
	if got := xdm.SerializeSequence(seq); got != "2 0 1" {
		t.Errorf("one-at-a-time per-actor counts = %q, want \"2 0 1\"", got)
	}
	if f.ySrv.ServedRequests != 13 {
		t.Errorf("y served %d requests, want 13 (3 more, one per call)", f.ySrv.ServedRequests)
	}
	// bulk mode: 1 request
	f2 := newFixture(t)
	ec2 := &ExecCtx{Docs: f2.docs, Bulk: client.New(f2.net)}
	f2.evalCtx(t, `
import module namespace tst="test" at "http://x.example.org/film.xq";
for $i in (1 to 10)
return execute at {"xrpc://y.example.org"} {tst:echoVoid()}`, nil, ec2)
	if f2.ySrv.ServedRequests != 1 {
		t.Errorf("y served %d requests, want 1 (bulk)", f2.ySrv.ServedRequests)
	}
}

// The semi-join pattern: execute at with a loop-dependent parameter.
func TestLoopDependentParameter(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `
import module namespace fm="films" at "http://x.example.org/film.xq";
for $actor in ("Sean Connery", "Julie Andrews", "Gerard Depardieu")
return count(execute at {"xrpc://y.example.org"} {fm:filmsByActor($actor)})`, nil)
	if got := xdm.SerializeSequence(seq); got != "2 0 1" {
		t.Errorf("per-actor counts = %q", got)
	}
	if f.ySrv.ServedRequests != 1 {
		t.Errorf("y served %d requests, want 1", f.ySrv.ServedRequests)
	}
}

func TestExternalVariables(t *testing.T) {
	f := newFixture(t)
	seq := f.eval(t, `for $i in (1 to $x) return $i * $i`,
		map[string]xdm.Sequence{"x": {xdm.Integer(4)}})
	if got := xdm.SerializeSequence(seq); got != "1 4 9 16" {
		t.Errorf("got %q", got)
	}
}

func TestCompileErrors(t *testing.T) {
	f := newFixture(t)
	bad := []string{
		`for $x in (1,2) order by $x return $x`, // unsupported: order by
		`unknown:fn(1)`,
	}
	for _, q := range bad {
		if _, err := Compile(q, f.reg); err == nil {
			t.Errorf("%s: expected compile error", q)
		}
	}
	// unknown variables are assumed external and fail at run time
	c, err := Compile(`$undefined`, f.reg)
	if err != nil {
		t.Fatalf("external-variable compile: %v", err)
	}
	if _, err := c.Eval(&ExecCtx{Docs: f.docs}, nil); err == nil {
		t.Error("$undefined: expected runtime error")
	}
}

func TestFunctionCacheReuse(t *testing.T) {
	f := newFixture(t)
	c, err := Compile(`for $i in (1 to 3) return $i`, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	// a compiled plan is reusable (the function cache stores these)
	for i := 0; i < 3; i++ {
		seq, err := c.Eval(&ExecCtx{Docs: f.docs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := xdm.SerializeSequence(seq); got != "1 2 3" {
			t.Fatalf("run %d: %q", i, got)
		}
	}
	if c.CompileTime <= 0 {
		t.Error("compile time not recorded")
	}
}

func TestEmptyDestinationSkipsCall(t *testing.T) {
	f := newFixture(t)
	// iterations with empty destinations make no calls
	seq := f.eval(t, `
import module namespace tst="test" at "http://x.example.org/film.xq";
for $d in ("xrpc://y.example.org")
return execute at {$d} {tst:echo("hi")}`, nil)
	if got := xdm.SerializeSequence(seq); got != "hi" {
		t.Errorf("got %q", got)
	}
}

func TestUpdatingCallOverBulkRPC(t *testing.T) {
	f := newFixture(t)
	upd := `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string, $actor as xs:string)
{ insert node <film><name>{$name}</name><actor>{$actor}</actor></film> into doc("filmDB.xml")/films };`
	if err := f.reg.Register(upd, "http://x.example.org/upd.xq"); err != nil {
		t.Fatal(err)
	}
	f.eval(t, `
import module namespace u="upd" at "http://x.example.org/upd.xq";
for $n in ("A", "B")
return execute at {"xrpc://y.example.org"} {u:addFilm($n, "X")}`, nil)
	// rule R_Fu: applied immediately (no queryID); both inserts in 1 request
	if f.ySrv.ServedRequests != 1 {
		t.Errorf("y served %d requests, want 1", f.ySrv.ServedRequests)
	}
	res, err := soap.DecodeResponse(mustHandle(t, f.ySrv, &soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("X")}}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results[0]) != 2 {
		t.Errorf("films by X after bulk update = %d, want 2", len(res.Results[0]))
	}
}

func mustHandle(t *testing.T, s *server.Server, req *soap.Request) []byte {
	t.Helper()
	rc, err := s.HandleXRPC("/xrpc", soap.EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTypeswitchBoth(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`typeswitch (5) case xs:integer return "int" default return "other"`,
		`for $x in (1, "a", 2.5, <e/>)
		 return typeswitch ($x)
		        case xs:integer return "i"
		        case xs:string return "s"
		        case element() return "e"
		        default return "d"`,
		`typeswitch (()) case empty-sequence() return "empty" default return "full"`,
		`for $x in (1 to 4)
		 return typeswitch ($x mod 2)
		        case $even as xs:integer return $even + 10
		        default return 0`,
		`"42" castable as xs:integer`,
		`for $s in ("1", "x", "3") return $s castable as xs:integer`,
		`5 instance of xs:integer`,
		`for $x in (1, "a") return $x instance of xs:string`,
	}
	for _, q := range queries {
		f.evalBoth(t, q)
	}
}

// q71 is the paper's predicate push-down (Q7_1, §5): B ships every
// closed_auction and the query peer joins them with its persons.
const q71 = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person,
    $ca in execute at {"xrpc://B"} { b:Q_B1() }
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`

// newQ71 compiles q71 over generated XMark data: persons.xml at the query
// peer, auctions.xml behind an in-process peer B. run evaluates it once
// and returns the number of results.
func newQ71(tb testing.TB, cfg xmark.Config) (run func(ec *ExecCtx) int) {
	tb.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(`module namespace b = "functions_b";
declare function b:Q_B1() as node()* { doc("auctions.xml")//closed_auction };`, "http://example.org/b.xq"); err != nil {
		tb.Fatal(err)
	}
	stA, stB := store.New(), store.New()
	if err := stA.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		tb.Fatal(err)
	}
	if err := stB.LoadXML("auctions.xml", xmark.GenerateAuctions(cfg)); err != nil {
		tb.Fatal(err)
	}
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://B", server.New(stB, reg, server.NewNativeExecutor(interp.New(reg), reg)))
	c, err := Compile(q71, reg)
	if err != nil {
		tb.Fatal(err)
	}
	return func(ec *ExecCtx) int {
		ec.Docs, ec.Bulk = storetest.Latest(tb, stA), client.New(net)
		seq, err := c.Eval(ec, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return len(seq)
	}
}

// shipped is what execute at hands the engine for seq: every node a
// fresh fragment of its own, as the response decoder builds them.
func shipped(t *testing.T, seq xdm.Sequence) xdm.Sequence {
	t.Helper()
	resp, err := soap.DecodeResponse(soap.EncodeResponse(&soap.Response{Results: []xdm.Sequence{seq}}))
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results[0]
}

// TestShippedSubtreesBothEngines: Q7_1, and the same join spelled as a
// filter (strategies.QShardedSemiJoinData, verbatim), read one key path
// and one child from each shipped closed_auction and one attribute from
// each person; both engines step into the fragments the decoder built
// and must serialize the same result.
func TestShippedSubtreesBothEngines(t *testing.T) {
	cfg := xmark.PaperConfig(0.02)
	cfg.Seed = 1
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		t.Fatal(err)
	}
	auctions, err := xdm.ParseDocument("auctions.xml", xmark.GenerateAuctions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var closed xdm.Sequence
	for _, ca := range xdm.Step(auctions, xdm.AxisDescendant, xdm.NodeTest{Name: "closed_auction"}) {
		closed = append(closed, ca)
	}
	if len(closed) < cfg.Matches {
		t.Fatalf("generated %d closed auctions", len(closed))
	}
	f := newFixture(t)
	if err := f.reg.Register(`module namespace b = "functions_b";
declare function b:Q_B1() as node()* { doc("auctions.xml")//closed_auction };`, "http://example.org/b.xq"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, query string }{
		{"Q7_1", q71},
		{"QShardedSemiJoinData", `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $all := execute at {"xrpc://cluster"} {b:Q_B1()}
let $ca := $all[buyer/@person = string($p/@id)]
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`},
	} {
		ec := &ExecCtx{Docs: storetest.Latest(t, st), Bulk: &callRecorder{reply: shipped(t, closed)}}
		pfSeq, pfErr, iSeq, iErr := bothEngines(f, interp.New(f.reg), tc.query, ec, &callRecorder{reply: shipped(t, closed)})
		if pfErr != nil || iErr != nil {
			t.Fatalf("%s: pathfinder err %v, interp err %v", tc.name, pfErr, iErr)
		}
		if got, want := xdm.SerializeSequence(pfSeq), xdm.SerializeSequence(iSeq); got != want || len(pfSeq) == 0 {
			t.Fatalf("%s: %d results, the interpreter has %d; serializations equal: %v", tc.name, len(pfSeq), len(iSeq), got == want)
		}
	}
}

// TestJoinAllocationsDoNotScaleWithProduct: Q7_1 against a fixed 256
// auctions with a constant number of matches allocates for its two sides,
// not for their product — eight times the persons must cost less than
// twice the allocations (the cross product costs 5.6 times).
func TestJoinAllocationsDoNotScaleWithProduct(t *testing.T) {
	allocs := func(persons int) float64 {
		run := newQ71(t, xmark.Config{Persons: persons, ClosedAuctions: 256, Matches: 4, AnnotationWords: 20, Seed: 1})
		var js JoinStats
		if n := run(&ExecCtx{Joins: &js}); n != 4 || js.Hashed != 1 || js.Pairs != 4 {
			t.Fatalf("%d persons: %d results, join stats %+v; want 4 results from one hashed join", persons, n, js)
		}
		return testing.AllocsPerRun(5, func() { run(&ExecCtx{}) })
	}
	small, large := allocs(8), allocs(64)
	t.Logf("allocations per evaluation: %.0f at 8 persons, %.0f at 64", small, large)
	if large >= 2*small {
		t.Errorf("allocations grew %.1fx from 8 to 64 persons (%.0f -> %.0f): the join is paying for the product",
			large/small, small, large)
	}
}

// BenchmarkLiftedJoin_Q71 is the query peer's whole evaluation of Q7_1 at
// the end-to-end benchmark's pushdown_scan size (30 persons, 585
// auctions, 6 matches), peer B in process: the layer-level before/after
// of the join rule.
func BenchmarkLiftedJoin_Q71(b *testing.B) {
	cfg := xmark.PaperConfig(0.12)
	cfg.Seed = 1
	run := newQ71(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := run(&ExecCtx{}); n != cfg.Matches {
			b.Fatalf("%d results, want %d", n, cfg.Matches)
		}
	}
}
