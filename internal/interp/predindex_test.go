package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xrpc/internal/docres"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
)

func bigPersonStore(t *testing.T, n int) *store.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><age>%d</age></person>`, i, 20+i%50)
	}
	b.WriteString("</people>")
	st := store.New()
	if err := st.LoadXML("people.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	return st
}

// The predicate index must return exactly what row-at-a-time evaluation
// returns, across repeated probes — also where the probe of a nested
// predicate reads that predicate's own context item through the function
// library, under any prefix: evaluated once against the outer item, it
// would compare every person's @id with the group's string value.
func TestPredIndexMatchesNaive(t *testing.T) {
	st := bigPersonStore(t, 100)
	var g strings.Builder
	g.WriteString("<r><g>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&g, `<a n="a"/>`)
	}
	g.WriteString("a</g></r>")
	if err := st.LoadXML("groups.xml", g.String()); err != nil {
		t.Fatal(err)
	}
	run := func(query string, disable bool) string {
		e := &testEngine{Engine: New(nil), docs: storetest.Latest(t, st)}
		e.DisablePredIndex = disable
		c, err := e.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := e.Eval(c, &EvalOptions{Docs: e.docs})
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(seq)
	}
	for _, tc := range []struct{ query, want string }{
		{`for $i in (0 to 99)
let $pid := concat("p", string($i))
return count(doc("people.xml")//person[@id=$pid])`, strings.TrimSuffix(strings.Repeat("1 ", 100), " ")},
		// the 20 <a n="a"/> have the string value "", their group "a"
		{`count(doc("groups.xml")//g[a[@n = fn:string()]])`, "0"},
		{`count(doc("groups.xml")//g[a[@n = string()]])`, "0"},
		{`count(doc("groups.xml")//g[a[fn:normalize-space() = @n]])`, "0"},
		{`count(doc("groups.xml")//g[a[@n = fn:name()]])`, "1"},
		{`count(doc("groups.xml")//g[a[@n = string-join((fn:string(), ""), "")]])`, "0"},
		{`count(doc("groups.xml")//g[a[@n = string-join((fn:string(..), ""), "")]])`, "1"},
	} {
		withIdx, naive := run(tc.query, false), run(tc.query, true)
		if withIdx != naive {
			t.Errorf("%s: index changed semantics:\nindexed: %s\nnaive:   %s", tc.query, withIdx, naive)
		}
		if naive != tc.want {
			t.Errorf("%s = %s, want %s", tc.query, naive, tc.want)
		}
	}
}

// The paper's selection functions, written out here so that the package
// imports no workload: Q_B3 (§5), getPerson/setCity (the routed cluster
// workload), plus the shapes around them — the operands swapped and the
// parameter untyped, so that (), multi-item and non-string probes reach
// the predicate instead of failing the function conversion rules.
const bulkAuctionModule = `
module namespace b = "functions_b";
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };
declare function b:Q_B3any($pid as item()*) as node()*
{ doc("auctions.xml")//closed_auction[$pid = ./buyer/@person] };`

const bulkPersonModule = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`

// bulkStore holds auctions.xml (120 closed auctions over 40 buyers, so
// keys repeat; every tenth has no buyer and every seventh a second one),
// persons.xml (60 persons) and the three-film filmDB.xml.
func bulkStore(t testing.TB) *store.Store {
	t.Helper()
	var a, p strings.Builder
	a.WriteString("<site><closed_auctions>")
	for i := 0; i < 120; i++ {
		a.WriteString("<closed_auction>")
		if i%10 != 9 {
			fmt.Fprintf(&a, `<buyer person="person%d"/>`, (i*7)%40)
		}
		if i%7 == 0 {
			fmt.Fprintf(&a, `<buyer person="person%d"/>`, (i*3)%40)
		}
		fmt.Fprintf(&a, "<price>%d</price></closed_auction>", i)
	}
	a.WriteString("</closed_auctions></site>")
	p.WriteString("<site><people>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&p, `<person id="person%d"><address><city>City%d</city></address></person>`, i, i)
	}
	p.WriteString("</people></site>")
	st := store.New()
	for name, xml := range map[string]string{"auctions.xml": a.String(), "persons.xml": p.String(), "filmDB.xml": filmDB} {
		if err := st.LoadXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// bulkOutcome is everything a caller of a bulk can observe.
type bulkOutcome struct {
	results, puls []string
	err           string
}

// oneAtATime is the reference: N independent CallFunction calls on an
// engine without the index, stopping at the first error.
func oneAtATime(t *testing.T, st *store.Store, module, uri, local string, calls [][]xdm.Sequence) bulkOutcome {
	t.Helper()
	e := New(nil)
	e.DisablePredIndex = true
	c, err := e.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	var out bulkOutcome
	for _, args := range calls {
		seq, pul, err := e.CallFunction(c, uri, local, args, &EvalOptions{Docs: storetest.Latest(t, st)})
		if err != nil {
			return bulkOutcome{err: err.Error()}
		}
		out.results = append(out.results, xdm.SerializeSequence(seq))
		out.puls = append(out.puls, pul.Describe())
	}
	return out
}

func bulk(t *testing.T, st *store.Store, module, uri, local string, calls [][]xdm.Sequence, workers int) (bulkOutcome, Stats) {
	t.Helper()
	e := New(nil)
	c, err := e.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	seqs, puls, err := e.CallBulk(c, uri, local, calls, &EvalOptions{Docs: storetest.Latest(t, st), Workers: workers, Stats: &stats})
	if err != nil {
		return bulkOutcome{err: err.Error()}, stats
	}
	var out bulkOutcome
	for i := range seqs {
		out.results = append(out.results, xdm.SerializeSequence(seqs[i]))
		out.puls = append(out.puls, puls[i].Describe())
	}
	return out, stats
}

// One evaluation per request must be indistinguishable from N
// one-at-a-time evaluations without the index: results, pending update
// lists and the error of the first failing call, on random bulks with
// duplicate keys, misses, (), multi-item probes and a non-string probe.
// A memo keyed so that two calls with different arguments share a probe
// result fails here on the duplicate-key and miss calls.
func TestCallBulkMatchesOneAtATime(t *testing.T) {
	st := bulkStore(t)
	str := func(s string) []xdm.Sequence { return []xdm.Sequence{{xdm.String(s)}} }
	key := func(rng *rand.Rand) string {
		if rng.Intn(5) == 0 {
			return "nobody" // miss
		}
		return fmt.Sprintf("person%d", rng.Intn(45)) // repeats; 40..44 miss in auctions
	}
	fns := []struct {
		name, module, uri, local string
		arg                      func(rng *rand.Rand) []xdm.Sequence
		odd                      [][]xdm.Sequence // (), multi-item, non-string
	}{
		{"Q_B3", bulkAuctionModule, "functions_b", "Q_B3",
			func(rng *rand.Rand) []xdm.Sequence { return str(key(rng)) },
			[][]xdm.Sequence{{{}}, {{xdm.String("person1"), xdm.String("person2")}}, {{xdm.Integer(7)}}}},
		{"Q_B3any", bulkAuctionModule, "functions_b", "Q_B3any",
			func(rng *rand.Rand) []xdm.Sequence { return str(key(rng)) },
			[][]xdm.Sequence{{{}}, {{xdm.String("person1"), xdm.Untyped("person8"), xdm.String("person1")}}, {{xdm.Integer(7)}}}},
		{"getPerson", bulkPersonModule, "functions_p", "getPerson",
			func(rng *rand.Rand) []xdm.Sequence { return str(key(rng)) },
			[][]xdm.Sequence{{{}}, {{xdm.String("person1"), xdm.String("person2")}}, {{xdm.Boolean(true)}}}},
		{"setCity", bulkPersonModule, "functions_p", "setCity",
			func(rng *rand.Rand) []xdm.Sequence {
				return []xdm.Sequence{{xdm.String(key(rng))}, {xdm.String(fmt.Sprintf("Town%d", rng.Intn(3)))}}
			},
			[][]xdm.Sequence{{{}, {xdm.String("x")}}, {{xdm.String("person1")}, {xdm.Integer(1)}}}},
		{"filmsByActor", filmModule, "films", "filmsByActor",
			func(rng *rand.Rand) []xdm.Sequence {
				return str([]string{"Sean Connery", "Gerard Depardieu", "Nobody"}[rng.Intn(3)])
			},
			[][]xdm.Sequence{{{}}}},
	}
	for _, fn := range fns {
		for _, n := range []int{1, 2, 16, 64, 512} {
			// without, then with, the calls that the typed functions reject:
			// the second bulk compares the choice of the first error
			for _, withOdd := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(n)))
				calls := make([][]xdm.Sequence, n)
				for i := range calls {
					calls[i] = fn.arg(rng)
				}
				if withOdd {
					for _, odd := range fn.odd {
						calls[rng.Intn(n)] = odd
					}
				}
				want := oneAtATime(t, st, fn.module, fn.uri, fn.local, calls)
				for _, workers := range []int{1, 4} {
					got, _ := bulk(t, st, fn.module, fn.uri, fn.local, calls, workers)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s x%d odd=%v workers=%d:\n bulk:          %.300v\n one at a time: %.300v",
							fn.name, n, withOdd, workers, got, want)
					}
				}
			}
		}
	}
}

// What the index accepts and what it must refuse, asserted on the
// build/probe/fallback counters of a 64-call bulk (never by timing);
// each result is also checked against the row-at-a-time reference.
func TestPredIndexShapes(t *testing.T) {
	st := bulkStore(t)
	var r strings.Builder
	r.WriteString("<r>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&r, `<e k="0%d"/><e k="%d"/>`, i, i) // numeric-looking keys, zero-padded twins
	}
	r.WriteString("</r>")
	if err := st.LoadXML("r.xml", r.String()); err != nil {
		t.Fatal(err)
	}
	const n = 64
	person := func(i int) []xdm.Sequence { return []xdm.Sequence{{xdm.String(fmt.Sprintf("person%d", i%50))}} }
	cases := []struct {
		name, body string
		arg        func(i int) []xdm.Sequence
		indexed    bool
	}{
		{"./a/@b = $v", `doc("auctions.xml")//closed_auction[./buyer/@person = $v]`, person, true},
		{"$v = ./a/@b", `doc("auctions.xml")//closed_auction[$v = ./buyer/@person]`, person, true},
		{"a/@b = $v", `doc("auctions.xml")//closed_auction[buyer/@person = $v]`, person, true},
		{"@id = $v", `doc("persons.xml")//person[@id = $v]`, person, true},
		{"child step, not fused", `doc("persons.xml")/site/people/person[@id = $v]`, person, true},
		{"numeric-looking keys, string probe", `doc("r.xml")//e[@k = $v]`,
			func(i int) []xdm.Sequence { return []xdm.Sequence{{xdm.String(fmt.Sprint(i % 25))}} }, true},
		{"numeric-looking keys, numeric probe", `doc("r.xml")//e[@k = $v]`,
			func(i int) []xdm.Sequence { return []xdm.Sequence{{xdm.Integer(i % 25)}} }, false},
		{"position()", `doc("persons.xml")//person[position() = $v]`,
			func(i int) []xdm.Sequence { return []xdm.Sequence{{xdm.Integer(i)}} }, false},
		{"and position()", `doc("persons.xml")//person[@id = $v and position() < 30]`, person, false},
		{"nested predicate in the key path", `doc("auctions.xml")//closed_auction[./buyer[1]/@person = $v]`, person, false},
		{"parent axis in the key path", `doc("auctions.xml")//buyer[../buyer/@person = $v]`, person, false},
		{"second predicate", `doc("auctions.xml")//closed_auction[price][./buyer/@person = $v]`, person, false},
		{"filter expression", `(doc("auctions.xml")//closed_auction)[./buyer/@person = $v]`, person, false},
		{"under 16 candidates", `doc("filmDB.xml")//film[actor = $v]`,
			func(int) []xdm.Sequence { return []xdm.Sequence{{xdm.String("Sean Connery")}} }, false},
		{"constructed candidates", `(<r>{doc("persons.xml")//person}</r>)//person[@id = $v]`, person, false},
	}
	for _, tc := range cases {
		module := `module namespace s = "shapes";
declare function s:f($v as item()*) as node()* { ` + tc.body + ` };`
		calls := make([][]xdm.Sequence, n)
		for i := range calls {
			calls[i] = tc.arg(i)
		}
		got, stats := bulk(t, st, module, "shapes", "f", calls, 1)
		if want := oneAtATime(t, st, module, "shapes", "f", calls); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: bulk differs from one at a time:\n bulk:          %.300v\n one at a time: %.300v", tc.name, got, want)
		}
		wantStats := Stats{IndexFallbacks: n}
		if tc.indexed {
			wantStats = Stats{IndexBuilds: 1, IndexProbes: n}
		}
		if stats != wantStats {
			t.Errorf("%s: builds/probes/fallbacks = %d/%d/%d, want %d/%d/%d", tc.name,
				stats.IndexBuilds, stats.IndexProbes, stats.IndexFallbacks,
				wantStats.IndexBuilds, wantStats.IndexProbes, wantStats.IndexFallbacks)
		}
	}
}

// The tables keep nothing for trees the resolver did not hand out: a
// bulk of a function that constructs and navigates a tree per call must
// not grow them per call, neither an evaluation's own tables nor, over
// a snapshot, its version's.
func TestEvalMemoRetainsOnlyResolverDocuments(t *testing.T) {
	st := bulkStore(t)
	e := New(nil)
	c, err := e.CompileModule(`module namespace s = "shapes";
declare function s:f($v as xs:string) as node()*
{ (<r>{doc("persons.xml")//person}</r>)//person[@id = $v]/address/city };`)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	defer snap.Release()
	for name, docs := range map[string]docres.DocResolver{"own": storetest.Latest(t, st), "version": snap} {
		memo := newEvalMemo(docs)
		f := c.ResolveFunc("shapes", "f", 1)
		sizes := map[int]int{}
		for i := 0; i < 32; i++ {
			ctx := e.newDynCtx(c, &EvalOptions{}, memo, &indexCounters{})
			if seq, err := ctx.callBound(f, []xdm.Sequence{{xdm.String("person3")}}); err != nil || len(seq) != 1 {
				t.Fatalf("%s, call %d: %v, %d items", name, i, err, len(seq))
			}
			sizes[memo.own.size()+memo.shared.size()]++
		}
		if len(sizes) != 1 {
			t.Errorf("%s tables grew with the call count: entries after each of 32 calls %v", name, sizes)
		}
	}
}

// Numeric probes must NOT use the string-keyed index ("07" vs 7).
func TestPredIndexNumericFallback(t *testing.T) {
	st := store.New()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "<e k=\"0%d\"/>", i) // zero-padded untyped keys
	}
	b.WriteString("</r>")
	if err := st.LoadXML("r.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	e := &testEngine{Engine: New(nil), docs: storetest.Latest(t, st)}
	c, err := e.Compile(`
for $i in (1 to 20)
return count(doc("r.xml")//e[@k=$i])`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := e.Eval(c, &EvalOptions{Docs: e.docs})
	if err != nil {
		t.Fatal(err)
	}
	// untyped "01".."019" compare NUMERICALLY with integer probes
	// (1..19 hit; 20 misses) — a string-keyed index would find nothing,
	// so these hits prove the numeric fallback
	got := xdm.SerializeSequence(seq)
	want := strings.TrimSpace(strings.Repeat("1 ", 19) + "0")
	if got != want {
		t.Errorf("numeric comparison through index broke: %s", got)
	}
}

// Predicates that consult position() or the context must not be indexed.
func TestPredIndexSkipsContextDependent(t *testing.T) {
	st := bigPersonStore(t, 30)
	e := &testEngine{Engine: New(nil), docs: storetest.Latest(t, st)}
	c, err := e.Compile(`count(doc("people.xml")//person[position() = last()])`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := e.Eval(c, &EvalOptions{Docs: e.docs})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != "1" {
		t.Errorf("position()=last() = %s", got)
	}
}

func TestPurePathClassification(t *testing.T) {
	pure := []string{`@id`, `buyer/@person`, `name`}
	impure := []string{`../x`, `doc("d")//x`, `a[1]/b`}
	for _, src := range pure {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := e.(*xq.Path)
		if !ok {
			t.Fatalf("%s parsed as %T", src, e)
		}
		if !purePath(p) {
			t.Errorf("%s should be pure", src)
		}
	}
	for _, src := range impure {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := e.(*xq.Path); ok && purePath(p) {
			t.Errorf("%s should not be pure", src)
		}
	}
}

// TestContextFreeClassification pins the accepted set of probe
// expressions: it may not widen, and a focus-reading built-in is bound
// under the fn: prefix too.
func TestContextFreeClassification(t *testing.T) {
	free := []string{`$x`, `"s"`, `1 + 2`, `concat($a, "x")`, `doc("d")//p`, `()`, `1.5`, `1e0`, `-$x`,
		`($a, "b")`, `$a = $b and $c`, `$x cast as xs:string`, `fn:string($x)`, `xs:string($x)`, `local:f($x)`,
		`$x/a[$y = "k"]`, `name($x)`, `root($x)`}
	bound := []string{`.`, `position()`, `last()`, `string()`, `@id`, `name`,
		`fn:position()`, `fn:last()`, `fn:string()`, `fn:number()`, `fn:string-length()`, `fn:normalize-space()`,
		`fn:name()`, `fn:local-name()`, `fn:root()`, `number()`, `string-length()`, `normalize-space()`, `name()`,
		`local-name()`, `root()`, `concat("a", fn:string())`, `string-join((fn:string(), ""), "")`,
		`$x/a[. = "k"]`, `$x[fn:position() = 1]`, `-fn:last()`, `/a`,
		// never accepted as a probe, focus or not
		`for $i in $x return $i`, `some $i in $x satisfies $i`, `if ($x) then 1 else 2`, `<a/>`, `<a>{$x}</a>`,
		`element {"a"} {$x}`, `attribute {"a"} {$x}`, `text {$x}`, `execute at {"p"} {f:g($x)}`, `delete node $x`, `put($x, "u")`, `fn:put($x, "u")`,
		`$x instance of xs:string`, `$x castable as xs:string`, `1 to 3`, `$a | $b`,
		`typeswitch ($x) case xs:string return 1 default return 2`}
	for _, src := range free {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if !contextFree(e) {
			t.Errorf("%s should be context-free", src)
		}
	}
	for _, src := range bound {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if contextFree(e) {
			t.Errorf("%s should be context-dependent", src)
		}
	}
}

// indexableShape runs once per predicate application on the callee: for
// the probes the paper's selection functions have — a variable, a
// literal — classifying the predicate must not allocate.
func TestIndexableShapeAllocatesNothing(t *testing.T) {
	for _, src := range []string{`@id = $pid`, `$pid = ./buyer/@person`, `@id = "p1"`, `@id = 7`} {
		pred, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if keyPath, _ := indexableShape(pred); keyPath == nil {
			t.Fatalf("%s is not indexable", src)
		}
		if n := testing.AllocsPerRun(100, func() { indexableShape(pred) }); n != 0 {
			t.Errorf("indexableShape(%s) allocates %v times", src, n)
		}
	}
}

func TestMoreBuiltins(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`empty(())`:                      "true",
		`empty((1))`:                     "false",
		`exists(())`:                     "false",
		`boolean((1))`:                   "true",
		`data(<a>5</a>)`:                 "5",
		`node-name(<q/>)`:                "q",
		`string(root(<a><b/></a>))`:      "",
		`trace((1,2), "label")`:          "1 2",
		`string-value(<a>x<b>y</b></a>)`: "xy",
		`substring("hello", 0)`:          "hello",
		`substring("hello", 2, 100)`:     "ello",
		`string-join((), "-")`:           "",
		`normalize-space("")`:            "",
		`sum((), 99)`:                    "99",
		`avg(())`:                        "",
		`min(())`:                        "",
		`max(())`:                        "",
		`number(())`:                     "NaN",
		`abs(-2.5)`:                      "2.5",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalOrderByMultiKey(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
for $p in ((3, "b"), (1, "c"))
return $p`)
	_ = got
	got = evalStr(t, e, `
for $x in (3, 1, 2, 1)
order by $x, $x * -1 descending
return $x`)
	if got != "1 1 2 3" {
		t.Errorf("multi-key order = %q", got)
	}
}

func TestEvalInstanceOfMore(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`"x" instance of xs:string`:                     "true",
		`"x" instance of xs:integer`:                    "false",
		`(1,2) instance of xs:integer`:                  "false",
		`() instance of xs:integer?`:                    "true",
		`3.5 instance of xs:decimal`:                    "false", // 3.5 parses as decimal literal -> Decimal: true actually
		`<a/> instance of node()`:                       "true",
		`<a/> instance of document-node()`:              "false",
		`doc("filmDB.xml") instance of document-node()`: "true",
		`(<a/>, 1) instance of item()+`:                 "true",
	}
	// fix the decimal expectation: 3.5 IS xs:decimal
	cases[`3.5 instance of xs:decimal`] = "true"
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestUpdateListDescribe(t *testing.T) {
	e, st := newTestEngine(t)
	_ = st
	c, err := e.Compile(`(
  insert node <x/> into doc("filmDB.xml")/films,
  delete node doc("filmDB.xml")//film[1],
  put(<y/>, "y.xml"))`)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := e.Eval(c, &EvalOptions{Docs: e.docs, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	desc := pul.Describe()
	for _, want := range []string{"insertInto", "delete", "put", "filmDB.xml", `uri="y.xml"`} {
		if !strings.Contains(desc, want) {
			t.Errorf("describe missing %q:\n%s", want, desc)
		}
	}
	// kind names
	for k := xquf.PrimInsertInto; k <= xquf.PrimPut; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSequenceTypeOfDecimalLiteral(t *testing.T) {
	e, _ := newTestEngine(t)
	if got := evalStr(t, e, `3.5 instance of xs:decimal`); got != "true" {
		t.Errorf("3.5 instance of xs:decimal = %s", got)
	}
}

func TestEvalTypeswitch(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`typeswitch (5) case xs:integer return "int" default return "other"`:                                    "int",
		`typeswitch ("x") case xs:integer return "int" case xs:string return "str" default return "other"`:      "str",
		`typeswitch (<a/>) case element() return "elem" default return "other"`:                                 "elem",
		`typeswitch (3.5) case xs:integer return "int" default return "dec"`:                                    "dec",
		`typeswitch ((1,2)) case xs:integer return "one" case xs:integer+ return "many" default return "other"`: "many",
		`typeswitch (()) case empty-sequence() return "empty" default return "other"`:                           "empty",
		`typeswitch (7) case $i as xs:integer return $i * 2 default return 0`:                                   "14",
		`typeswitch ("q") case xs:integer return 1 default $d return concat($d, "!")`:                           "q!",
		`typeswitch (doc("filmDB.xml")) case document-node() return "doc" default return "no"`:                  "doc",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// size is the number of steps and indexes t keeps (0 for nil).
func (t *memoTables) size() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.steps) + len(t.preds)
}

// ------------------------------------------- tables of a store version

const personsModule = `module namespace p = "persons";
declare function p:getPerson($id as xs:string) as node()*
{ doc("people.xml")//person[@id = $id] };`

// getPerson calls p:getPerson once over snap, returning the serialized
// result and the call's index counters.
func getPerson(t *testing.T, c *xqrt.Compiled, snap *store.Snapshot, id string) (string, Stats) {
	t.Helper()
	var stats Stats
	seq, _, err := New(nil).CallFunction(c, "persons", "getPerson", []xdm.Sequence{{xdm.String(id)}}, &EvalOptions{Docs: snap, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	return xdm.SerializeSequence(seq), stats
}

func compilePersons(t *testing.T) *xqrt.Compiled {
	t.Helper()
	c, err := New(nil).CompileModule(personsModule)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Requests at one version share its scan and index: the first builds,
// every later one, from any compilation of the text, only probes.
func TestVersionTablesServeLaterRequests(t *testing.T) {
	st := bigPersonStore(t, 40)
	c := compilePersons(t)
	for i := 0; i < 3; i++ {
		snap := st.Snapshot()
		got, stats := getPerson(t, c, snap, "p7")
		snap.Release()
		if want := `<person id="p7"><age>27</age></person>`; got != want {
			t.Fatalf("request %d: %s, want %s", i, got, want)
		}
		builds := 0
		if i == 0 {
			builds = 1
		}
		if stats.IndexBuilds != builds || stats.IndexProbes != 1 {
			t.Errorf("request %d: builds/probes = %d/%d, want %d/1", i, stats.IndexBuilds, stats.IndexProbes, builds)
		}
	}
}

// A structural commit starts the next version with no tables: after an
// in-place commit that inserts a person with a new id, the next request
// finds it. An index carried over from the version before would answer
// the old rows.
func TestInPlaceCommitIsSeenByTheNextIndex(t *testing.T) {
	st := bigPersonStore(t, 40)
	c := compilePersons(t)
	snap := st.Snapshot()
	if got, _ := getPerson(t, c, snap, "p99"); got != "" {
		t.Fatalf("p99 before the insert: %s", got)
	}
	snap.Release()

	own := st.Snapshot()
	pul := collect(t, own, `insert node <person id="p99"><age>1</age></person> into doc("people.xml")/people`)
	if err := xquf.ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	own.Release()
	if in, cl := st.Commits(); in != 1 || cl != 0 {
		t.Fatalf("commits in place %d, cloned %d, want 1 and 0", in, cl)
	}

	snap = st.Snapshot()
	defer snap.Release()
	got, stats := getPerson(t, c, snap, "p99")
	if want := `<person id="p99"><age>1</age></person>`; got != want {
		t.Errorf("p99 after the insert: %q, want %s", got, want)
	}
	if stats.IndexBuilds != 1 {
		t.Errorf("the new version built %d indexes, want 1", stats.IndexBuilds)
	}
}

// A snapshot held across a commit keeps answering from its own
// version's index, and the commit's version from its own.
func TestHeldSnapshotKeepsItsIndex(t *testing.T) {
	st := bigPersonStore(t, 40)
	c := compilePersons(t)
	held := st.Snapshot()
	defer held.Release()
	old := `<person id="p3"><age>23</age></person>`
	if got, _ := getPerson(t, c, held, "p3"); got != old {
		t.Fatalf("p3: %s, want %s", got, old)
	}

	own := st.Snapshot()
	pul := collect(t, own, `replace value of node doc("people.xml")//person[@id = "p3"]/@id with "p3x"`)
	if err := xquf.ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	own.Release()

	if got, stats := getPerson(t, c, held, "p3"); got != old || stats.IndexBuilds != 0 {
		t.Errorf("held snapshot after the commit: %q with %d builds, want %s from its index", got, stats.IndexBuilds, old)
	}
	snap := st.Snapshot()
	defer snap.Release()
	if got, _ := getPerson(t, c, snap, "p3"); got != "" {
		t.Errorf("p3 at the new version: %s, want none", got)
	}
	if got, _ := getPerson(t, c, snap, "p3x"); got != `<person id="p3x"><age>23</age></person>` {
		t.Errorf("p3x at the new version: %q", got)
	}
}

// A version's tables are keyed by what a step reads, not by the AST that
// spelled it: recompiling the module (a plan-cache eviction, a module
// re-registration) and calling again adds no entry.
func TestRecompiledModuleReusesVersionTables(t *testing.T) {
	st := bigPersonStore(t, 40)
	snap := st.Snapshot()
	defer snap.Release()
	size := func() int {
		return newEvalMemo(snap).shared.size()
	}
	getPerson(t, compilePersons(t), snap, "p1")
	want := size()
	if want == 0 {
		t.Fatal("the version's tables are empty after a request")
	}
	for i := 0; i < 100; i++ {
		if _, stats := getPerson(t, compilePersons(t), snap, fmt.Sprintf("p%d", i%40)); stats.IndexBuilds != 0 {
			t.Fatalf("compilation %d built an index", i)
		}
	}
	if got := size(); got != want {
		t.Errorf("100 recompilations grew the version's tables from %d to %d entries", want, got)
	}
}

// Concurrent readers at one version (run with -race) build its index
// exactly once between them, and all read the same answers.
func TestConcurrentReadersBuildOneIndex(t *testing.T) {
	const readers, calls = 8, 16
	st := bigPersonStore(t, 200)
	c := compilePersons(t)
	var builds atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap := st.Snapshot()
			defer snap.Release()
			var stats Stats
			var args [][]xdm.Sequence
			for i := 0; i < calls; i++ {
				args = append(args, []xdm.Sequence{{xdm.String(fmt.Sprintf("p%d", (r*calls+i)%200))}})
			}
			seqs, _, err := New(nil).CallBulk(c, "persons", "getPerson", args, &EvalOptions{Docs: snap, Workers: 2, Stats: &stats})
			if err != nil {
				errs <- err
				return
			}
			for i, seq := range seqs {
				if len(seq) != 1 || seq[0].(*xdm.Node).Attrs[0].Value != args[i][0][0].StringValue() {
					errs <- fmt.Errorf("reader %d call %d: %s", r, i, xdm.SerializeSequence(seq))
					return
				}
			}
			builds.Add(int64(stats.IndexBuilds))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent readers built %d indexes, want 1", readers, n)
	}
}

// Indexed readers beside in-place commits (run with -race): every commit
// sets person p5's age to its version's number through the index of the
// committer's own version, and every reader, probing its version's
// index, finds exactly that number.
func TestIndexedReadersBesideInPlaceCommits(t *testing.T) {
	const commits, readers = 200, 3
	st := bigPersonStore(t, 40)
	base := st.Version()
	c := compilePersons(t)
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				age := "25"
				if n := snap.Version() - base; n > 0 {
					age = fmt.Sprint(n)
				}
				seq, _, err := New(nil).CallFunction(c, "persons", "getPerson", []xdm.Sequence{{xdm.String("p5")}}, &EvalOptions{Docs: snap})
				got := xdm.SerializeSequence(seq)
				snap.Release()
				if want := `<person id="p5"><age>` + age + `</age></person>`; err != nil || got != want {
					errs <- fmt.Errorf("version %d: %s (%v), want %s", snap.Version(), got, err, want)
					return
				}
			}
		}()
	}
	for i := 1; i <= commits; i++ {
		own := st.Snapshot()
		pul := collect(t, own, fmt.Sprintf(`replace value of node doc("people.xml")//person[@id = "p5"]/age with "%d"`, i))
		if err := xquf.ApplyUpdates(st, pul, own); err != nil {
			t.Fatal(err)
		}
		own.Release()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if in, _ := st.Commits(); in == 0 {
		t.Error("no commit wrote in place")
	}
}
