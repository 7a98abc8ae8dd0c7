package wrapper

import (
	"strings"
	"testing"

	"xrpc/internal/modules"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

const funcsModule = `
module namespace func="functions";
declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
{ zero-or-one(doc($doc)//person[@id=$pid]) };
declare function func:echoVoid() { () };`

const personsDoc = `<site><people>
<person id="person0"><name>Alice</name></person>
<person id="person1"><name>Bob</name></person>
<person id="person2"><name>Carol</name></person>
</people></site>`

func newWrapper(t *testing.T) *Wrapper {
	t.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(funcsModule, "http://example.org/functions.xq"); err != nil {
		t.Fatal(err)
	}
	w := New(reg, nil)
	w.LoadText("xmark.xml", personsDoc)
	return w
}

// Figure 3: the generated query shape for getPerson.
func TestFigure3GeneratedQuery(t *testing.T) {
	req := &soap.Request{
		Module: "functions", Method: "getPerson", Arity: 2,
		Location: "http://example.org/functions.xq",
	}
	q := GenerateQuery(req, "/tmp/requestXXX.xml")
	for _, want := range []string{
		`import module namespace func = "functions" at "http://example.org/functions.xq";`,
		`declare namespace env = "http://www.w3.org/2003/05/soap-envelope";`,
		`declare namespace xrpc = "http://monetdb.cwi.nl/XQuery";`,
		`<env:Envelope`,
		`<xrpc:response xrpc:module="functions" xrpc:method="getPerson">`,
		`for $call in doc("/tmp/requestXXX.xml")//xrpc:call`,
		`let $param1 := xrpcw:n2s($call/xrpc:sequence[1])`,
		`let $param2 := xrpcw:n2s($call/xrpc:sequence[2])`,
		`return xrpcw:s2n(func:getPerson($param1, $param2))`,
	} {
		if !strings.Contains(q, want) {
			t.Errorf("generated query missing %q\n%s", want, q)
		}
	}
}

func execRequest(t *testing.T, w *Wrapper, req *soap.Request) []xdm.Sequence {
	t.Helper()
	raw := soap.EncodeRequest(req)
	results, _, stats, err := w.Execute(req, raw, nil, nil)
	if err != nil {
		t.Fatalf("wrapper execute: %v", err)
	}
	if stats.Compile <= 0 {
		t.Error("compile phase not recorded")
	}
	return results
}

func TestWrapperGetPersonSingle(t *testing.T) {
	w := newWrapper(t)
	req := &soap.Request{
		Module: "functions", Method: "getPerson", Arity: 2,
		Location: "http://example.org/functions.xq",
		Calls: [][]xdm.Sequence{
			{{xdm.String("xmark.xml")}, {xdm.String("person1")}},
		},
	}
	results := execRequest(t, w, req)
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	n := results[0][0].(*xdm.Node)
	if id, _ := n.Attr("id"); id != "person1" {
		t.Errorf("person = %s", xdm.SerializeNode(n))
	}
	if w.LastStats.TreeBuild <= 0 {
		t.Error("treebuild phase not recorded (source doc must be re-parsed)")
	}
}

// Bulk getPerson through the wrapper: the generated query's for-loop
// iterates over all calls — the selection becomes a join (§4).
func TestWrapperGetPersonBulk(t *testing.T) {
	w := newWrapper(t)
	var calls [][]xdm.Sequence
	ids := []string{"person2", "person0", "person1", "person0"}
	for _, id := range ids {
		calls = append(calls, []xdm.Sequence{{xdm.String("xmark.xml")}, {xdm.String(id)}})
	}
	req := &soap.Request{
		Module: "functions", Method: "getPerson", Arity: 2,
		Location: "http://example.org/functions.xq",
		Calls:    calls,
	}
	results := execRequest(t, w, req)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, id := range ids {
		n := results[i][0].(*xdm.Node)
		if got, _ := n.Attr("id"); got != id {
			t.Errorf("call %d: got %s, want %s", i, got, id)
		}
	}
}

func TestWrapperEchoVoid(t *testing.T) {
	w := newWrapper(t)
	var calls [][]xdm.Sequence
	for i := 0; i < 10; i++ {
		calls = append(calls, []xdm.Sequence{})
	}
	req := &soap.Request{
		Module: "functions", Method: "echoVoid", Arity: 0,
		Location: "http://example.org/functions.xq",
		Calls:    calls,
	}
	results := execRequest(t, w, req)
	if len(results) != 10 {
		t.Fatalf("results = %d", len(results))
	}
	for i, seq := range results {
		if len(seq) != 0 {
			t.Errorf("call %d: non-empty result %v", i, seq)
		}
	}
}

func TestWrapperMissingPerson(t *testing.T) {
	w := newWrapper(t)
	req := &soap.Request{
		Module: "functions", Method: "getPerson", Arity: 2,
		Location: "http://example.org/functions.xq",
		Calls: [][]xdm.Sequence{
			{{xdm.String("xmark.xml")}, {xdm.String("person999")}},
		},
	}
	results := execRequest(t, w, req)
	if len(results[0]) != 0 {
		t.Errorf("missing person should give empty sequence, got %v", results[0])
	}
}

func TestWrapperUnknownModule(t *testing.T) {
	w := newWrapper(t)
	req := &soap.Request{
		Module: "nope", Method: "f", Arity: 0, Location: "x",
		Calls: [][]xdm.Sequence{{}},
	}
	if _, _, _, err := w.Execute(req, soap.EncodeRequest(req), nil, nil); err == nil {
		t.Fatal("expected module load error")
	}
}

func TestWrapperNoFunctionCache(t *testing.T) {
	// Saxon-style: each request pays compile time again.
	w := newWrapper(t)
	req := &soap.Request{
		Module: "functions", Method: "echoVoid", Arity: 0,
		Location: "http://example.org/functions.xq",
		Calls:    [][]xdm.Sequence{{}},
	}
	execRequest(t, w, req)
	first := w.LastStats.Compile
	execRequest(t, w, req)
	second := w.LastStats.Compile
	if first <= 0 || second <= 0 {
		t.Errorf("both requests must pay compile time: %v, %v", first, second)
	}
}

func TestTypeswitchParsesInMarshalModule(t *testing.T) {
	reg := modules.NewRegistry()
	if err := reg.Register(PureMarshalModule, "urn:xrpc-marshal"); err != nil {
		t.Fatalf("pure marshal module does not parse: %v", err)
	}
}

// §4: n2s/s2n "can be implemented purely in XQuery" — the pure-XQuery
// marshaling mode must produce exactly the same results as the native
// one.
func TestPureXQueryMarshalEquivalence(t *testing.T) {
	mk := func(pure bool) []xdm.Sequence {
		w := newWrapper(t)
		w.PureXQueryMarshal = pure
		req := &soap.Request{
			Module: "functions", Method: "getPerson", Arity: 2,
			Location: "http://example.org/functions.xq",
			Calls: [][]xdm.Sequence{
				{{xdm.String("xmark.xml")}, {xdm.String("person1")}},
				{{xdm.String("xmark.xml")}, {xdm.String("person0")}},
				{{xdm.String("xmark.xml")}, {xdm.String("missing")}},
			},
		}
		return execRequest(t, w, req)
	}
	native := mk(false)
	pure := mk(true)
	if len(native) != len(pure) {
		t.Fatalf("result counts differ: %d vs %d", len(native), len(pure))
	}
	for i := range native {
		a := xdm.SerializeSequence(native[i])
		b := xdm.SerializeSequence(pure[i])
		if a != b {
			t.Errorf("call %d: native %q vs pure %q", i, a, b)
		}
	}
	// pure mode's generated query imports the marshal module
	w := newWrapper(t)
	w.PureXQueryMarshal = true
	req := &soap.Request{
		Module: "functions", Method: "echoVoid", Arity: 0,
		Location: "http://example.org/functions.xq",
		Calls:    [][]xdm.Sequence{{}},
	}
	execRequest(t, w, req)
	if !strings.Contains(w.LastQuery, `import module namespace xm = "urn:xrpc-marshal"`) {
		t.Errorf("generated query:\n%s", w.LastQuery)
	}
	if !strings.Contains(w.LastQuery, "xm:s2n(") {
		t.Errorf("generated query does not use pure s2n:\n%s", w.LastQuery)
	}
}

// The pure-XQuery n2s must return fresh fragments: a function navigating
// upward from a node parameter sees nothing (§2.2's guarantee).
func TestPureMarshalNodesAreFragments(t *testing.T) {
	reg := modules.NewRegistry()
	mod := `
module namespace up="up";
declare function up:parentCount($n as node()) as xs:integer
{ count($n/..) };`
	if err := reg.Register(mod, "http://example.org/up.xq"); err != nil {
		t.Fatal(err)
	}
	w := New(reg, nil)
	w.PureXQueryMarshal = true
	frag, _ := xdm.ParseFragment(`<wrapped><inner/></wrapped>`)
	req := &soap.Request{
		Module: "up", Method: "parentCount", Arity: 1,
		Location: "http://example.org/up.xq",
		Calls:    [][]xdm.Sequence{{{frag[0]}}},
	}
	results := execRequest(t, w, req)
	if got := xdm.SerializeSequence(results[0]); got != "0" {
		t.Errorf("parent count through pure n2s = %s, want 0 (fresh fragment)", got)
	}
}
