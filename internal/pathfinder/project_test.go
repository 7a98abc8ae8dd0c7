package pathfinder

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/wrapper"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// project_test.go holds call-by-projection (project.go) to its
// invariant: an answer is byte-identical whether the callee honours the
// projection a call carries (a native peer, a wrapper peer over a
// foreign engine) or ignores it (a peer that knows nothing of the
// attribute), and to the interpreter's, which sends none.

const projItems = `<items>
<item k="1" n="x"><a>1<b>ab</b></a><b z="1">b1</b><c><d>cd</d><a>ca</a></c>t<!--c--></item>
<item k="2"><b>b2</b><a><b>ab2</b><c>ac2</c></a><a/></item>
<item k="3"/>
</items>`

const projModule = `module namespace pj="projtest";
declare function pj:items() as node()* { doc("items.xml")/items/item };
declare function pj:item($k as xs:string) as node()* { doc("items.xml")/items/item[@k = $k] };`

// projRecorder is the loop-lifted engine's caller: it sends through the
// client and notes the projection of every request.
type projRecorder struct {
	cl   *client.Client
	sent []string
}

func (r *projRecorder) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	r.sent = append(r.sent, br.Projection)
	return r.cl.CallBulk(dest, br)
}

// projPeers serves data under module src at a native peer
// (xrpc://native), at a wrapper peer (xrpc://foreign) and at a native
// peer that ignores xrpc:projection (xrpc://ignoring), as one that does
// not know the attribute would.
func projPeers(t testing.TB, src, hint string, docs map[string]string) (*netsim.Network, *modules.Registry) {
	t.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(src, hint); err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(0, 0)
	st := store.New()
	w := wrapper.New(reg, nil)
	for name, text := range docs {
		if err := st.LoadXML(name, text); err != nil {
			t.Fatal(err)
		}
		w.LoadText(name, text)
	}
	native := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
	net.Register("xrpc://native", native)
	net.Register("xrpc://foreign", server.New(store.New(), reg, w))
	net.Register("xrpc://ignoring", netsim.StreamHandlerFunc(func(path string, body []byte) (io.ReadCloser, error) {
		req, err := soap.DecodeRequest(body)
		if err != nil {
			return nil, err
		}
		req.Projection = ""
		return native.HandleXRPC(path, soap.EncodeRequest(req))
	}))
	return net, reg
}

// everyWay runs query (its destination spelled DEST) on the loop-lifted
// engine against the native, the wrapper and the ignoring peer, and on
// the interpreter against the native peer; it fails unless all four
// answer, and answer the same. It returns the projection the native run
// sent with its first request, and the answer.
func everyWay(t *testing.T, net *netsim.Network, reg *modules.Registry, docs docres.DocResolver, query string) (projection, answer string) {
	t.Helper()
	dests := []string{"xrpc://native", "xrpc://foreign", "xrpc://ignoring"}
	outs := make([]string, len(dests)+1)
	var sent []string
	for i, dest := range dests {
		q := strings.ReplaceAll(query, "DEST", dest)
		rec := &projRecorder{cl: client.New(net)}
		c, err := Compile(q, reg)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, q)
		}
		seq, err := c.Eval(&ExecCtx{Docs: docs, Bulk: rec}, nil)
		if err != nil {
			t.Fatalf("eval at %s: %v\n%s", dest, err, q)
		}
		outs[i] = xdm.SerializeSequence(seq)
		if i == 0 {
			sent = rec.sent
		}
	}
	ie := interp.New(reg)
	ic, err := ie.Compile(strings.ReplaceAll(query, "DEST", "xrpc://native"))
	if err != nil {
		t.Fatal(err)
	}
	iSeq, _, err := ie.Eval(ic, &interp.EvalOptions{Docs: docs, RPC: client.New(net)})
	if err != nil {
		t.Fatalf("interp: %v\n%s", err, query)
	}
	outs[len(dests)] = xdm.SerializeSequence(iSeq)
	for i, dest := range dests[1:] {
		if outs[i+1] != outs[0] {
			t.Fatalf("answers differ\nquery: %s\nnative: %s\n%s: %s", query, outs[0], dest, outs[i+1])
		}
	}
	if outs[len(dests)] != outs[0] {
		t.Fatalf("answers differ\nquery: %s\nnative: %s\ninterp: %s", query, outs[0], outs[len(dests)])
	}
	if len(sent) == 0 {
		t.Fatalf("no request sent\nquery: %s", query)
	}
	return sent[0], outs[0]
}

// projUses are ways the query uses a result spelled V, each with the
// path it keeps ("" for an item-level use) or "refuse".
var projUses = []struct{ use, keeps string }{
	{`V/a`, "a"},
	{`V/a/b`, "a/b"},
	{`V/b/@z`, "b"},
	{`V/@k`, ""},
	{`V/a/text()`, "a"},
	{`V/c/descendant::a`, "c"},
	{`V/a/b[1]`, "a"},
	{`count(V)`, ""},
	{`exists(V)`, ""},
	{`if (empty(V)) then "none" else "some"`, ""},
	{`for $i in V where $i/c/d return string($i/@k)`, "c/d"},
	{`some $i in V satisfies $i/b = "b1"`, "b"},
	{`data(V)`, "refuse"},
	{`string-join(for $i in V return string($i), "|")`, "refuse"},
	{`<r>{V}</r>`, "refuse"},
	{`V`, "refuse"},
	{`V[@k = "1"]/a`, "refuse"},
	{`V/a[1]`, "refuse"},
	{`V//b`, "refuse"},
	{`V/*`, "refuse"},
	{`V/node()`, "refuse"},
	{`V/self::item`, "refuse"},
	{`V/a/..`, "refuse"},
	{`V/a/../b`, "refuse"},
	{`for $i in V return $i/a/parent::*/@k`, "refuse"},
	{`for $i in V return ($i is $i)`, "refuse"},
	{`count(root(V/a))`, "refuse"},
	{`tst:echo(V)/a`, "refuse"},
	{`V/pj:a`, "refuse"},
	{`count(V/a/b[exists(/c)])`, "refuse"},
	{`V/a/b[//d]`, "refuse"},
}

// projBindings bind the result of one execute at as V.
var projBindings = []string{
	`for $x in execute at {"DEST"} {pj:items()} return (USE)`,
	`let $x := execute at {"DEST"} {pj:items()} return (USE)`,
	`for $k in ("1", "2", "3", "4") let $x := execute at {"DEST"} {pj:item($k)} return (USE)`,
	`let $y := execute at {"DEST"} {pj:items()} let $x := $y return (USE)`,
	`(USE)`,
}

// TestProjectionDifferential draws queries that use an execute at's
// result in one or two ways, runs each every way (everyWay) and checks
// the projection the native run sent against what the uses keep.
func TestProjectionDifferential(t *testing.T) {
	net, reg := projPeers(t, projModule, "http://x.example.org/pj.xq", map[string]string{"items.xml": projItems})
	if err := reg.Register(testModule, "http://x.example.org/tst.xq"); err != nil {
		t.Fatal(err)
	}
	docs := storetest.Latest(t, store.New())
	r := rand.New(rand.NewSource(48))
	projected := 0
	for i := 0; i < 300; i++ {
		binding := projBindings[r.Intn(len(projBindings))]
		var uses []string
		var paths [][]string
		refused := false
		n, v := 1+r.Intn(2), "$x"
		if binding == `(USE)` {
			// one use: each spelled out execute at is a call of its own
			n, v = 1, `(execute at {"DEST"} {pj:items()})`
		}
		for ; n > 0; n-- {
			u := projUses[r.Intn(len(projUses))]
			uses = append(uses, strings.ReplaceAll(u.use, "V", v))
			switch u.keeps {
			case "refuse":
				refused = true
			case "":
			default:
				paths = append(paths, strings.Split(u.keeps, "/"))
			}
		}
		want := ""
		if !refused {
			want = xdm.NewProjection(paths).String()
			projected++
		}
		query := `import module namespace pj="projtest" at "http://x.example.org/pj.xq";
import module namespace tst="test" at "http://x.example.org/tst.xq";
` + strings.ReplaceAll(binding, "USE", strings.Join(uses, ", "))
		if got, _ := everyWay(t, net, reg, docs, query); got != want {
			t.Errorf("sent projection %q, want %q\nquery: %s", got, want, query)
		}
	}
	if projected < 50 {
		t.Fatalf("only %d of 300 queries carried a projection", projected)
	}
}

// q73 is the paper's distributed semi-join (Q7_3, §5), and
// qShardedSemiJoinData its ship-the-data-side variant
// (strategies.QDistributedSemiJoin and QShardedSemiJoinData, verbatim but
// for the destination).
const (
	q73 = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $ca := execute at {"DEST"} {b:Q_B3(string($p/@id))}
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`
	qShardedSemiJoinData = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $all := execute at {"DEST"} {b:Q_B1()}
let $ca := $all[buyer/@person = string($p/@id)]
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`
)

// TestProjectionPaperQueries: Q7_1, Q7_3 and the data-side sharded
// semi-join over XMark data, and the filmsByActor family, each answered
// the same every way, with the projection each should carry.
func TestProjectionPaperQueries(t *testing.T) {
	cfg := xmark.PaperConfig(0.02)
	cfg.Seed = 1
	net, reg := projPeers(t, `module namespace b = "functions_b";
declare function b:Q_B1() as node()* { doc("auctions.xml")//closed_auction };
declare function b:Q_B3($pid as xs:string) as node()* { doc("auctions.xml")//closed_auction[./buyer/@person = $pid] };`,
		"http://example.org/b.xq", map[string]string{"auctions.xml": xmark.GenerateAuctions(cfg)})
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		t.Fatal(err)
	}
	docs := storetest.Latest(t, st)
	for _, tc := range []struct{ name, query, want string }{
		{"Q7_1", strings.ReplaceAll(q71, "xrpc://B", "DEST"), "annotation buyer"},
		{"Q7_3", q73, "annotation"},
		{"QShardedSemiJoinData", qShardedSemiJoinData, ""},
	} {
		got, answer := everyWay(t, net, reg, docs, tc.query)
		if got != tc.want || !strings.Contains(answer, "<result>") {
			t.Errorf("%s sent projection %q, want %q; answered %.40q", tc.name, got, tc.want, answer)
		}
	}

	net, reg = projPeers(t, filmModule, "http://x.example.org/film.xq", map[string]string{"filmDB.xml": filmDBY})
	const imp = `import module namespace fm="films" at "http://x.example.org/film.xq";` + "\n"
	for _, tc := range []struct{ query, want string }{
		{`<films>{execute at {"DEST"} {fm:filmsByActor("Sean Connery")}}</films>`, ""},
		{`for $actor in ("Julie Andrews", "Sean Connery") return execute at {"DEST"} {fm:filmsByActor($actor)}`, ""},
		{`for $actor in ("Julie Andrews", "Sean Connery", "Gerard Depardieu")
		  return count(execute at {"DEST"} {fm:filmsByActor($actor)})`, "."},
		{`for $actor in ("Julie Andrews", "Sean Connery")
		  let $f := execute at {"DEST"} {fm:filmsByActor($actor)}
		  return if (exists($f)) then $actor else ()`, "."},
	} {
		if got, _ := everyWay(t, net, reg, docs, imp+tc.query); got != tc.want {
			t.Errorf("sent projection %q, want %q\nquery: %s", got, tc.want, tc.query)
		}
	}
}

// TestProjectionRefusals: a way up anywhere the query evaluates locally
// refuses every call — an upward axis, or a rooted path in a predicate,
// in a function it calls too (one it declares and never calls refuses
// nothing). A default element namespace refuses nothing: the parser
// records no such declaration, and names match as written.
func TestProjectionRefusals(t *testing.T) {
	net, reg := projPeers(t, projModule, "http://x.example.org/pj.xq", map[string]string{"items.xml": projItems})
	docs := storetest.Latest(t, store.New())
	const head = `import module namespace pj="projtest" at "http://x.example.org/pj.xq";` + "\n"
	for _, tc := range []struct{ prolog, body, want string }{
		{``, `for $x in execute at {"DEST"} {pj:items()} return $x/a`, "a"},
		{`declare function local:up($n) { $n/.. };` + "\n",
			`for $x in execute at {"DEST"} {pj:items()} return count(local:up($x/a))`, ""},
		{`declare function local:up($n) { $n/.. };` + "\n",
			`for $x in execute at {"DEST"} {pj:items()} return $x/a`, "a"},
		{``, `for $x in execute at {"DEST"} {pj:items()} return ($x/a, <a><b/></a>/b/..)`, ""},
		{``, `for $x in execute at {"DEST"} {pj:items()} return ($x/a, <a><b/></a>/b[/a])`, ""},
		{`declare default element namespace "urn:x";` + "\n",
			`for $x in execute at {"DEST"} {pj:items()} return $x/a`, "a"},
	} {
		if got, _ := everyWay(t, net, reg, docs, head+tc.prolog+tc.body); got != tc.want {
			t.Errorf("sent projection %q, want %q\nquery: %s%s", got, tc.want, tc.prolog, tc.body)
		}
	}
}
