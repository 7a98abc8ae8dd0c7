package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
	"xrpc/internal/xquf"
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

const updModule = `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string, $actor as xs:string)
{ insert node <film><name>{$name}</name><actor>{$actor}</actor></film> into doc("filmDB.xml")/films };`

const testModule = `
module namespace tst="test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { $x };`

// peer bundles one XRPC peer: store, registry, engine, server.
type peer struct {
	uri    string
	store  *store.Store
	reg    *modules.Registry
	engine *interp.Engine
	server *Server
	exec   *NativeExecutor
}

func newPeer(t testing.TB, uri, filmXML string, net *netsim.Network) *peer {
	t.Helper()
	st := store.New()
	if filmXML != "" {
		if err := st.LoadXML("filmDB.xml", filmXML); err != nil {
			t.Fatal(err)
		}
	}
	reg := modules.NewRegistry()
	for _, m := range []string{filmModule, updModule, testModule} {
		if err := reg.Register(m, "http://x.example.org/film.xq"); err != nil {
			t.Fatal(err)
		}
	}
	eng := interp.New(reg)
	exec := NewNativeExecutor(eng, reg)
	srv := New(st, reg, exec)
	srv.Self = uri
	srv.NewRPC = func(qid *soap.QueryID) (client.BulkCaller, func() []string) {
		cl := client.New(net)
		cl.QueryID = qid
		return cl, cl.Peers
	}
	net.Register(uri, srv)
	return &peer{uri: uri, store: st, reg: reg, engine: eng, server: srv, exec: exec}
}

// newCluster wires the paper's three-peer topology: the local peer plus
// y and z.
func newCluster(t *testing.T) (*netsim.Network, *peer, *peer, *peer) {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	local := newPeer(t, "xrpc://local", filmDBY, net)
	y := newPeer(t, "xrpc://y.example.org", filmDBY, net)
	z := newPeer(t, "xrpc://z.example.org", filmDBZ, net)
	return net, local, y, z
}

func evalOn(t *testing.T, p *peer, net *netsim.Network, query string) xdm.Sequence {
	t.Helper()
	cl := client.New(net)
	ie := interp.New(p.reg)
	c, err := ie.Compile(query)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	seq, _, err := ie.Eval(c, &interp.EvalOptions{Docs: storetest.Latest(t, p.store), RPC: cl})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return seq
}

// Q1 from the paper: one remote call, expected result from §2.
func TestQ1SingleRemoteCall(t *testing.T) {
	net, local, _, _ := newCluster(t)
	seq := evalOn(t, local, net, `
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  execute at {"xrpc://y.example.org"}
  {f:filmsByActor("Sean Connery")}
} </films>`)
	got := xdm.SerializeSequence(seq)
	want := "<films><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q1 = %s, want %s", got, want)
	}
}

// Q2: two calls to the same peer from a for-loop.
func TestQ2LoopSameDest(t *testing.T) {
	net, local, y, _ := newCluster(t)
	seq := evalOn(t, local, net, `
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  for $actor in ("Julie Andrews", "Sean Connery")
  let $dst := "xrpc://y.example.org"
  return execute at {$dst} {f:filmsByActor($actor)}
} </films>`)
	got := xdm.SerializeSequence(seq)
	want := "<films><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q2 = %s, want %s", got, want)
	}
	// interpreter does one-at-a-time RPC: 2 requests served by y
	if y.server.ServedRequests != 2 {
		t.Errorf("y served %d requests, want 2 (one-at-a-time)", y.server.ServedRequests)
	}
}

// Q3: multiple calls to multiple peers.
func TestQ3MultiDest(t *testing.T) {
	net, local, _, _ := newCluster(t)
	seq := evalOn(t, local, net, `
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  for $actor in ("Julie Andrews", "Sean Connery")
  for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
  return execute at {$dst} {f:filmsByActor($actor)}
} </films>`)
	got := xdm.SerializeSequence(seq)
	// y has no Julie Andrews films; z has Sound Of Music; order follows
	// the query's nested loops
	want := "<films><name>Sound Of Music</name><name>The Rock</name><name>Goldfinger</name></films>"
	if got != want {
		t.Errorf("Q3 = %s, want %s", got, want)
	}
}

func TestRemoteCallWithNodeResultIsByValue(t *testing.T) {
	net, local, _, _ := newCluster(t)
	seq := evalOn(t, local, net, `
import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}`)
	if len(seq) != 2 {
		t.Fatalf("got %d items", len(seq))
	}
	n := seq[0].(*xdm.Node)
	if n.Parent != nil {
		t.Error("remote node result must be a parentless fragment (call-by-value)")
	}
	// upward navigation yields empty
	up := xdm.Step(n, xdm.AxisParent, xdm.NodeTest{KindTest: true, AnyKind: true})
	if len(up) != 0 {
		t.Error("parent axis on shipped node must be empty")
	}
}

func TestEchoRoundTripsAllTypes(t *testing.T) {
	net, local, _, _ := newCluster(t)
	seq := evalOn(t, local, net, `
import module namespace tst="test" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {tst:echo((1, "two", 3.5, true(), <n a="1">x</n>))}`)
	if len(seq) != 5 {
		t.Fatalf("echo returned %d items: %s", len(seq), xdm.SerializeSequence(seq))
	}
	if _, ok := seq[0].(xdm.Integer); !ok {
		t.Errorf("item 0 type = %T", seq[0])
	}
	if _, ok := seq[3].(xdm.Boolean); !ok {
		t.Errorf("item 3 type = %T", seq[3])
	}
	if n, ok := seq[4].(*xdm.Node); !ok || n.Name != "n" {
		t.Errorf("item 4 = %v", seq[4])
	}
}

func TestUnknownModuleFaults(t *testing.T) {
	net, _, _, _ := newCluster(t)
	cl := client.New(net)
	_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "no-such-module", Func: "f", Arity: 0,
		Calls: [][]xdm.Sequence{{}},
	})
	if err == nil {
		t.Fatal("expected fault")
	}
	f, ok := err.(*soap.Fault)
	if !ok {
		t.Fatalf("error type = %T: %v", err, err)
	}
	if !strings.Contains(f.Reason, "could not load module") {
		t.Errorf("fault reason = %q", f.Reason)
	}
}

func TestUnknownFunctionFaults(t *testing.T) {
	net, _, _, _ := newCluster(t)
	cl := client.New(net)
	_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "films", Func: "noSuchFunction", Arity: 0,
		Calls: [][]xdm.Sequence{{}},
	})
	if err == nil {
		t.Fatal("expected fault")
	}
}

// The system module answers only the verbs it serves: anything else,
// including the retired replica catch-up verbs syncFrom and
// resyncFrom, gets the XRPC0004 "unknown system method" fault.
func TestUnknownSystemVerbsFault(t *testing.T) {
	net, _, _, _ := newCluster(t)
	cl := client.New(net)
	for _, tc := range []struct {
		verb string
		arg  xdm.Item
	}{
		{"syncFrom", xdm.Integer(0)},
		{"resyncFrom", xdm.String("xrpc://x.example.org")},
		{"noSuchVerb", xdm.String("")},
	} {
		_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
			ModuleURI: client.SystemModule, Func: tc.verb, Arity: 1,
			Calls: [][]xdm.Sequence{{{tc.arg}}},
		})
		f, ok := err.(*soap.Fault)
		if !ok {
			t.Fatalf("%s: error = %v (%T), want a fault", tc.verb, err, err)
		}
		if !strings.Contains(f.Reason, "XRPC0004") || !strings.Contains(f.Reason, "unknown system method") {
			t.Errorf("%s: fault reason = %q, want XRPC0004 unknown system method", tc.verb, f.Reason)
		}
	}
}

func TestBulkRequestSingleRoundTrip(t *testing.T) {
	net, _, y, _ := newCluster(t)
	cl := client.New(net)
	calls := make([][]xdm.Sequence, 100)
	for i := range calls {
		calls[i] = []xdm.Sequence{{xdm.String("Sean Connery")}}
	}
	res, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1, Calls: calls,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 100 {
		t.Fatalf("results = %d", len(res))
	}
	for i, seq := range res {
		if len(seq) != 2 {
			t.Fatalf("call %d returned %d films", i, len(seq))
		}
	}
	// the whole bulk was one network request
	if y.server.ServedRequests != 1 {
		t.Errorf("y served %d requests, want 1 (bulk)", y.server.ServedRequests)
	}
	if y.server.ServedCalls != 100 {
		t.Errorf("y served %d calls, want 100", y.server.ServedCalls)
	}
}

func TestFunctionCacheCounters(t *testing.T) {
	net, _, y, _ := newCluster(t)
	cl := client.New(net)
	br := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.CallBulk("xrpc://y.example.org", br); err != nil {
			t.Fatal(err)
		}
	}
	warm := y.exec.PlanCacheStats()
	if warm.Misses != 1 || warm.Hits != 4 {
		t.Errorf("cache hits=%d misses=%d, want 4/1", warm.Hits, warm.Misses)
	}
	// disable cache: every request recompiles
	y.exec.CacheEnabled = false
	y.exec.InvalidateCache()
	for i := 0; i < 3; i++ {
		if _, err := cl.CallBulk("xrpc://y.example.org", br); err != nil {
			t.Fatal(err)
		}
	}
	if off := y.exec.PlanCacheStats(); off.Misses != warm.Misses+3 || off.Hits != warm.Hits {
		t.Errorf("no-cache hits=%d misses=%d, want %d/%d", off.Hits, off.Misses, warm.Hits, warm.Misses+3)
	}
}

// Rule R_Fu: updating call without queryID applies immediately.
func TestUpdateImmediateApplication(t *testing.T) {
	net, _, y, _ := newCluster(t)
	cl := client.New(net)
	_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("New Film")}, {xdm.String("Nobody")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := storetest.Doc(t, y.store, "filmDB.xml")
	films := xdm.Step(doc.Children()[0], xdm.AxisChild, xdm.NodeTest{Name: "film"})
	if len(films) != 4 {
		t.Errorf("films after update = %d, want 4", len(films))
	}
}

// Rule R'_Fu + 2PC: with a queryID, updates are deferred until Commit.
func TestUpdateDeferredUntilCommit(t *testing.T) {
	net, _, y, _ := newCluster(t)
	qid := &soap.QueryID{ID: "q-upd-1", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	cl := client.New(net)
	cl.QueryID = qid
	_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Deferred")}, {xdm.String("X")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	countFilms := func() int {
		doc := storetest.Doc(t, y.store, "filmDB.xml")
		return len(xdm.Step(doc.Children()[0], xdm.AxisChild, xdm.NodeTest{Name: "film"}))
	}
	if got := countFilms(); got != 3 {
		t.Fatalf("update visible before commit: %d films", got)
	}
	// Prepare + Commit over WS-AT
	wsat := func(method string) (xdm.Sequence, error) {
		res, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
			ModuleURI: WSATModule, Func: method, Arity: 0,
			Calls: [][]xdm.Sequence{{}},
		})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	ack, err := wsat("Prepare")
	if err != nil {
		t.Fatal(err)
	}
	// the ack piggybacks the prepared pending update list: the insert
	if len(ack) != 2 || !strings.Contains(xdm.SerializeSequence(ack[1:]), "Deferred") {
		t.Errorf("Prepare ack = %s, want the prepared PUL carrying the insert", xdm.SerializeSequence(ack))
	}
	if got := countFilms(); got != 3 {
		t.Fatalf("update visible after Prepare, before Commit: %d films", got)
	}
	if _, err := wsat("Commit"); err != nil {
		t.Fatal(err)
	}
	if got := countFilms(); got != 4 {
		t.Errorf("films after commit = %d, want 4", got)
	}
}

func TestUpdateAbortDiscards(t *testing.T) {
	net, _, y, _ := newCluster(t)
	qid := &soap.QueryID{ID: "q-abort", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	cl := client.New(net)
	cl.QueryID = qid
	_, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Doomed")}, {xdm.String("X")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: WSATModule, Func: "Abort", Arity: 0,
		Calls: [][]xdm.Sequence{{}},
	}); err != nil {
		t.Fatal(err)
	}
	doc := storetest.Doc(t, y.store, "filmDB.xml")
	films := xdm.Step(doc.Children()[0], xdm.AxisChild, xdm.NodeTest{Name: "film"})
	if len(films) != 3 {
		t.Errorf("films after abort = %d, want 3", len(films))
	}
}

// Repeatable read (rule R'_Fr): two requests with the same queryID see
// the same database state even when another transaction commits between
// them.
func TestRepeatableReadIsolation(t *testing.T) {
	net, _, _, _ := newCluster(t)
	qid := &soap.QueryID{ID: "q-rr", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	cl := client.New(net)
	cl.QueryID = qid
	br := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	res1, err := cl.CallBulk("xrpc://y.example.org", br)
	if err != nil {
		t.Fatal(err)
	}
	// concurrent transaction (no qid) adds a Connery film and commits
	other := client.New(net)
	if _, err := other.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Dr. No")}, {xdm.String("Sean Connery")}}},
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := cl.CallBulk("xrpc://y.example.org", br)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1[0]) != 2 || len(res2[0]) != 2 {
		t.Errorf("repeatable read violated: %d then %d films", len(res1[0]), len(res2[0]))
	}
	// a fresh query (different qid) sees the new state
	fresh := client.New(net)
	fresh.QueryID = &soap.QueryID{ID: "q-rr2", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	res3, err := fresh.CallBulk("xrpc://y.example.org", br)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3[0]) != 3 {
		t.Errorf("fresh query sees %d films, want 3", len(res3[0]))
	}
}

// Without isolation (rule R_Fr), the second request sees the new state.
func TestNoIsolationSeesLatestState(t *testing.T) {
	net, _, _, _ := newCluster(t)
	cl := client.New(net) // no queryID
	br := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	res1, _ := cl.CallBulk("xrpc://y.example.org", br)
	other := client.New(net)
	other.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Dr. No")}, {xdm.String("Sean Connery")}}},
	})
	res2, _ := cl.CallBulk("xrpc://y.example.org", br)
	if len(res1[0]) != 2 || len(res2[0]) != 3 {
		t.Errorf("isolation none: %d then %d films, want 2 then 3", len(res1[0]), len(res2[0]))
	}
}

func TestQueryIDExpiry(t *testing.T) {
	net, _, y, _ := newCluster(t)
	now := time.Now()
	y.server.Now = func() time.Time { return now }
	qid := &soap.QueryID{ID: "q-exp", Host: "xrpc://local", Timestamp: now, Timeout: 10}
	cl := client.New(net)
	cl.QueryID = qid
	br := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	if _, err := cl.CallBulk("xrpc://y.example.org", br); err != nil {
		t.Fatal(err)
	}
	if y.server.IsolatedQueries() != 1 {
		t.Fatalf("isolated queries = %d", y.server.IsolatedQueries())
	}
	// clock advances past the timeout: the isolated state is discarded
	// and the late request is rejected
	now = now.Add(11 * time.Second)
	if _, err := cl.CallBulk("xrpc://y.example.org", br); err == nil {
		t.Error("late request with expired queryID must fault")
	}
	if y.server.IsolatedQueries() != 0 {
		t.Errorf("expired entry not discarded: %d", y.server.IsolatedQueries())
	}
}

func TestGetDocumentSystemCall(t *testing.T) {
	net, _, _, _ := newCluster(t)
	cl := client.New(net)
	doc, err := cl.FetchDocument("xrpc://y.example.org", "filmDB.xml")
	if err != nil {
		t.Fatal(err)
	}
	films := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "film"})
	if len(films) != 3 {
		t.Errorf("fetched doc has %d films", len(films))
	}
}

func TestClientDocResolverDataShipping(t *testing.T) {
	net, local, _, _ := newCluster(t)
	cl := client.New(net)
	resolver := &client.DocResolver{Local: storetest.Latest(t, local.store), Client: cl}
	eng := interp.New(local.reg)
	c, err := eng.Compile(`count(doc("xrpc://y.example.org/filmDB.xml")//film)`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := eng.Eval(c, &interp.EvalOptions{Docs: resolver, RPC: cl})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != "3" {
		t.Errorf("data-shipped count = %s", got)
	}
	// local docs still resolve locally
	c2, _ := eng.Compile(`count(doc("filmDB.xml")//film)`)
	seq2, _, err := eng.Eval(c2, &interp.EvalOptions{Docs: resolver, RPC: cl})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq2); got != "3" {
		t.Errorf("local count = %s", got)
	}
}

// Nested XRPC calls: local -> y -> z, with participating peers
// piggybacked back to the originator.
func TestNestedCallsPiggybackPeers(t *testing.T) {
	net, local, yy, _ := newCluster(t)
	y := yy
	// a module on y that itself calls z
	nested := `
module namespace n="nested";
import module namespace f="films" at "http://x.example.org/film.xq";
declare function n:viaZ($actor as xs:string) as node()*
{ execute at {"xrpc://z.example.org"} {f:filmsByActor($actor)} };`
	if err := y.reg.Register(nested, "http://x.example.org/nested.xq"); err != nil {
		t.Fatal(err)
	}
	if err := local.reg.Register(nested, "http://x.example.org/nested.xq"); err != nil {
		t.Fatal(err)
	}
	qid := &soap.QueryID{ID: "q-nest", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	cl := client.New(net)
	cl.QueryID = qid
	res, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
		ModuleURI: "nested", AtHint: "http://x.example.org/nested.xq",
		Func: "viaZ", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Julie Andrews")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(res[0]); got != "<name>Sound Of Music</name>" {
		t.Errorf("nested result = %s", got)
	}
	peers := cl.Peers()
	foundZ := false
	for _, p := range peers {
		if p == "xrpc://z.example.org" {
			foundZ = true
		}
	}
	if !foundZ {
		t.Errorf("originator does not know about nested peer z: %v", peers)
	}
}

// Parallel multi-destination Bulk RPC (§3.2, Figure 1): a loop-lifted
// execute at over two peers sends one request to each, concurrently,
// and re-unites the results in query order. When both peers fail, the
// lower peer's error — the first destination in query order — is
// reported, however the failures race.
func TestParallelMultiDestDispatch(t *testing.T) {
	net, local, y, z := newCluster(t)
	compiled, err := pathfinder.Compile(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $actor in ("Julie Andrews", "Sean Connery")
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return count(execute at {$dst} {f:filmsByActor($actor)})`, local.reg)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() (xdm.Sequence, error) {
		return compiled.Eval(&pathfinder.ExecCtx{Docs: storetest.Latest(t, local.store), Bulk: client.New(net)}, nil)
	}
	seq, err := eval()
	if err != nil {
		t.Fatal(err)
	}
	// (Julie Andrews, y), (Julie Andrews, z), (Sean Connery, y), (Sean Connery, z)
	if got := xdm.SerializeSequence(seq); got != "0 1 2 0" {
		t.Errorf("per-iteration counts = %q, want \"0 1 2 0\"", got)
	}
	if y.server.ServedRequests != 1 || z.server.ServedRequests != 1 {
		t.Errorf("requests served: y=%d z=%d, want 1 each (one Bulk RPC per peer)",
			y.server.ServedRequests, z.server.ServedRequests)
	}

	// y fails late and z at once: y's error still wins
	net.Register(y.uri, netsim.HandlerFunc(func(string, []byte) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return nil, errors.New("y is down")
	}))
	net.Register(z.uri, netsim.HandlerFunc(func(string, []byte) ([]byte, error) {
		return nil, errors.New("z is down")
	}))
	for run := 0; run < 5; run++ {
		if _, err := eval(); err == nil || !strings.Contains(err.Error(), "y is down") {
			t.Fatalf("run %d: err = %v, want the lower peer's (y's) error", run, err)
		}
	}
}

func TestHTTPServing(t *testing.T) {
	// exercise ServeHTTP through a real round trip body
	net, _, y, _ := newCluster(t)
	_ = net
	req := &soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	respBody, err := serve(y.server, soap.EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := soap.DecodeResponse(respBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
}

// Call-by-fragment end to end: with the extension on, a function taking
// an ancestor and a descendant node sees their relationship preserved.
func TestByFragmentPreservesRelationshipsE2E(t *testing.T) {
	net, local, y, _ := newCluster(t)
	rel := `
module namespace rel="rel";
declare function rel:isInside($frag as node(), $n as node()) as xs:boolean
{ exists($frag//name[. is $n]) };`
	for _, p := range []*peer{local, y} {
		if err := p.reg.Register(rel, "http://x.example.org/rel.xq"); err != nil {
			t.Fatal(err)
		}
	}
	query := `
import module namespace rel="rel" at "http://x.example.org/rel.xq";
let $film := (doc("filmDB.xml")//film)[1]
let $name := $film/name
return execute at {"xrpc://y.example.org"} {rel:isInside($film, $name)}`

	run := func(byFragment bool) string {
		cl := client.New(net)
		eng := interp.New(local.reg)
		eng.ByFragment = byFragment
		c, err := eng.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := eng.Eval(c, &interp.EvalOptions{Docs: storetest.Latest(t, local.store), RPC: cl})
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(seq)
	}
	// plain call-by-value destroys the descendant relationship (§2.2)
	if got := run(false); got != "false" {
		t.Errorf("call-by-value: isInside = %s, want false", got)
	}
	// call-by-fragment preserves it (footnote 4 extension)
	if got := run(true); got != "true" {
		t.Errorf("call-by-fragment: isInside = %s, want true", got)
	}
}

// ------------------------------------------------- bulk execution

// The paper's selection functions over XMark (§5 Q_B3; the routed
// cluster workload's getPerson/setCity), and fetch, whose document name
// is an argument so that a call can be made to fail.
const bulkModule = `
module namespace b = "functions_b";
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };
declare function b:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare updating function b:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };
declare function b:fetch($doc as xs:string, $pid as xs:string) as node()*
{ doc($doc)//closed_auction[./buyer/@person=$pid] };`

// shardXMark is one shard's share of the end-to-end benchmark's
// semijoin_probe workload: 609 closed auctions, 62 persons, each of the
// 62 buying at least once.
var shardXMark = xmark.Config{Persons: 62, ClosedAuctions: 609, Matches: 62, AnnotationWords: 120, Seed: 42}

// newBulkPeer is newPeer plus the shard-sized XMark documents and
// bulkModule: every predicate in it has enough candidates to be hash
// indexed, and each request builds its index while it runs.
func newBulkPeer(t testing.TB, net *netsim.Network) *peer {
	t.Helper()
	p := newPeer(t, "xrpc://y.example.org", filmDBY, net)
	if err := p.store.LoadXML("auctions.xml", xmark.GenerateAuctions(shardXMark)); err != nil {
		t.Fatal(err)
	}
	if err := p.store.LoadXML("persons.xml", xmark.GeneratePersons(shardXMark)); err != nil {
		t.Fatal(err)
	}
	if err := p.reg.Register(bulkModule, "http://x.example.org/b.xq"); err != nil {
		t.Fatal(err)
	}
	return p
}

func bulkRequest(method string, calls [][]xdm.Sequence) *soap.Request {
	return &soap.Request{
		Module: "functions_b", Method: method, Arity: len(calls[0]),
		Location: "http://x.example.org/b.xq", Calls: calls,
	}
}

// probeCalls is n Q_B3/getPerson argument tuples: buyers that repeat,
// with every fifth a miss.
func probeCalls(n int) [][]xdm.Sequence {
	calls := make([][]xdm.Sequence, n)
	for i := range calls {
		pid := xmark.PersonID((i * 7) % shardXMark.Persons)
		if i%5 == 4 {
			pid = "nobody"
		}
		calls[i] = []xdm.Sequence{{xdm.String(pid)}}
	}
	return calls
}

// executed is everything Execute hands back, in comparable form.
type executed struct {
	results []string
	pul     string
	err     string
}

func execute(p *peer, req *soap.Request, parallelism int) (executed, *interp.Stats) {
	p.exec.SetParallelism(parallelism)
	snap := p.store.Snapshot()
	defer snap.Release()
	results, pul, stats, err := p.exec.Execute(req, nil, snap, nil)
	if err != nil {
		return executed{err: err.Error()}, stats
	}
	out := executed{pul: pul.Describe()}
	for _, seq := range results {
		out.results = append(out.results, xdm.SerializeSequence(seq))
	}
	return out, stats
}

// oneAtATime is the reference for execute: the request's calls run as
// independent CallFunction calls on an engine without the predicate
// index, pending updates merged by SeqNrs, stopping at the first error.
func oneAtATime(t *testing.T, p *peer, req *soap.Request) executed {
	t.Helper()
	src, _ := p.reg.Source(req.Module)
	ref := interp.New(p.reg)
	ref.DisablePredIndex = true
	c, err := ref.CompileModule(src)
	if err != nil {
		t.Fatal(err)
	}
	merged := &xquf.UpdateList{}
	var out executed
	for ci, args := range req.Calls {
		seq, pul, err := ref.CallFunction(c, req.Module, req.Method, args, &interp.EvalOptions{Docs: storetest.Latest(t, p.store)})
		if err != nil {
			return executed{err: err.Error()}
		}
		if req.SeqNrs != nil {
			pul.SetSeqBase(req.SeqNrs[ci])
		}
		merged.Merge(pul)
		out.results = append(out.results, xdm.SerializeSequence(seq))
	}
	out.pul = merged.Describe()
	return out
}

// One evaluation per request, at any pool size, must hand back what N
// one-at-a-time evaluations without the index hand back: results, the
// merged pending update list and the error of the first failing call —
// on random bulks with duplicate keys, misses, (), multi-item probes and
// a non-string probe.
func TestExecuteBulkMatchesOneAtATime(t *testing.T) {
	p := newBulkPeer(t, netsim.NewNetwork(0, 0))
	pid := func(rng *rand.Rand) xdm.Sequence {
		if rng.Intn(5) == 0 {
			return xdm.Sequence{xdm.String("nobody")}
		}
		return xdm.Sequence{xdm.String(xmark.PersonID(rng.Intn(shardXMark.Persons + 4)))}
	}
	one := func(rng *rand.Rand) []xdm.Sequence { return []xdm.Sequence{pid(rng)} }
	fns := []struct {
		module, method string
		arg            func(rng *rand.Rand) []xdm.Sequence
		odd            [][]xdm.Sequence // rejected by the function conversion rules
	}{
		{"functions_b", "Q_B3", one,
			[][]xdm.Sequence{{{}}, {{xdm.String("person1"), xdm.String("person2")}}, {{xdm.Integer(7)}}}},
		{"functions_b", "getPerson", one,
			[][]xdm.Sequence{{{}}, {{xdm.String("person1"), xdm.String("person2")}}, {{xdm.Integer(7)}}}},
		{"functions_b", "setCity",
			func(rng *rand.Rand) []xdm.Sequence {
				return []xdm.Sequence{pid(rng), {xdm.String(fmt.Sprintf("Town%d", rng.Intn(3)))}}
			},
			[][]xdm.Sequence{{{}, {xdm.String("x")}}, {{xdm.String("person1")}, {xdm.Integer(1)}}}},
		{"films", "filmsByActor",
			func(rng *rand.Rand) []xdm.Sequence {
				return []xdm.Sequence{{xdm.String([]string{"Sean Connery", "Gerard Depardieu", "Nobody"}[rng.Intn(3)])}}
			},
			[][]xdm.Sequence{{{}}}},
	}
	for _, fn := range fns {
		for _, n := range []int{1, 2, 16, 64, 512} {
			for _, withOdd := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(n)))
				req := &soap.Request{Module: fn.module, Method: fn.method, Location: "http://x.example.org/film.xq"}
				for i := 0; i < n; i++ {
					req.Calls = append(req.Calls, fn.arg(rng))
					// reversed seqNrs: the merge must honor the tags
					req.SeqNrs = append(req.SeqNrs, int64(n-i))
				}
				if withOdd {
					for _, odd := range fn.odd {
						req.Calls[rng.Intn(n)] = odd
					}
				}
				req.Arity = len(req.Calls[0])
				want := oneAtATime(t, p, req)
				for _, parallelism := range []int{1, 2, 4} {
					got, _ := execute(p, req, parallelism)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s x%d odd=%v parallelism=%d:\n bulk:          %.300v\n one at a time: %.300v",
							fn.method, n, withOdd, parallelism, got, want)
					}
				}
			}
		}
	}
}

// The paper's headline query on the callee: a 64-call Q_B3 bulk scans
// and hash-indexes the auctions once per store version — the first
// request at a version, whose four workers share the build — and answers
// every call by probe; a later request at the same version only probes,
// and a version step starts over.
func TestBulkBuildsOneIndexPerVersion(t *testing.T) {
	p := newBulkPeer(t, netsim.NewNetwork(0, 0))
	for i, parallelism := range []int{4, 1, 4} {
		_, stats := execute(p, bulkRequest("Q_B3", probeCalls(64)), parallelism)
		builds := 0
		if i == 0 {
			builds = 1
		}
		if stats.IndexBuilds != builds || stats.IndexProbes != 64 || stats.IndexFallbacks != 0 {
			t.Errorf("request %d, parallelism=%d: builds/probes/fallbacks = %d/%d/%d, want %d/64/0", i, parallelism,
				stats.IndexBuilds, stats.IndexProbes, stats.IndexFallbacks, builds)
		}
	}
	if err := p.store.LoadXML("other.xml", "<x/>"); err != nil {
		t.Fatal(err)
	}
	if _, stats := execute(p, bulkRequest("Q_B3", probeCalls(8)), 1); stats.IndexBuilds != 1 || stats.IndexProbes != 8 {
		t.Errorf("after a version step: builds/probes = %d/%d, want 1/8", stats.IndexBuilds, stats.IndexProbes)
	}
	// filmsByActor's key path climbs to the parent: every call falls back
	req := &soap.Request{Module: "films", Method: "filmsByActor", Arity: 1, Location: "http://x.example.org/film.xq"}
	for i := 0; i < 8; i++ {
		req.Calls = append(req.Calls, []xdm.Sequence{{xdm.String("Sean Connery")}})
	}
	if _, stats := execute(p, req, 1); stats.IndexBuilds != 0 || stats.IndexProbes != 0 || stats.IndexFallbacks != 8 {
		t.Errorf("filmsByActor: builds/probes/fallbacks = %d/%d/%d, want 0/0/8",
			stats.IndexBuilds, stats.IndexProbes, stats.IndexFallbacks)
	}
}

// Warm requests at one version pay per call for a probe and a result,
// never for a scan: the 64-call bulk allocates no more per call than
// the one-call request, and that request allocates no more than 64 times
// (a scan of the auctions and an index build allocate ~2 000).
func TestBulkAllocationsDoNotScaleWithCalls(t *testing.T) {
	p := newBulkPeer(t, netsim.NewNetwork(0, 0))
	snap := p.store.Snapshot()
	defer snap.Release()
	allocs := func(calls int) float64 {
		req := bulkRequest("Q_B3", probeCalls(calls))
		return testing.AllocsPerRun(10, func() { // AllocsPerRun warms up with one run
			if _, _, _, err := p.exec.Execute(req, nil, snap, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	x1, x64 := allocs(1), allocs(64)
	if x64 > 64*x1 || x1 > 64 {
		t.Errorf("64-call bulk allocates %.0f, 1-call request %.0f: want <= 64x and <= 64", x64, x1)
	}
}

func benchBulkProbe(b *testing.B, calls int) {
	p := newBulkPeer(b, netsim.NewNetwork(0, 0))
	req := bulkRequest("Q_B3", probeCalls(calls))
	snap := p.store.Snapshot()
	defer snap.Release()
	if _, _, _, err := p.exec.Execute(req, nil, snap, nil); err != nil { // compile outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := p.exec.Execute(req, nil, snap, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkProbe_Q_B3 is one shard's share of semijoin_probe: X64 is
// about the 62-call bulk a shard receives per op, X1 its one-call floor.
func BenchmarkBulkProbe_Q_B3_X1(b *testing.B)  { benchBulkProbe(b, 1) }
func BenchmarkBulkProbe_Q_B3_X64(b *testing.B) { benchBulkProbe(b, 64) }

// ------------------------------------------------- parallel bulk exec

// The worker pool must be invisible on the wire: a read-only bulk
// request returns byte-identical responses at any pool size — for the
// row-at-a-time film bulk and for the Q_B3 bulk whose workers share one
// scan and one index built while they run.
func TestParallelBulkByteIdenticalToSequential(t *testing.T) {
	y := newBulkPeer(t, netsim.NewNetwork(0, 0))
	films := &soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
	}
	actors := []string{"Sean Connery", "Gerard Depardieu", "Nobody"}
	for i := 0; i < 48; i++ {
		films.Calls = append(films.Calls, []xdm.Sequence{{xdm.String(actors[i%len(actors)])}})
	}
	for _, req := range []*soap.Request{films, bulkRequest("Q_B3", probeCalls(48))} {
		body := soap.EncodeRequest(req)
		y.server.SetParallelism(1)
		want, err := serve(y.server, body)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(want), "Fault") {
			t.Fatalf("sequential run faulted: %s", want)
		}
		for _, workers := range []int{2, 4, 16, 64} {
			y.server.SetParallelism(workers)
			got, err := serve(y.server, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: response differs from sequential", req.Method, workers)
			}
		}
	}
}

// Updating bulk requests are evaluated in call order under any
// Parallelism — whether the request declares itself updating (addFilm)
// or only its function does (setCity, whose selection is hash-indexed
// during the run): the pending-update order, and hence the final
// document, is identical to sequential mode.
func TestParallelUpdatingKeepsPendingUpdateOrder(t *testing.T) {
	addFilm := func() (*soap.Request, string) {
		req := &soap.Request{
			Module: "upd", Method: "addFilm", Arity: 2,
			Location: "http://x.example.org/film.xq",
			Updating: true,
		}
		for i := 0; i < 8; i++ {
			req.Calls = append(req.Calls, []xdm.Sequence{
				{xdm.String(fmt.Sprintf("Film %d", i))},
				{xdm.String(fmt.Sprintf("Actor %d", i))},
			})
		}
		return req, "filmDB.xml"
	}
	setCity := func() (*soap.Request, string) {
		var calls [][]xdm.Sequence
		// one call per person: two `replace value of` one city conflict
		// (XUDY0017), so the list's order shows in Describe only
		for i := 0; i < 24; i++ {
			calls = append(calls, []xdm.Sequence{
				{xdm.String(xmark.PersonID(i))}, {xdm.String(fmt.Sprintf("Town %d", i))}})
		}
		return bulkRequest("setCity", calls), "persons.xml"
	}
	for _, mk := range []func() (*soap.Request, string){addFilm, setCity} {
		run := func(parallelism int) (string, string) {
			t.Helper()
			y := newBulkPeer(t, netsim.NewNetwork(0, 0))
			y.server.SetParallelism(parallelism)
			req, doc := mk()
			for i := range req.Calls {
				// reversed seqNrs: the merge must honor the tags, not the
				// evaluation order
				req.SeqNrs = append(req.SeqNrs, int64(len(req.Calls)-i))
			}
			snap := y.store.Snapshot()
			_, pul, _, err := y.exec.Execute(req, nil, snap, nil)
			if err != nil {
				t.Fatal(err)
			}
			order := pul.Describe()
			if err := xquf.ApplyUpdates(y.store, pul, snap); err != nil {
				t.Fatal(err)
			}
			snap.Release()
			root := storetest.Doc(t, y.store, doc)
			return order, xdm.SerializeSequence(xdm.Sequence{root})
		}
		seqOrder, seqDoc := run(1)
		for _, parallelism := range []int{2, 4, 8} {
			parOrder, parDoc := run(parallelism)
			if parOrder != seqOrder {
				t.Errorf("parallelism=%d: pending-update order differs:\nsequential:\n%s\nparallel:\n%s", parallelism, seqOrder, parOrder)
			}
			if parDoc != seqDoc {
				t.Errorf("parallelism=%d: final document differs from sequential", parallelism)
			}
		}
	}
}

// Concurrent bulk requests against a pool-enabled server (race-detector
// coverage for the shared function cache and counters, and for each
// request's workers over its own shared memo).
func TestParallelBulkConcurrentRequests(t *testing.T) {
	y := newBulkPeer(t, netsim.NewNetwork(0, 0))
	body := soap.EncodeRequest(bulkRequest("Q_B3", probeCalls(32)))
	y.server.SetParallelism(1)
	want, err := serve(y.server, body)
	if err != nil || strings.Contains(string(want), "Fault") {
		t.Fatalf("sequential run: %v %s", err, want)
	}
	for _, parallelism := range []int{1, 2, 4} {
		y.server.SetParallelism(parallelism)
		var wg sync.WaitGroup
		faults := make([]error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				resp, err := serve(y.server, body)
				if err == nil && !bytes.Equal(resp, want) {
					err = fmt.Errorf("response differs from sequential: %.200s", resp)
				}
				faults[g] = err
			}(g)
		}
		wg.Wait()
		for _, err := range faults {
			if err != nil {
				t.Fatalf("parallelism=%d: %v", parallelism, err)
			}
		}
	}
}

// A failing call reports the lowest-index error, exactly like sequential
// execution — here on a bulk whose early calls build and probe an index
// and whose calls from the sixth on name documents that do not exist.
func TestParallelBulkDeterministicError(t *testing.T) {
	y := newBulkPeer(t, netsim.NewNetwork(0, 0))
	var calls [][]xdm.Sequence
	for i := 0; i < 16; i++ {
		name := "auctions.xml"
		if i >= 5 {
			name = fmt.Sprintf("missing%d.xml", i)
		}
		calls = append(calls, []xdm.Sequence{{xdm.String(name)}, {xdm.String(xmark.PersonID(i))}})
	}
	req := bulkRequest("fetch", calls)
	seq, _ := execute(y, req, 1)
	if !strings.Contains(seq.err, "missing5.xml") {
		t.Fatalf("sequential error = %q, want the sixth call's", seq.err)
	}
	for _, parallelism := range []int{2, 4, 8} {
		if par, _ := execute(y, req, parallelism); par.err != seq.err {
			t.Errorf("parallelism=%d: error %q, sequential %q", parallelism, par.err, seq.err)
		}
	}
}

// TestHTTPRequestSizeLimit pins the decompression-bomb guard: a gzip
// request body that expands past MaxRequestBytes is rejected with 413
// before the expansion is materialized, while bodies under the limit
// are served normally.
func TestHTTPRequestSizeLimit(t *testing.T) {
	p := newPeer(t, "xrpc://y", filmDBY, netsim.NewNetwork(0, 0))
	p.server.MaxRequestBytes = 64 * 1024

	// a ~6 KB gzip body expanding to ~10 MB of whitespace padding
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	for i := 0; i < 10*1024; i++ {
		zw.Write(bytes.Repeat([]byte(" "), 1024))
	}
	zw.Close()

	req := httptest.NewRequest("POST", "/xrpc", bytes.NewReader(bomb.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	p.server.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb got status %d, want 413", rec.Code)
	}

	// a legitimate gzip request under the limit still works
	body := soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	var small bytes.Buffer
	zw = gzip.NewWriter(&small)
	zw.Write(body)
	zw.Close()
	req = httptest.NewRequest("POST", "/xrpc", bytes.NewReader(small.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	rec = httptest.NewRecorder()
	p.server.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("legitimate gzip request got status %d: %s", rec.Code, rec.Body.String())
	}
	resp, err := soap.DecodeResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
}
