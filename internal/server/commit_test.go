package server

import (
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
	"xrpc/internal/xquf"
)

// txnClient is a client whose requests all carry one queryID.
func txnClient(net *netsim.Network, id string) *client.Client {
	cl := client.New(net)
	cl.QueryID = &soap.QueryID{ID: id, Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	return cl
}

func setCity(t *testing.T, cl *client.Client, dest, pid, city string) {
	t.Helper()
	if _, err := cl.CallBulk(dest, &client.BulkRequest{
		ModuleURI: "functions_b", AtHint: "http://x.example.org/b.xq",
		Func: "setCity", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String(pid)}, {xdm.String(city)}}},
	}); err != nil {
		t.Fatal(err)
	}
}

func wsatVerb(cl *client.Client, dest, verb string) error {
	_, err := cl.CallBulk(dest, &client.BulkRequest{
		ModuleURI: WSATModule, Func: verb, Calls: [][]xdm.Sequence{{}},
	})
	return err
}

// cityOf reads a person's city through the peer's getPerson, as a
// client outside any transaction does.
func cityOf(t *testing.T, net *netsim.Network, dest, pid string) string {
	t.Helper()
	res, err := client.New(net).CallBulk(dest, &client.BulkRequest{
		ModuleURI: "functions_b", AtHint: "http://x.example.org/b.xq",
		Func: "getPerson", Arity: 1, Calls: [][]xdm.Sequence{{{xdm.String(pid)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0]) != 1 {
		t.Fatalf("getPerson(%s) = %v", pid, res)
	}
	city := xdm.Step(res[0][0].(*xdm.Node), xdm.AxisDescendant, xdm.NodeTest{Name: "city"})
	if len(city) != 1 {
		t.Fatalf("%s has %d cities", pid, len(city))
	}
	return city[0].StringValue()
}

// Two transactions update different persons of one document and both
// apply before either commits (as BenchmarkClusterRoutedUpdateConc_P4's
// writers do): both writes survive. The second commit's targets live in
// the version both snapshots pinned, which the first commit replaced;
// they are found by ordinal in the version it made.
func TestOverlappingTransactionsKeepBothWrites(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newBulkPeer(t, net)
	a, b := xmark.PersonID(0), xmark.PersonID(1)
	c1, c2 := txnClient(net, "q-overlap-1"), txnClient(net, "q-overlap-2")
	setCity(t, c1, p.uri, a, "Atown")
	setCity(t, c2, p.uri, b, "Btown")
	for _, cl := range []*client.Client{c1, c2} {
		for _, verb := range []string{"Prepare", "Commit"} {
			if err := wsatVerb(cl, p.uri, verb); err != nil {
				t.Fatalf("%s %s: %v", cl.QueryID.ID, verb, err)
			}
		}
	}
	if got := cityOf(t, net, p.uri, a); got != "Atown" {
		t.Errorf("%s's city = %q after both commits, want Atown (the first commit's write was lost)", a, got)
	}
	if got := cityOf(t, net, p.uri, b); got != "Btown" {
		t.Errorf("%s's city = %q after both commits, want Btown", b, got)
	}
}

// The window that remains: a transaction that prepared is refused at
// Commit when a commit that changed the document's structure landed
// between its snapshot and its Commit — here an insert after its
// Prepare. Its ordinals no longer name the nodes it read, so the
// participant answers Commit with an XRPC0010 fault and writes nothing:
// the transaction's update at this peer is lost, visibly to its
// coordinator, and no other commit's write is overwritten. In a cluster
// that is 2PC's heuristic outcome: the coordinator reports the failed
// Commit, aborts and evicts the shard's replicas, and the other shards'
// commits stand. Commits that only replace values never open this
// window.
func TestStructuralCommitBetweenPrepareAndCommit(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newBulkPeer(t, net)
	if err := p.reg.Register(`module namespace s = "shape";
declare updating function s:addPerson($id as xs:string)
{ insert node <person id="{$id}"><address><city>Newtown</city></address></person>
  as first into doc("persons.xml")/site/people };`, "http://x.example.org/s.xq"); err != nil {
		t.Fatal(err)
	}
	pid := xmark.PersonID(3)
	before := cityOf(t, net, p.uri, pid)
	tx := txnClient(net, "q-window")
	setCity(t, tx, p.uri, pid, "Lost")
	if err := wsatVerb(tx, p.uri, "Prepare"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.New(net).CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "shape", AtHint: "http://x.example.org/s.xq", Func: "addPerson", Arity: 1,
		Updating: true, Calls: [][]xdm.Sequence{{{xdm.String("first")}}},
	}); err != nil {
		t.Fatal(err)
	}
	v := p.store.Version()
	err := wsatVerb(tx, p.uri, "Commit")
	if err == nil || !strings.Contains(err.Error(), "XRPC0010") {
		t.Fatalf("Commit after a structural commit: %v, want an XRPC0010 fault", err)
	}
	if got := cityOf(t, net, p.uri, pid); got != before {
		t.Errorf("%s's city = %q after the refused commit, want %q", pid, got, before)
	}
	if got := cityOf(t, net, p.uri, "first"); got != "Newtown" {
		t.Errorf("the structural commit's person reads %q", got)
	}
	if p.store.Version() != v || p.server.IsolatedQueries() != 0 {
		t.Errorf("refused commit: version %d -> %d, %d queryIDs still pinned", v, p.store.Version(), p.server.IsolatedQueries())
	}
}

// update_mix's script, sequentially: a 2PC setCity, the read-back that
// must see it, then two reads. Nothing pins the document when a commit
// lands, so every commit writes in place — counted by
// xrpc_store_commits_total{path="in_place"} — and hands the version's
// getPerson index to the next: xrpc_exec_index_builds_total reads 1.
func TestUpdateMixScriptCommitsInPlace(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newBulkPeer(t, net)
	p.server.RespCache = NewRespCache(0)
	reg := obs.NewRegistry()
	p.server.RegisterCacheMetrics(reg)
	p.server.Metrics = NewMetrics(reg)
	const rounds = 12
	for i := 0; i < rounds; i++ {
		pid, city := xmark.PersonID(i%shardXMark.Persons), "Town"+string(rune('A'+i))
		tx := txnClient(net, "q-mix-"+city)
		setCity(t, tx, p.uri, pid, city)
		for _, verb := range []string{"Prepare", "Commit"} {
			if err := wsatVerb(tx, p.uri, verb); err != nil {
				t.Fatal(err)
			}
		}
		if got := cityOf(t, net, p.uri, pid); got != city {
			t.Fatalf("round %d: read-back %q, want %q", i, got, city)
		}
		cityOf(t, net, p.uri, xmark.PersonID(40))
		cityOf(t, net, p.uri, xmark.PersonID(41))
	}
	path := func(p string) float64 {
		return reg.MustGather("xrpc_store_commits_total", obs.Label{Key: "path", Value: p})
	}
	if in, cl := path("in_place"), path("clone"); in != rounds || cl != 0 {
		t.Errorf("commits in place %v, cloned %v, want %d and 0", in, cl, rounds)
	}
	// every commit replaced a city's value in place, so each version
	// took over its predecessor's @id index
	if builds := reg.MustGather("xrpc_exec_index_builds_total"); builds != 1 {
		t.Errorf("%d rounds built %v indexes, want 1", rounds, builds)
	}
}

// A commit whose pending update list inserts and then replaces the
// value of a later node is replayed from the log to the pre-crash
// document: its record names the ordinals the commit resolved, not the
// ones the in-place reseal gave the nodes afterwards.
func TestWALReplayOfInsertThenReplace(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	p := newPeer(t, "xrpc://durable-shift", filmDBY, net)
	if err := p.reg.Register(`module namespace sh = "shift";
declare updating function sh:shift()
{ insert node <film><name>Zero</name><actor>Z</actor></film> as first into doc("filmDB.xml")/films,
  replace value of node doc("filmDB.xml")/films/film[3]/name with "Third" };`, "http://x.example.org/sh.xq"); err != nil {
		t.Fatal(err)
	}
	enableWAL(t, p, dir, WALConfig{})
	if _, err := client.New(net).CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "shift", AtHint: "http://x.example.org/sh.xq", Func: "shift",
		Updating: true, Calls: [][]xdm.Sequence{{}},
	}); err != nil {
		t.Fatal(err)
	}
	if in, cl := p.store.Commits(); in != 1 || cl != 0 {
		t.Fatalf("commit paths: in place %d, cloned %d, want 1 and 0", in, cl)
	}
	want := filmDoc(t, p.store)
	if !strings.Contains(want, "<name>Zero</name>") || !strings.Contains(want, "<name>Third</name><actor>Gerard Depardieu</actor>") {
		t.Fatalf("the commit wrote %s", want)
	}

	p2 := newPeer(t, "xrpc://durable-shift-r", "", net)
	if !enableWAL(t, p2, dir, WALConfig{}) {
		t.Fatal("no recovery")
	}
	if got := filmDoc(t, p2.store); got != want {
		t.Fatalf("replayed document differs:\n got %s\nwant %s", got, want)
	}
}

// Two primitives that XQUF's upd:applyUpdates forbids on one node fail
// the whole list before anything is written: through a local commit
// (ApplyUpdates) and through a replica's AdoptPUL and Commit, the error
// is the XQUF code and the document, version and commit counters are
// as they were.
func TestConflictingUpdatesFailBeforeWriting(t *testing.T) {
	const ax = `<r><p id="1">t</p></r>`
	for _, tc := range []struct{ name, query, code string }{
		{"two renames", `let $f := doc("filmDB.xml")/films/film[1]
			return (rename node $f as "a", rename node $f as "b")`, "XUDY0015"},
		{"two replace node", `let $f := doc("filmDB.xml")/films/film[1]
			return (replace node $f with <a/>, replace node $f with <b/>)`, "XUDY0016"},
		{"two replace value of an element", `let $n := doc("filmDB.xml")/films/film[1]/name
			return (replace value of node $n with "a", replace value of node $n with "b")`, "XUDY0017"},
		{"two replace value of an attribute", `let $i := doc("a.xml")/r/p/@id
			return (replace value of node $i with "2", replace value of node $i with "3")`, "XUDY0017"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork(0, 0)
			p := newPeer(t, "xrpc://y.example.org", filmDBY, net)
			if err := p.store.LoadXML("a.xml", ax); err != nil {
				t.Fatal(err)
			}
			films := xdm.SerializeNode(storetest.Doc(t, p.store, "filmDB.xml"))
			unchanged := func(route string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.code) {
					t.Errorf("%s: err = %v, want %s", route, err, tc.code)
				}
				if v := p.store.Version(); v != 2 {
					t.Errorf("%s: version %d, want 2", route, v)
				}
				if in, cl := p.store.Commits(); in+cl != 0 {
					t.Errorf("%s: %d commits in place, %d cloned, want none", route, in, cl)
				}
				if got := xdm.SerializeNode(storetest.Doc(t, p.store, "filmDB.xml")); got != films {
					t.Errorf("%s: filmDB.xml changed: %s", route, got)
				}
				if got := xdm.SerializeNode(storetest.Doc(t, p.store, "a.xml")); got != ax {
					t.Errorf("%s: a.xml changed: %s", route, got)
				}
			}

			eng := interp.New(modules.NewRegistry())
			c, err := eng.Compile(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			own := p.store.Snapshot()
			_, pul, err := eng.Eval(c, &interp.EvalOptions{Docs: own, CollectUpdates: true})
			if err != nil {
				t.Fatal(err)
			}
			wire := xquf.EncodePUL(pul)
			unchanged("ApplyUpdates", xquf.ApplyUpdates(p.store, pul, own))
			own.Release()

			tx := txnClient(net, "q-conflict")
			if _, err := tx.CallBulk(p.uri, &client.BulkRequest{
				ModuleURI: WSATModule, Func: "AdoptPUL", Arity: 1,
				Calls: [][]xdm.Sequence{{xdm.Singleton(wire)}},
			}); err != nil {
				t.Fatal(err)
			}
			unchanged("AdoptPUL, Commit", wsatVerb(tx, p.uri, "Commit"))
		})
	}
}
