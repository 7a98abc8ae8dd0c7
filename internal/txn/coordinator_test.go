package txn

import (
	"io"
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

const updModule = `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string)
{ insert node <film><name>{$name}</name></film> into doc("filmDB.xml")/films };`

func newCluster(t *testing.T, peers ...string) (*netsim.Network, map[string]*store.Store, map[string]*server.Server) {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	if err := reg.Register(updModule, "http://x.example.org/upd.xq"); err != nil {
		t.Fatal(err)
	}
	stores := map[string]*store.Store{}
	servers := map[string]*server.Server{}
	for _, uri := range peers {
		st := store.New()
		if err := st.LoadXML("filmDB.xml", xmark.PaperFilmDB); err != nil {
			t.Fatal(err)
		}
		srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
		srv.Self = uri
		net.Register(uri, srv)
		stores[uri] = st
		servers[uri] = srv
	}
	return net, stores, servers
}

func countFilms(t *testing.T, st *store.Store) int {
	t.Helper()
	doc := storetest.Doc(t, st, "filmDB.xml")
	if doc == nil {
		t.Fatal("filmDB.xml missing")
	}
	return len(xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "film"}))
}

func sendUpdate(t *testing.T, cl *client.Client, peer, film string) {
	t.Helper()
	_, err := cl.CallBulk(peer, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 1, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String(film)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommitAllBothPeersCommit(t *testing.T) {
	net, stores, _ := newCluster(t, "xrpc://a", "xrpc://b")
	cl := client.New(net)
	cl.QueryID = NewQueryID("xrpc://origin", 60)
	sendUpdate(t, cl, "xrpc://a", "F1")
	sendUpdate(t, cl, "xrpc://b", "F2")

	var events []string
	co := &Coordinator{Client: cl, Log: func(ev, peer string) {
		events = append(events, ev+" "+peer)
	}}
	if err := co.CommitAll(cl.Peers()); err != nil {
		t.Fatal(err)
	}
	if countFilms(t, stores["xrpc://a"]) != 4 || countFilms(t, stores["xrpc://b"]) != 4 {
		t.Error("updates not committed on both peers")
	}
	// all prepares precede all commits
	lastPrepare, firstCommit := -1, len(events)
	for i, e := range events {
		if strings.HasPrefix(e, "prepare") && i > lastPrepare {
			lastPrepare = i
		}
		if strings.HasPrefix(e, "commit") && i < firstCommit {
			firstCommit = i
		}
	}
	if lastPrepare > firstCommit {
		t.Errorf("2PC phase order violated: %v", events)
	}
}

func TestPrepareFailureAbortsEverywhere(t *testing.T) {
	net, stores, _ := newCluster(t, "xrpc://a")
	cl := client.New(net)
	cl.QueryID = NewQueryID("xrpc://origin", 60)
	sendUpdate(t, cl, "xrpc://a", "F1")

	// one participant is unreachable: Prepare fails there
	peers := append(cl.Peers(), "xrpc://gone")
	co := &Coordinator{Client: cl}
	if err := co.CommitAll(peers); err == nil {
		t.Fatal("expected prepare failure")
	}
	// no peer committed: a's films unchanged
	if got := countFilms(t, stores["xrpc://a"]); got != 3 {
		t.Errorf("films after failed 2PC = %d, want 3", got)
	}
}

func TestAbortAllDiscards(t *testing.T) {
	net, stores, servers := newCluster(t, "xrpc://a")
	cl := client.New(net)
	cl.QueryID = NewQueryID("xrpc://origin", 60)
	sendUpdate(t, cl, "xrpc://a", "F1")
	if servers["xrpc://a"].IsolatedQueries() != 1 {
		t.Fatal("no isolated state to abort")
	}
	co := &Coordinator{Client: cl}
	co.AbortAll(cl.Peers())
	if got := countFilms(t, stores["xrpc://a"]); got != 3 {
		t.Errorf("films after abort = %d, want 3", got)
	}
	if servers["xrpc://a"].IsolatedQueries() != 0 {
		t.Error("isolated state not discarded")
	}
}

func TestNewQueryIDProperties(t *testing.T) {
	a := NewQueryID("xrpc://h", 30)
	b := NewQueryID("xrpc://h", 30)
	if a.ID == b.ID {
		t.Error("queryIDs must be unique")
	}
	if a.Host != "xrpc://h" || a.Timeout != 30 {
		t.Errorf("qid = %+v", a)
	}
	if time.Since(a.Timestamp) > time.Minute {
		t.Errorf("timestamp = %v", a.Timestamp)
	}
	if !strings.HasPrefix(a.ID, "q-") {
		t.Errorf("id = %q", a.ID)
	}
}

// Commit failure after successful prepare is reported but does not stop
// the remaining commits (heuristic outcome).
func TestCommitFailureHeuristic(t *testing.T) {
	net, stores, servers := newCluster(t, "xrpc://a", "xrpc://b")
	cl := client.New(net)
	cl.QueryID = NewQueryID("xrpc://origin", 60)
	sendUpdate(t, cl, "xrpc://a", "F1")
	sendUpdate(t, cl, "xrpc://b", "F2")
	// peer b answers Prepare but dies on Commit
	real := servers["xrpc://b"]
	net.Register("xrpc://b", netsim.StreamHandlerFunc(func(path string, body []byte) (io.ReadCloser, error) {
		if strings.Contains(string(body), `xrpc:method="Commit"`) {
			return nil, errDown
		}
		return real.HandleXRPC(path, body)
	}))
	co := &Coordinator{Client: cl}
	err := co.CommitAll([]string{"xrpc://a", "xrpc://b"})
	if err == nil {
		t.Error("commit failure should be reported")
	}
	if countFilms(t, stores["xrpc://a"]) != 4 {
		t.Error("a should have committed despite b's failure")
	}
}

var errDown = errTxn("peer down")

type errTxn string

func (e errTxn) Error() string { return string(e) }
