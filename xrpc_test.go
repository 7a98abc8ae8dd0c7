package xrpc

import (
	"strings"
	"testing"
	"time"

	"xrpc/internal/obs"
	"xrpc/internal/xmark"
)

const filmModule = `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`

const updModule = `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string, $actor as xs:string)
{ insert node <film><name>{$name}</name><actor>{$actor}</actor></film> into doc("filmDB.xml")/films };`

func twoPeers(t *testing.T) (*Network, *Peer, *Peer) {
	t.Helper()
	net := NewNetwork(0, 0)
	y := NewPeer("xrpc://y.example.org", net)
	if err := y.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{filmModule, updModule} {
		if err := y.RegisterModule(m, "http://x.example.org/film.xq"); err != nil {
			t.Fatal(err)
		}
	}
	net.Register("xrpc://y.example.org", y.Handler())
	local := NewPeer("xrpc://local", net)
	if err := local.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{filmModule, updModule} {
		if err := local.RegisterModule(m, "http://x.example.org/film.xq"); err != nil {
			t.Fatal(err)
		}
	}
	net.Register("xrpc://local", local.Handler())
	return net, local, y
}

func TestQuickstartQ1(t *testing.T) {
	_, local, _ := twoPeers(t)
	res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
<films> {
  execute at {"xrpc://y.example.org"}
  {f:filmsByActor("Sean Connery")}
} </films>`)
	if err != nil {
		t.Fatal(err)
	}
	want := "<films><name>The Rock</name><name>Goldfinger</name></films>"
	if got := res.Serialize(); got != want {
		t.Errorf("Q1 = %s", got)
	}
}

func TestLoopLiftedIsDefaultAndBulk(t *testing.T) {
	_, local, y := twoPeers(t)
	res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $actor in ("Julie Andrews", "Sean Connery")
return execute at {"xrpc://y.example.org"} {f:filmsByActor($actor)}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Errorf("loop-lifted query sent %d requests, want 1", res.Requests)
	}
	if y.ServerStats().ServedCalls != 2 {
		t.Errorf("y served %d calls, want 2", y.ServerStats().ServedCalls)
	}
}

func TestInterpretedEngineOneAtATime(t *testing.T) {
	_, local, y := twoPeers(t)
	local.Engine = EngineInterpreted
	_, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $actor in ("Julie Andrews", "Sean Connery")
return execute at {"xrpc://y.example.org"} {f:filmsByActor($actor)}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.ServerStats().ServedRequests; got != 2 {
		t.Errorf("interpreter sent %d requests, want 2 (one per iteration)", got)
	}
}

func TestDistributedUpdateWith2PC(t *testing.T) {
	_, local, y := twoPeers(t)
	y.EnableObs(obs.NewRegistry(), nil)
	res, err := local.Query(`
import module namespace u="upd" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {u:addFilm("Dr. No", "Sean Connery")}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Updating {
		t.Error("query not classified as updating")
	}
	check, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})`)
	if err != nil {
		t.Fatal(err)
	}
	if got := check.Serialize(); got != "3" {
		t.Errorf("films after distributed update = %s, want 3", got)
	}
	// the update went through prepare/commit: y saw one of each verb,
	// committed once, and holds no isolation state afterwards
	for _, verb := range []string{"Prepare", "Commit"} {
		if n := y.Server.Metrics.Requests.With(verb).Value(); n != 1 {
			t.Errorf("%s requests at y = %d, want 1", verb, n)
		}
	}
	if v := y.Store.Version(); v != 2 {
		t.Errorf("y store version = %d, want 2 (one commit)", v)
	}
	if n := y.Server.IsolatedQueries(); n != 0 {
		t.Errorf("y still holds %d isolated queries after commit", n)
	}
}

func TestLocalUpdateApplies(t *testing.T) {
	_, local, _ := twoPeers(t)
	if _, err := local.Query(`delete node doc("filmDB.xml")//film[1]`); err != nil {
		t.Fatal(err)
	}
	res, err := local.Query(`count(doc("filmDB.xml")//film)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "2" {
		t.Errorf("films after local delete = %s", got)
	}
}

func TestRepeatableIsolationOption(t *testing.T) {
	_, local, _ := twoPeers(t)
	res, err := local.Query(`
declare option xrpc:isolation "repeatable";
import module namespace f="films" at "http://x.example.org/film.xq";
for $i in (1, 2)
return count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "2 2" {
		t.Errorf("got %s", got)
	}
}

func TestWrapperPeerServesCalls(t *testing.T) {
	net := NewNetwork(0, 0)
	saxon, handle := NewWrapperPeer("xrpc://saxon", net)
	handle.LoadText("filmDB.xml", xmark.PaperFilmDB)
	if err := saxon.RegisterModule(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	net.Register("xrpc://saxon", saxon.Handler())

	local := NewPeer("xrpc://local", net)
	if err := local.RegisterModule(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://saxon"} {f:filmsByActor("Gerard Depardieu")}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "<name>Green Card</name>" {
		t.Errorf("wrapper peer result = %s", got)
	}
}

func TestSimulatedLatencyVisible(t *testing.T) {
	net, local, _ := func() (*Network, *Peer, *Peer) {
		net := NewNetwork(2*time.Millisecond, 0)
		y := NewPeer("xrpc://y.example.org", net)
		y.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
		y.RegisterModule(filmModule, "http://x.example.org/film.xq")
		net.Register("xrpc://y.example.org", y.Handler())
		local := NewPeer("xrpc://local", net)
		local.RegisterModule(filmModule, "http://x.example.org/film.xq")
		return net, local, y
	}()
	_ = net
	start := time.Now()
	_, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}`)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestExternalVars(t *testing.T) {
	_, local, _ := twoPeers(t)
	res, err := local.QueryWithVars(`for $i in (1 to $x) return $i`,
		map[string]Sequence{"x": {Integer(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "1 2 3" {
		t.Errorf("got %s", got)
	}
}

func TestQueryError(t *testing.T) {
	_, local, _ := twoPeers(t)
	_, err := local.Query(`1 +`)
	if err == nil || !strings.Contains(err.Error(), "syntax") {
		t.Errorf("err = %v", err)
	}
	_, err = local.Query(`doc("missing.xml")`)
	if err == nil {
		t.Error("expected missing-document error")
	}
}
