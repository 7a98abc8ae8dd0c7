package core

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/xdm"
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

// Distributed query over REAL HTTP: two peers on httptest servers.
func TestDistributedQueryOverHTTP(t *testing.T) {
	transport := client.NewHTTPTransport()

	y := NewPeer("", transport) // self filled below
	if err := y.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
		t.Fatal(err)
	}
	if err := y.RegisterModule(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(y.HTTPHandler())
	defer ts.Close()
	yURI := strings.Replace(ts.URL, "http://", "xrpc://", 1)
	y.Self = yURI

	local := NewPeer("xrpc://local", transport)
	if err := local.RegisterModule(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $a in ("Sean Connery", "Gerard Depardieu")
return count(execute at {"` + yURI + `"} {f:filmsByActor($a)})`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "2 1" {
		t.Errorf("counts over HTTP = %s", got)
	}
	if res.Requests != 1 {
		t.Errorf("requests = %d, want 1 (bulk over HTTP)", res.Requests)
	}
}

// Distributed update over HTTP with 2PC.
func TestDistributedUpdateOverHTTP(t *testing.T) {
	transport := client.NewHTTPTransport()
	y := NewPeer("", transport)
	y.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
	y.RegisterModule(filmModule, "http://x.example.org/film.xq")
	y.RegisterModule(updModule, "http://x.example.org/upd.xq")
	ts := httptest.NewServer(y.HTTPHandler())
	defer ts.Close()
	yURI := strings.Replace(ts.URL, "http://", "xrpc://", 1)

	local := NewPeer("xrpc://local", transport)
	local.RegisterModule(filmModule, "http://x.example.org/film.xq")
	local.RegisterModule(updModule, "http://x.example.org/upd.xq")

	if _, err := local.Query(`
import module namespace u="upd" at "http://x.example.org/upd.xq";
execute at {"` + yURI + `"} {u:addFilm("Thunderball", "Sean Connery")}`); err != nil {
		t.Fatal(err)
	}
	res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
count(execute at {"` + yURI + `"} {f:filmsByActor("Sean Connery")})`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "3" {
		t.Errorf("films after HTTP update = %s", got)
	}
}

func TestEngineSwitchAndCacheToggle(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	y := NewPeer("xrpc://y", net)
	y.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
	y.RegisterModule(filmModule, "http://x.example.org/film.xq")
	net.Register("xrpc://y", y.Handler())

	local := NewPeer("xrpc://local", net)
	local.RegisterModule(filmModule, "http://x.example.org/film.xq")
	q := `
import module namespace f="films" at "http://x.example.org/film.xq";
for $a in ("Sean Connery", "Julie Andrews", "Gerard Depardieu")
return count(execute at {"xrpc://y"} {f:filmsByActor($a)})`

	res, err := local.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Errorf("loop-lifted requests = %d", res.Requests)
	}
	local.Engine = EngineInterpreted
	res, err = local.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 {
		t.Errorf("interpreted requests = %d", res.Requests)
	}
	// function cache toggle is accepted on native peers and ignored on
	// wrapper peers
	y.SetFunctionCache(false)
	y.SetFunctionCache(true)
	wp, _ := NewWrapperPeer("xrpc://w", net)
	wp.SetFunctionCache(false) // no-op, must not panic
}

// Both engines apply one function library: the same answer, or the same
// error code, whichever engine the peer runs.
func TestEnginesShareFunctionLibrary(t *testing.T) {
	probes := []struct{ query, want, wantCode string }{
		{`upper-case("abc")`, "ABC", ""},
		{`subsequence((1,2,3,4), 1.5)`, "2 3 4", ""},
		{`for $i in (1,2) return substring("hello", $i)`, "hello ello", ""},
		{`sum((), 7)`, "7", ""},
		{`round(2.5)`, "3", ""},
		{`xs:integer((1,2))`, "", "XPTY0004"},
	}
	for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
		p := NewPeer("xrpc://p", nil)
		p.Engine = engine
		for _, probe := range probes {
			res, err := p.Query(probe.query)
			var xe *xdm.Error
			switch {
			case probe.wantCode != "":
				if !errors.As(err, &xe) || xe.Code != probe.wantCode {
					t.Errorf("engine %d: %s: err = %v, want %s", engine, probe.query, err, probe.wantCode)
				}
			case err != nil:
				t.Errorf("engine %d: %s: %v", engine, probe.query, err)
			case res.Serialize() != probe.want:
				t.Errorf("engine %d: %s = %q, want %q", engine, probe.query, res.Serialize(), probe.want)
			}
		}
	}
}

func TestQueryNoTransport(t *testing.T) {
	p := NewPeer("xrpc://alone", nil)
	p.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
	res, err := p.Query(`count(doc("filmDB.xml")//film)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "3" {
		t.Errorf("local query = %s", got)
	}
	p.RegisterModule(filmModule, "http://x.example.org/film.xq")
	_, err = p.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://elsewhere"} {f:filmsByActor("X")}`)
	if err == nil || !strings.Contains(err.Error(), "transport") {
		t.Errorf("err = %v", err)
	}
}

func TestResultHelpers(t *testing.T) {
	p := NewPeer("xrpc://p", nil)
	res, err := p.Query(`(1, "a", 2.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Serialize(); got != "1 a 2.5" {
		t.Errorf("serialize = %q", got)
	}
	if res.Updating {
		t.Error("read-only query flagged updating")
	}
	stats := p.ServerStats()
	if stats.ServedRequests != 0 {
		t.Errorf("local-only peer served %d requests", stats.ServedRequests)
	}
}

func TestTimeoutOptionParsed(t *testing.T) {
	p := NewPeer("xrpc://p", nil)
	p.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
	// timeout option present — query still runs locally
	res, err := p.Query(`
declare option xrpc:isolation "repeatable";
declare option xrpc:timeout "5";
count(doc("filmDB.xml")//film)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Serialize() != "3" {
		t.Errorf("got %s", res.Serialize())
	}
}
