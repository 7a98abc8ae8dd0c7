package core

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/soap"
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

// queryIDRecorder notes the queryID (and its timeout) of every request a
// peer sends.
type queryIDRecorder struct {
	inner    netsim.Transport
	ids      []string
	timeouts []int
}

func (r *queryIDRecorder) Send(dest, path string, body []byte) ([]byte, error) {
	if req, err := soap.DecodeRequest(body); err == nil && req.QueryID != nil {
		r.ids = append(r.ids, req.QueryID.ID)
		r.timeouts = append(r.timeouts, req.QueryID.Timeout)
	}
	return r.inner.Send(dest, path, body)
}

// filmPeers wires a film peer y and a query peer whose outgoing requests
// are recorded.
func filmPeers(t testing.TB) (y, local *Peer, rec *queryIDRecorder) {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	y = NewPeer("xrpc://y", net)
	if err := y.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
		t.Fatal(err)
	}
	net.Register("xrpc://y", y.Handler())
	rec = &queryIDRecorder{inner: net}
	local = NewPeer("xrpc://local", rec)
	for _, p := range []*Peer{y, local} {
		if err := p.RegisterModule(filmModule, "http://x.example.org/film.xq"); err != nil {
			t.Fatal(err)
		}
	}
	return y, local, rec
}

func mustQuery(t testing.TB, p *Peer, q string) string {
	t.Helper()
	res, err := p.Query(q)
	if err != nil {
		t.Fatalf("%v\nquery: %s", err, q)
	}
	return res.Serialize()
}

// TestUpdateBelowAnyNodeCommits: wherever in a query an update sits — a
// typeswitch branch, computed element content, a quantifier's satisfies,
// a path predicate calling an updating function (interp's
// TestUpdatingFunctionClassification classifies the same four) — the
// peer runs it as an updating query and commits it, on either engine
// setting, instead of raising XUST0001.
func TestUpdateBelowAnyNodeCommits(t *testing.T) {
	for _, q := range []string{
		`for $a in doc("filmDB.xml")//film return typeswitch ($a) case element() return delete node $a default return ()`,
		`element {"gone"} {delete node doc("filmDB.xml")//film}`,
		`some $f in doc("filmDB.xml")//film satisfies delete node $f`,
		`declare updating function local:del($n as node()) { delete node $n }; doc("filmDB.xml")//film[local:del(.)]`,
	} {
		for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
			p := NewPeer("xrpc://p", nil)
			p.Engine = engine
			if err := p.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
				t.Fatal(err)
			}
			res, err := p.Query(q)
			if err != nil {
				t.Errorf("engine %v: %v\nquery: %s", engine, err, q)
				continue
			}
			if !res.Updating {
				t.Errorf("engine %v: not run as an updating query: %s", engine, q)
			}
			if got := mustQuery(t, p, `count(doc("filmDB.xml")//film)`); got != "0" {
				t.Errorf("engine %v: %s films left after %s", engine, got, q)
			}
		}
	}
}

// A malformed prolog option is a static error of the text, raised by
// whichever engine the peer runs, not a silent fall back to the default.
func TestMalformedPrologOptionsRejected(t *testing.T) {
	for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
		p := NewPeer("xrpc://p", nil)
		p.Engine = engine
		for _, prolog := range []string{
			`declare option xrpc:timeout "abc";`,
			`declare option xrpc:timeout "-5";`,
			`declare option xrpc:timeout "0";`,
			`declare option xrpc:isolation "repeatble";`,
		} {
			_, err := p.Query(prolog + ` 1`)
			var xe *xdm.Error
			if !errors.As(err, &xe) || xe.Code != "XQST0013" {
				t.Errorf("engine %d: %s: err = %v, want XQST0013", engine, prolog, err)
			}
		}
		if got := mustQuery(t, p, `declare option xrpc:isolation "none"; declare option xrpc:timeout "7"; 1`); got != "1" {
			t.Errorf("engine %d: well-formed options: %s", engine, got)
		}
	}

	// a well-formed timeout reaches the queryID; without one the peer's
	// default does
	_, local, rec := filmPeers(t)
	const call = `import module namespace f="films" at "http://x.example.org/film.xq";
count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})`
	mustQuery(t, local, `declare option xrpc:isolation "repeatable"; declare option xrpc:timeout "5"; `+call)
	mustQuery(t, local, `declare option xrpc:isolation "repeatable"; `+call)
	if len(rec.timeouts) != 2 || rec.timeouts[0] != 5 || rec.timeouts[1] != local.DefaultTimeout {
		t.Errorf("queryID timeouts = %v, want [5 %d]", rec.timeouts, local.DefaultTimeout)
	}
}

// The query plan cache needs no invalidation hook: the next run of a
// cached text sees a re-registered import, and a registration the text
// does not import leaves its plan warm.
func TestReregisteredImportSeenByCachedQuery(t *testing.T) {
	for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
		p := NewPeer("xrpc://p", nil)
		p.Engine = engine
		register := func(src string) {
			t.Helper()
			if err := p.RegisterModule(src); err != nil {
				t.Fatal(err)
			}
		}
		register(`module namespace m="m"; declare function m:v() { "v1" };`)
		const q = `import module namespace m="m"; m:v()`
		for i := 0; i < 2; i++ {
			if got := mustQuery(t, p, q); got != "v1" {
				t.Fatalf("engine %d: run %d = %s", engine, i, got)
			}
		}
		warm := p.Plans.Stats()
		if warm.Misses != 1 || warm.Hits != 1 {
			t.Fatalf("engine %d: warm-up stats %+v", engine, warm)
		}

		register(`module namespace other="other"; declare function other:w() { 0 };`)
		if got := mustQuery(t, p, q); got != "v1" {
			t.Fatalf("engine %d: after unrelated registration = %s", engine, got)
		}
		if st := p.Plans.Stats(); st.Hits != warm.Hits+1 || st.Misses != warm.Misses {
			t.Fatalf("engine %d: an unrelated registration flushed the plan: %+v → %+v", engine, warm, st)
		}

		register(`module namespace m="m"; declare function m:v() { "v2" };`)
		if got := mustQuery(t, p, q); got != "v2" {
			t.Fatalf("engine %d: after re-registering m = %s (stale plan)", engine, got)
		}
		if st := p.Plans.Stats(); st.Misses != warm.Misses+1 {
			t.Fatalf("engine %d: misses %d → %d, want one recompilation", engine, warm.Misses, st.Misses)
		}
	}
}

// A cached entry holds nothing of the run that compiled it: the same
// repeatable-read text run twice mints two queryIDs, and the second run
// sees what was committed between them.
func TestCachedQueryMintsFreshQueryID(t *testing.T) {
	y, local, rec := filmPeers(t)
	const q = `declare option xrpc:isolation "repeatable";
import module namespace f="films" at "http://x.example.org/film.xq";
count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})`
	if got := mustQuery(t, local, q); got != "2" {
		t.Fatalf("first run = %s", got)
	}
	mustQuery(t, y, `insert node <film><name>Dr. No</name><actor>Sean Connery</actor></film> into doc("filmDB.xml")/films`)
	if got := mustQuery(t, local, q); got != "3" {
		t.Fatalf("second run = %s, want 3: it read the first run's snapshot", got)
	}
	if st := local.Plans.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("the second run did not come from the cache: %+v", st)
	}
	if len(rec.ids) != 2 || rec.ids[0] == "" || rec.ids[0] == rec.ids[1] {
		t.Fatalf("queryIDs = %q, want two distinct ones", rec.ids)
	}
}

// One cached entry serves both engines, for a read and for an updating
// query (which runs in the interpreter under either).
func TestEnginesShareCachedEntry(t *testing.T) {
	p := NewPeer("xrpc://p", nil)
	p.LoadDocument("filmDB.xml", xmark.PaperFilmDB)
	const read = `count(doc("filmDB.xml")//film)`
	const update = `insert node <film><name>X</name></film> into doc("filmDB.xml")/films`
	want := 3
	for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
		p.Engine = engine
		res, err := p.Query(update)
		if err != nil || !res.Updating {
			t.Fatalf("engine %d: update: updating=%v err=%v", engine, res != nil && res.Updating, err)
		}
		want++
		if got := mustQuery(t, p, read); got != fmt.Sprint(want) {
			t.Fatalf("engine %d: films = %s, want %d", engine, got, want)
		}
	}
	if st := p.Plans.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("two texts under two engines: %+v, want 2 misses and 2 hits", st)
	}
}

const warmQuery = `import module namespace f="films" at "http://x.example.org/film.xq";
for $a in ("Sean Connery", "Gerard Depardieu")
return count(execute at {"xrpc://y"} {f:filmsByActor($a)})`

// A hit parses nothing: the warm lookup of a fixed text allocates the
// normalized key and nothing else.
func TestWarmLookupAllocatesOnlyTheKey(t *testing.T) {
	_, local, _ := filmPeers(t)
	mustQuery(t, local, warmQuery)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := local.compile(warmQuery); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("warm lookup: %v allocs, want 1 (xq.Normalize)", allocs)
	}
	if st := local.Plans.Stats(); st.Misses != 1 {
		t.Fatalf("warm lookups compiled: %+v", st)
	}
}

// BenchmarkPeerQueryWarm is the warm front-end path end to end: a fixed
// execute-at text, one cache lookup, one Bulk RPC to an in-process peer.
func BenchmarkPeerQueryWarm(b *testing.B) {
	_, local, _ := filmPeers(b)
	mustQuery(b, local, warmQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.Query(warmQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// A query's result outlives the pin on the peer's documents: nodes of a
// stored document come back as copies, so a later commit that writes the
// document in place leaves the result as the query read it.
func TestQueryResultOutlivesLaterCommit(t *testing.T) {
	for _, engine := range []EngineKind{EngineLoopLifted, EngineInterpreted} {
		p := NewPeer("xrpc://p", nil)
		p.Engine = engine
		if err := p.LoadDocument("filmDB.xml", xmark.PaperFilmDB); err != nil {
			t.Fatal(err)
		}
		res, err := p.Query(`(doc("filmDB.xml")//film)[1]/name`)
		if err != nil {
			t.Fatal(err)
		}
		before := res.Serialize()
		if _, err := p.Query(`replace value of node (doc("filmDB.xml")//film)[1]/name with "Renamed"`); err != nil {
			t.Fatal(err)
		}
		if in, _ := p.Store.Commits(); in != 1 {
			t.Fatalf("engine %v: the update did not commit in place", engine)
		}
		if got := res.Serialize(); got != before {
			t.Errorf("engine %v: an earlier result reads %s after the commit, %s before", engine, got, before)
		}
		if got := mustQuery(t, p, `string((doc("filmDB.xml")//film)[1]/name)`); got != "Renamed" {
			t.Errorf("engine %v: the document reads %q after the commit", engine, got)
		}
	}
}
