package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/xdm"
)

// respCacheFixtures are read-only bulk requests spanning the fixture
// modules: multi-call bulks, empty results, mixed item types.
func respCacheFixtures() []*client.BulkRequest {
	return []*client.BulkRequest{
		{
			ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
			Func: "filmsByActor", Arity: 1,
			Calls: [][]xdm.Sequence{
				{{xdm.String("Sean Connery")}},
				{{xdm.String("Gerard Depardieu")}},
				{{xdm.String("Nobody")}},
			},
		},
		{
			ModuleURI: "test", Func: "echo", Arity: 1,
			Calls: [][]xdm.Sequence{
				{{xdm.String("a"), xdm.Integer(42), xdm.Boolean(true), xdm.Double(2.5)}},
				{{}},
			},
		},
		{
			ModuleURI: "test", Func: "echoVoid", Arity: 0,
			Calls: [][]xdm.Sequence{{}},
		},
	}
}

// TestRespCacheByteIdentity: every response served through the cache —
// the populating miss, the warm hit, and the partial hit — must be
// byte-identical to an uncached peer's response, fixture by fixture.
func TestRespCacheByteIdentity(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	newPeer(t, "xrpc://cold", filmDBY, net)
	warm := newPeer(t, "xrpc://warm", filmDBY, net)
	warm.server.RespCache = NewRespCache(0)

	cl := client.New(net)
	for fi, br := range respCacheFixtures() {
		enc := cl.EncodeBulk(br)
		body := enc.Copy()
		enc.Release()
		want, err := net.Send("xrpc://cold", "/xrpc", body)
		if err != nil {
			t.Fatalf("fixture %d cold: %v", fi, err)
		}
		for round := 0; round < 3; round++ {
			got, err := net.Send("xrpc://warm", "/xrpc", body)
			if err != nil {
				t.Fatalf("fixture %d round %d: %v", fi, round, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fixture %d round %d: cached response differs from cold\ncold: %s\nwarm: %s",
					fi, round, want, got)
			}
		}
	}
	st := warm.server.RespCache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache was not exercised: %+v", st)
	}

	// partial hit: a bulk whose call set overlaps an already-cached one
	// executes only the new call and still matches the cold peer
	mixed := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{
			{{xdm.String("Sean Connery")}}, // cached above
			{{xdm.String("Julie Andrews")}}, // never asked before
		},
	}
	enc := cl.EncodeBulk(mixed)
	body := enc.Copy()
	enc.Release()
	want, err := net.Send("xrpc://cold", "/xrpc", body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Send("xrpc://warm", "/xrpc", body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partial-hit response differs from cold\ncold: %s\nwarm: %s", want, got)
	}
}

// TestRespCacheCommitInvalidates: a committed write steps the store
// version and the next read re-executes instead of serving the
// pre-commit entry — and serves exactly what an uncached peer would.
func TestRespCacheCommitInvalidates(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	cold := newPeer(t, "xrpc://cold", filmDBY, net)
	warm := newPeer(t, "xrpc://warm", filmDBY, net)
	warm.server.RespCache = NewRespCache(0)
	_ = cold

	read := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("James Dean")}}},
	}
	write := &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("East of Eden")}, {xdm.String("James Dean")}}},
	}

	cl := client.New(net)
	for _, dest := range []string{"xrpc://cold", "xrpc://warm"} {
		res, err := cl.CallBulk(dest, read)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0]) != 0 {
			t.Fatalf("%s: unexpected pre-write result %v", dest, res)
		}
	}
	// repeat read is a hit
	if _, err := cl.CallBulk("xrpc://warm", read); err != nil {
		t.Fatal(err)
	}
	st := warm.server.RespCache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("pre-write stats = %+v; want 1 hit, 1 miss", st)
	}

	// the write commits immediately (no queryID → rule R_Fu applies it
	// on the spot) and must advance the version on both peers
	for _, dest := range []string{"xrpc://cold", "xrpc://warm"} {
		if _, err := cl.CallBulk(dest, write); err != nil {
			t.Fatal(err)
		}
	}

	for _, dest := range []string{"xrpc://cold", "xrpc://warm"} {
		res, err := cl.CallBulk(dest, read)
		if err != nil {
			t.Fatal(err)
		}
		if got := xdm.SerializeSequence(res[0]); got != "<name>East of Eden</name>" {
			t.Fatalf("%s: post-write read = %q (stale cache?)", dest, got)
		}
	}
	st = warm.server.RespCache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("version fence did not evict: %+v", st)
	}

	// note: the updating request itself ran through the cache stage (it
	// carries no queryID) — its non-empty PUL must have kept it out of
	// the cache, so repeating it appends a second film
	if _, err := cl.CallBulk("xrpc://warm", write); err != nil {
		t.Fatal(err)
	}
	res, err := cl.CallBulk("xrpc://warm", read)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 2 {
		t.Fatalf("second write served from cache: %d film(s), want 2", len(res[0]))
	}
}

// TestRespCacheModuleRegistrationInvalidates: re-registering a module
// changes semantics without a store write; the registry generation in
// the key must keep the old entry from serving.
func TestRespCacheModuleRegistrationInvalidates(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://p", filmDBY, net)
	p.server.RespCache = NewRespCache(0)

	br := &client.BulkRequest{
		ModuleURI: "test", Func: "echo", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("x")}}},
	}
	cl := client.New(net)
	res, err := cl.CallBulk("xrpc://p", br)
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(res[0]); got != "x" {
		t.Fatalf("echo = %q", got)
	}
	// redefine test:echo to decorate its argument
	redefined := `
module namespace tst="test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { ("got", $x) };`
	if err := p.reg.Register(redefined); err != nil {
		t.Fatal(err)
	}
	res, err = cl.CallBulk("xrpc://p", br)
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(res[0]); got != "got x" {
		t.Fatalf("post-reregistration echo = %q (stale response cache?)", got)
	}
}

// TestFunctionCacheLRUBound is the regression test for the unbounded
// function cache: plans stay within the configured entry cap however
// many module URIs cycle through.
func TestFunctionCacheLRUBound(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://p", filmDBY, net)
	p.exec.SetPlanCacheLimits(0, 3)

	cl := client.New(net)
	for i := 0; i < 12; i++ {
		uri := fmt.Sprintf("churn%d", i)
		mod := fmt.Sprintf(`module namespace c="%s"; declare function c:n() { %d };`, uri, i)
		if err := p.reg.Register(mod); err != nil {
			t.Fatal(err)
		}
		res, err := cl.CallBulk("xrpc://p", &client.BulkRequest{
			ModuleURI: uri, Func: "n", Arity: 0, Calls: [][]xdm.Sequence{{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0][0].StringValue(); got != fmt.Sprint(i) {
			t.Fatalf("churn%d = %q", i, got)
		}
	}
	st := p.exec.PlanCacheStats()
	if st.Entries > 3 {
		t.Fatalf("plan cache grew past its entry cap: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under churn: %+v", st)
	}
}

// TestReregistrationDropsOnlyDependentPlans: with no hook wired anywhere,
// re-registering one module makes the executor recompile exactly that
// module's plan and the plans importing it, once; every other module's
// plan stays warm.
func TestReregistrationDropsOnlyDependentPlans(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://p", filmDBY, net)
	if err := p.reg.Register(`
module namespace i="importer";
import module namespace tst="test";
declare function i:twice($x as item()*) as item()* { (tst:echo($x), tst:echo($x)) };`); err != nil {
		t.Fatal(err)
	}

	films := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	echo := &client.BulkRequest{
		ModuleURI: "test", Func: "echo", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("x")}}},
	}
	twice := &client.BulkRequest{
		ModuleURI: "importer", Func: "twice", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("x")}}},
	}
	cl := client.New(net)
	call := func(br *client.BulkRequest) string {
		t.Helper()
		res, err := cl.CallBulk("xrpc://p", br)
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(res[0])
	}
	for _, br := range []*client.BulkRequest{films, echo, twice} {
		call(br)
	}

	if err := p.reg.Register(`
module namespace tst="test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { ("got", $x) };`); err != nil {
		t.Fatal(err)
	}

	before := p.exec.PlanCacheStats()
	call(films)
	if st := p.exec.PlanCacheStats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("films plan was dropped too: %+v → %+v", before, st)
	}
	if got := call(echo); got != "got x" {
		t.Fatalf("echo after re-registration = %q (stale plan)", got)
	}
	if got := call(twice); got != "got x got x" {
		t.Fatalf("importer after re-registration = %q (stale plan)", got)
	}
	if st := p.exec.PlanCacheStats(); st.Misses != before.Misses+2 {
		t.Fatalf("test and its importer should each recompile once: misses %d → %d", before.Misses, st.Misses)
	}
	before = p.exec.PlanCacheStats()
	call(echo)
	call(twice)
	if st := p.exec.PlanCacheStats(); st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Fatalf("recompiled plans are not warm: %+v → %+v", before, st)
	}
}

// TestRespCacheConcurrentReadsAndWrites drives concurrent cached reads
// against a stream of committed writes (run with -race). One writer
// commits sequentially and must read its own writes through the cache;
// readers racing it must observe monotonically non-decreasing state —
// the version fence may serve a slightly older committed version, but
// never travels backwards. (Concurrent *writers* to one document are
// outside the store's contract — XRPC serializes those with queryID'd
// 2PC — so the writer here is deliberately single.)
func TestRespCacheConcurrentReadsAndWrites(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://p", filmDBY, net)
	p.server.RespCache = NewRespCache(0)

	const writes = 50
	actor := "Race Actor"
	read := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String(actor)}}},
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := client.New(net)
			prev := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := cl.CallBulk("xrpc://p", read)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res[0]) < prev {
					t.Errorf("reader %d: films went backwards %d -> %d", g, prev, len(res[0]))
					return
				}
				prev = len(res[0])
			}
		}(g)
	}

	cl := client.New(net)
	for i := 0; i < writes; i++ {
		write := &client.BulkRequest{
			ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
			Calls: [][]xdm.Sequence{{{xdm.String(fmt.Sprintf("Film %d", i))}, {xdm.String(actor)}}},
		}
		if _, err := cl.CallBulk("xrpc://p", write); err != nil {
			t.Fatal(err)
		}
		res, err := cl.CallBulk("xrpc://p", read)
		if err != nil {
			t.Fatal(err)
		}
		// read-your-writes through the cache: i+1 films by now
		if len(res[0]) != i+1 {
			t.Fatalf("after write %d read %d films", i, len(res[0]))
		}
	}
	close(done)
	wg.Wait()
}
