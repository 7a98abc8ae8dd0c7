package pathfinder

import (
	"testing"
	"xrpc/internal/store/storetest"

	"xrpc/internal/client"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// The deterministic-update-order extension ([35], §2.3): a bulk of
// updating calls executes out of query order on the server (per-site
// batching), yet the pending updates apply in original query order.
func TestDeterministicUpdateOrder(t *testing.T) {
	runDeterministicUpdateOrder(t, 1)
}

// The same protocol survives a parallel bulk executor: updating
// requests fall back to sequential evaluation, so the insert order is
// unchanged at any pool size.
func TestDeterministicUpdateOrderParallel(t *testing.T) {
	runDeterministicUpdateOrder(t, 8)
}

func runDeterministicUpdateOrder(t *testing.T, parallelism int) {
	f := newFixture(t)
	f.ySrv.SetParallelism(parallelism)
	upd := `
module namespace lg="log";
declare updating function lg:append($v as xs:string)
{ insert node <e v="{$v}"/> as last into doc("filmDB.xml")/films };`
	if err := f.reg.Register(upd, "http://x.example.org/log.xq"); err != nil {
		t.Fatal(err)
	}
	// Q6 pattern: two execute-at sites inside one loop. Site batching
	// executes (A1, A2) then (B1, B2); query order is A1, B1, A2, B2.
	f.eval(t, `
import module namespace lg="log" at "http://x.example.org/log.xq";
for $n in ("1", "2")
return (
  execute at {"xrpc://y.example.org"} {lg:append(concat("A", $n))},
  execute at {"xrpc://y.example.org"} {lg:append(concat("B", $n))} )`, nil)
	if f.ySrv.ServedRequests != 2 {
		t.Fatalf("y served %d requests, want 2 (one bulk per site)", f.ySrv.ServedRequests)
	}
	doc := storetest.Doc(t, f.yStore(), "filmDB.xml")
	entries := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "e"})
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	var got []string
	for _, e := range entries {
		v, _ := e.Attr("v")
		got = append(got, v)
	}
	// site-blocked deterministic order: site A's calls (in iteration
	// order) then site B's — stable and independent of network timing
	want := []string{"A1", "A2", "B1", "B2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insert order = %v, want %v", got, want)
		}
	}
}

// Without SeqNrs, arrival order decides (stable sort keeps it).
func TestUntaggedUpdatesKeepArrivalOrder(t *testing.T) {
	f := newFixture(t)
	upd := `
module namespace lg="log";
declare updating function lg:append($v as xs:string)
{ insert node <e v="{$v}"/> as last into doc("filmDB.xml")/films };`
	if err := f.reg.Register(upd, "http://x.example.org/log.xq"); err != nil {
		t.Fatal(err)
	}
	cl := client.New(f.net)
	for _, v := range []string{"first", "second"} {
		if _, err := cl.CallBulk("xrpc://y.example.org", &client.BulkRequest{
			ModuleURI: "log", Func: "append", Arity: 1, Updating: true,
			Calls: [][]xdm.Sequence{{{xdm.String(v)}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	doc := storetest.Doc(t, f.yStore(), "filmDB.xml")
	entries := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "e"})
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if v, _ := entries[0].Attr("v"); v != "first" {
		t.Errorf("order = %v", entries)
	}
}

// SeqNrs survive the SOAP round trip.
func TestSeqNrsRoundTrip(t *testing.T) {
	req := &soap.Request{
		Module: "m", Method: "f", Arity: 1, Location: "l",
		SeqNrs: []int64{42, 7},
		Calls: [][]xdm.Sequence{
			{{xdm.String("a")}},
			{{xdm.String("b")}},
		},
	}
	back, err := soap.DecodeRequest(soap.EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.SeqNrs) != 2 || back.SeqNrs[0] != 42 || back.SeqNrs[1] != 7 {
		t.Errorf("seqNrs = %v", back.SeqNrs)
	}
	// untagged requests stay untagged
	req2 := &soap.Request{
		Module: "m", Method: "f", Arity: 1, Location: "l",
		Calls: [][]xdm.Sequence{{{xdm.String("a")}}},
	}
	back2, err := soap.DecodeRequest(soap.EncodeRequest(req2))
	if err != nil {
		t.Fatal(err)
	}
	if back2.SeqNrs != nil {
		t.Errorf("unexpected seqNrs: %v", back2.SeqNrs)
	}
}

// Read-only bulk requests evaluated by the server's worker pool return
// results in call order: a loop-lifted query yields the same sequence
// at any pool size.
func TestParallelReadOnlyBulkDeterministic(t *testing.T) {
	q := `
import module namespace film="films" at "http://x.example.org/film.xq";
for $a in ("Sean Connery", "Gerard Depardieu", "Nobody", "Sean Connery",
           "Gerard Depardieu", "Sean Connery", "Nobody", "Gerard Depardieu")
return execute at {"xrpc://y.example.org"} {film:filmsByActor($a)}`
	f := newFixture(t)
	want := xdm.SerializeSequence(f.eval(t, q, nil))
	for _, workers := range []int{2, 4, 16} {
		fp := newFixture(t)
		fp.yExec.SetParallelism(workers)
		got := xdm.SerializeSequence(fp.eval(t, q, nil))
		if got != want {
			t.Errorf("workers=%d: result differs\nsequential: %s\nparallel:   %s", workers, want, got)
		}
	}
}
