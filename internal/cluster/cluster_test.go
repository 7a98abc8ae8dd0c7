package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// auctionsModule is the shard-side probe/scan module: probe is the
// paper's Q_B3 (the semi-join probe), scan is Q_B1 (the full partition
// scan).
const auctionsModule = `
module namespace b = "functions_b";
declare function b:Q_B1() as node()*
{ doc("auctions.xml")//closed_auction };
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };`

func testRegistry(t *testing.T) *modules.Registry {
	t.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(auctionsModule, "http://example.org/b.xq"); err != nil {
		t.Fatal(err)
	}
	return reg
}

func probeRequest(persons int) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_b",
		AtHint:    "http://example.org/b.xq",
		Func:      "Q_B3",
		Arity:     1,
	}
	for i := 0; i < persons; i++ {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(xmark.PersonID(i))}})
	}
	return br
}

func scanRequest() *client.BulkRequest {
	return &client.BulkRequest{
		ModuleURI: "functions_b",
		AtHint:    "http://example.org/b.xq",
		Func:      "Q_B1",
		Arity:     0,
		Calls:     [][]xdm.Sequence{{}},
	}
}

// singlePeerBaseline executes the request against one server holding
// the whole document and returns the encoded result sequences.
func singlePeerBaseline(t *testing.T, reg *modules.Registry, auctions string, br *client.BulkRequest) []byte {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	st := store.New()
	if err := st.LoadXML("auctions.xml", auctions); err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
	net.Register("xrpc://single", srv)
	res, err := client.New(net).CallBulk("xrpc://single", br)
	if err != nil {
		t.Fatal(err)
	}
	return encodeResults(br, res)
}

func encodeResults(br *client.BulkRequest, res []xdm.Sequence) []byte {
	return soap.EncodeResponse(&soap.Response{
		Module: br.ModuleURI, Method: br.Func, Results: res,
	})
}

// ----------------------------------------------------------- partition

func TestPartitionContiguousRanges(t *testing.T) {
	cfg := xmark.Config{Persons: 10, Seed: 1}
	parts, _, _, err := PartitionWithMeta("persons.xml", xmark.GeneratePersons(cfg), 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	next := 0
	for k, p := range parts {
		doc, err := xdm.ParseDocument("p", p)
		if err != nil {
			t.Fatalf("shard %d does not re-parse: %v", k, err)
		}
		persons := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "person"})
		total += len(persons)
		for _, pn := range persons {
			id, _ := pn.Attr("id")
			if want := fmt.Sprintf("person%d", next); id != want {
				t.Fatalf("shard %d: got %s, want %s (ranges must be contiguous in document order)", k, id, want)
			}
			next++
		}
	}
	if total != 10 {
		t.Fatalf("persons across shards = %d, want 10", total)
	}
}

func TestPartitionMoreShardsThanChildren(t *testing.T) {
	parts, _, _, err := PartitionWithMeta("d.xml", "<r><e>1</e><e>2</e></r>", 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		doc, err := xdm.ParseDocument("d", p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "e"}))
	}
	if total != 2 {
		t.Fatalf("elements across shards = %d, want 2", total)
	}
}

func TestPartitionReplicatesUnrepeatedContent(t *testing.T) {
	// no repeated subtree: every shard keeps the whole (reference)
	// document so local joins against it still work
	parts, _, _, err := PartitionWithMeta("ref.xml", "<config><limit>10</limit></config>", 3)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range parts {
		if !strings.Contains(p, "<limit>10</limit>") {
			t.Fatalf("shard %d lost unpartitionable content: %q", k, p)
		}
	}
}

func TestPartitionShardMatchesPartition(t *testing.T) {
	xml := xmark.GeneratePersons(xmark.Config{Persons: 7, Seed: 2})
	all, _, _, err := PartitionWithMeta("persons.xml", xml, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range all {
		one, _, _, err := PartitionShardWithMeta("persons.xml", xml, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if one != all[k] {
			t.Fatalf("PartitionShardWithMeta(%d) differs from PartitionWithMeta[%d]", k, k)
		}
	}
	if _, _, _, err := PartitionShardWithMeta("persons.xml", xml, 3, 3); err == nil {
		t.Fatal("out-of-range shard index not rejected")
	}
}

// ------------------------------------------------------ scatter-gather

func TestScatterGatherMatchesSinglePeer(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)

	for _, br := range []*client.BulkRequest{probeRequest(cfg.Persons), scanRequest()} {
		want := singlePeerBaseline(t, reg, auctions, br)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			net := netsim.NewNetwork(0, 0)
			dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions},
				DeployConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			co := dep.Coordinator()
			merged, err := co.Scatter(br)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeResults(br, merged); !bytes.Equal(got, want) {
				t.Fatalf("%s: merged response over %d shards differs from single-peer response",
					br.Func, shards)
			}
			// every shard must have been contacted exactly once, and the
			// scan's response bytes split across the shards: none ships
			// less than a quarter of an even share
			recv := make([]int64, shards)
			var total int64
			for s := range recv {
				reqs, _, r := net.PeerStats(dep.Table.Primary(s))
				if reqs != 1 {
					t.Fatalf("shard %d served %d requests, want 1", s, reqs)
				}
				recv[s], total = r, total+r
			}
			for s, r := range recv {
				if br.Func == "Q_B1" && r*int64(4*shards) < total {
					t.Fatalf("scan over %d shards: shard %d shipped %d of %d bytes", shards, s, r, total)
				}
			}
		}
	}
}

func TestScatterThroughBulkCallerInterface(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions}, DeployConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()
	br := probeRequest(cfg.Persons)

	viaBulk, err := co.CallBulk(DefaultClusterURI, br)
	if err != nil {
		t.Fatal(err)
	}
	// the engine's one-at-a-time mode (Table 2) over the coordinator:
	// one scattered request per call, the same answer
	compiled, err := pathfinder.Compile(`
import module namespace b="functions_b" at "http://example.org/b.xq";
for $pid in $pids return execute at {"xrpc://cluster"} {b:Q_B3($pid)}`, reg)
	if err != nil {
		t.Fatal(err)
	}
	var pids, flat xdm.Sequence
	for ci, call := range br.Calls {
		pids = append(pids, call[0]...)
		flat = append(flat, viaBulk[ci]...)
	}
	counted := &countingCaller{BulkCaller: co}
	viaOne, err := compiled.Eval(&pathfinder.ExecCtx{Bulk: counted, OneAtATime: true},
		map[string]xdm.Sequence{"pids": pids})
	if err != nil {
		t.Fatal(err)
	}
	if xdm.SerializeSequence(viaOne) != xdm.SerializeSequence(flat) {
		t.Fatal("CallBulk and the one-at-a-time mode disagree on the cluster URI")
	}
	if counted.requests != len(br.Calls) {
		t.Fatalf("one-at-a-time mode sent %d requests for %d calls", counted.requests, len(br.Calls))
	}

	// a non-cluster destination passes through to the underlying client
	single := store.New()
	if err := single.LoadXML("auctions.xml", auctions); err != nil {
		t.Fatal(err)
	}
	srv := server.New(single, reg, server.NewNativeExecutor(interp.New(reg), reg))
	net.Register("xrpc://direct", srv)
	direct, err := co.CallBulk("xrpc://direct", br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, direct), encodeResults(br, viaBulk)) {
		t.Fatal("pass-through destination differs from scattered result")
	}
}

// countingCaller counts the Bulk RPCs an evaluation sends.
type countingCaller struct {
	client.BulkCaller
	requests int
}

func (c *countingCaller) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	c.requests++
	return c.BulkCaller.CallBulk(dest, br)
}

func TestUpdatingRequestRejected(t *testing.T) {
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	br := scanRequest()
	br.Updating = true
	if _, err := dep.Coordinator().Scatter(br); err == nil {
		t.Fatal("updating bulk request was scattered")
	}
}

// ---------------------------------------------------------- resilience

// down simulates an unreachable peer: a transport-level error, not a
// SOAP fault.
func down(name string) netsim.Handler {
	return netsim.HandlerFunc(func(path string, body []byte) ([]byte, error) {
		return nil, fmt.Errorf("connection refused (%s)", name)
	})
}

func TestFailoverToReplica(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	br := probeRequest(cfg.Persons)
	want := singlePeerBaseline(t, reg, auctions, br)

	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions},
		DeployConfig{Shards: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Table.ReplicationFactor(); got != 2 {
		t.Fatalf("replication factor = %d, want 2", got)
	}
	// kill shard 1's primary; the coordinator must fail over to its
	// replica and still produce the identical merged response
	net.Register(dep.Table.Primary(1), down("shard1 primary"))
	merged, err := dep.Coordinator().Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(br, merged); !bytes.Equal(got, want) {
		t.Fatal("merged response after failover differs from single-peer response")
	}
	if reqs, _, _ := net.PeerStats(dep.Table.Replicas(1)[1]); reqs != 1 {
		t.Fatalf("replica of shard 1 served %d requests, want 1", reqs)
	}
}

func TestAllReplicasDownIsAnError(t *testing.T) {
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range dep.Table.Replicas(1) {
		net.Register(uri, down(uri))
	}
	_, err = dep.Coordinator().Scatter(scanRequest())
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("want shard 1 unreachable error, got %v", err)
	}
}

func TestFaultDoesNotFailover(t *testing.T) {
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	br := scanRequest()
	br.Func = "noSuchFunction"
	_, err = dep.Coordinator().Scatter(br)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want a SOAP fault, got %v", err)
	}
	// the fault is definitive: replicas hold the same shard, so they
	// must not have been consulted
	for s := 0; s < 2; s++ {
		if reqs, _, _ := net.PeerStats(dep.Table.Replicas(s)[1]); reqs != 0 {
			t.Fatalf("shard %d replica was consulted after a fault", s)
		}
	}
}

func TestLowestShardErrorWins(t *testing.T) {
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.Register(dep.Table.Primary(1), down("shard1"))
	net.Register(dep.Table.Primary(2), down("shard2"))
	for i := 0; i < 10; i++ {
		_, err := dep.Coordinator().Scatter(scanRequest())
		if err == nil || !strings.Contains(err.Error(), "shard 1:") {
			t.Fatalf("run %d: want the lowest failing shard (1) reported, got %v", i, err)
		}
	}
}

// TestScatterEncodesOnce pins the encode-once-scatter-many contract: one
// scatter performs exactly one request encoding no matter how many
// shards and replica failover attempts the request fans out to.
func TestScatterEncodesOnce(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	br := probeRequest(cfg.Persons)
	want := singlePeerBaseline(t, reg, auctions, br)

	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions},
		DeployConfig{Shards: 4, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	// two dead primaries and one dead first replica: the scatter still
	// succeeds via failover, re-sending the same bytes — never
	// re-encoding
	net.Register(dep.Table.Primary(1), down("shard1 primary"))
	net.Register(dep.Table.Primary(3), down("shard3 primary"))
	net.Register(dep.Table.Replicas(3)[1], down("shard3 replica1"))

	co := dep.Coordinator()
	merged, err := co.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, merged), want) {
		t.Fatal("merged response differs from single-peer baseline")
	}
	if got := co.Client.Encodes.Load(); got != 1 {
		t.Fatalf("scatter across 4 shards with failover encoded the request %d times, want 1", got)
	}
	// 4 shards + 3 failover attempts = 7 sends of the one encoding
	if got := co.Client.Requests.Load(); got != 7 {
		t.Fatalf("requests = %d, want 7 (4 shards + 3 failover attempts)", got)
	}
}

// --------------------------------------------------------- membership

func TestShardInfoSystemCall(t *testing.T) {
	reg := testRegistry(t)
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(net)
	for s := 0; s < 3; s++ {
		res, err := cl.CallBulk(dep.Table.Primary(s), &client.BulkRequest{
			ModuleURI: client.SystemModule,
			Func:      "shardInfo",
			Arity:     0,
			Calls:     [][]xdm.Sequence{{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		seq := res[0]
		if len(seq) < 3 || seq[0].StringValue() != fmt.Sprint(s) || seq[1].StringValue() != "3" {
			t.Fatalf("shard %d: shardInfo = %v", s, seq)
		}
		if seq[2].StringValue() != "auctions.xml" {
			t.Fatalf("shard %d: document list = %v", s, seq[2:])
		}
	}
}

// ----------------------------------------------------------- real HTTP

// TestCoordinatorOverHTTP drives the identical coordinator code over
// real HTTP peers: each shard server is exposed through httptest, the
// routing table holds http:// URIs, and the client sends through
// HTTPTransport — the "same interface" deployment path of xrpcd -shard.
func TestCoordinatorOverHTTP(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	br := probeRequest(cfg.Persons)
	want := singlePeerBaseline(t, reg, auctions, br)

	const shards = 3
	parts, _, _, err := PartitionWithMeta("auctions.xml", auctions, shards)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRoutingTable(shards)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		st := store.New()
		if err := st.LoadXML("auctions.xml", parts[s]); err != nil {
			t.Fatal(err)
		}
		srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
		srv.Shard, srv.Shards = s, shards
		hs := httptest.NewServer(srv)
		defer hs.Close()
		if err := rt.Add(s, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	co := NewCoordinator(rt, client.New(client.NewHTTPTransport()))
	merged, err := co.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(br, merged); !bytes.Equal(got, want) {
		t.Fatal("merged response over HTTP shards differs from single-peer response")
	}
}
