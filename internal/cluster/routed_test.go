package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// personsModule is the routed-workload module: reads and an updating
// function, all keyed by the person id — the partition key of
// persons.xml's /site/people/person container.
const personsModule = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare function p:cityOf($pid as xs:string) as xs:string
{ string(doc("persons.xml")//person[@id=$pid]/address/city) };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`

const personsPath = "/site/people/person"

func personRoutes() []RouteSpec {
	var out []RouteSpec
	for _, fn := range []string{"getPerson", "cityOf", "setCity"} {
		out = append(out, RouteSpec{
			ModuleURI: "functions_p", Func: fn, KeyArg: 0,
			Doc: "persons.xml", Path: personsPath,
		})
	}
	return out
}

func personsRegistry(t *testing.T) *modules.Registry {
	t.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(personsModule, "http://example.org/p.xq"); err != nil {
		t.Fatal(err)
	}
	return reg
}

func getPersonRequest(pids ...string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      "getPerson",
		Arity:     1,
	}
	for _, pid := range pids {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(pid)}})
	}
	return br
}

func setCityRequest(city string, pids ...string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      "setCity",
		Arity:     2,
		Updating:  true,
	}
	for _, pid := range pids {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(pid)}, {xdm.String(city)}})
	}
	return br
}

// deployPersons builds a sharded persons.xml deployment with routes
// registered.
func deployPersons(t *testing.T, net *netsim.Network, persons, shards, replication int) *Deployment {
	t.Helper()
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	dep, err := Deploy(net, personsRegistry(t), map[string]string{"persons.xml": xml},
		DeployConfig{Shards: shards, Replication: replication, Routes: personRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// singlePersonsBaseline runs the request against one unsharded peer.
func singlePersonsBaseline(t *testing.T, persons int, br *client.BulkRequest, after *client.BulkRequest) []byte {
	t.Helper()
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	return singleDocBaseline(t, personsRegistry(t), "persons.xml", xml, br, after)
}

// singleDocBaseline loads one document into one unsharded peer, applies
// the update after (if any), and returns br's encoded result there.
func singleDocBaseline(t *testing.T, reg *modules.Registry, doc, xml string, br, after *client.BulkRequest) []byte {
	t.Helper()
	net := netsim.NewNetwork(0, 0)
	st := store.New()
	if err := st.LoadXML(doc, xml); err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(nil, reg, nil), reg))
	net.Register("xrpc://single", srv)
	cl := client.New(net)
	if after != nil {
		// apply the update first (isolation "none": applied immediately)
		if _, err := cl.CallBulk("xrpc://single", after); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.CallBulk("xrpc://single", br)
	if err != nil {
		t.Fatal(err)
	}
	return encodeResults(br, res)
}

// ------------------------------------------------------------ key order

func TestCompareKeysNaturalOrder(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"person2", "person10", -1},
		{"person10", "person2", 1},
		{"person7", "person7", 0},
		{"a", "b", -1},
		{"a1b2", "a1b10", -1},
		{"item9x", "item10a", -1},
		{"", "a", -1},
		{"2", "10", -1},
		{"person", "person0", -1},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// leading zeros: numerically equal, but deterministically ordered
	if CompareKeys("a01", "a1") == 0 || CompareKeys("a01", "a1") != -CompareKeys("a1", "a01") {
		t.Error("leading-zero keys must order deterministically and antisymmetrically")
	}
}

func TestKeyRangeDescriptorRoundTrip(t *testing.T) {
	ranges := []KeyRange{
		{Doc: "persons.xml", Path: personsPath, Lo: 3, Hi: 7, Keyed: true, KeyAttr: "id", MinKey: "person3", MaxKey: "person6"},
		{Doc: "weird \"doc\".xml", Path: "/a b/c", Lo: 0, Hi: 0, Keyed: true, KeyAttr: "k", MinKey: "", MaxKey: ""},
		{Doc: "auctions.xml", Path: "/site/closed_auctions/closed_auction", Lo: 5, Hi: 9},
	}
	for _, r := range ranges {
		back, err := ParseKeyRange(r.String())
		if err != nil {
			t.Fatalf("ParseKeyRange(%q): %v", r.String(), err)
		}
		if back != r {
			t.Fatalf("round trip: %q became %+v, want %+v", r.String(), back, r)
		}
	}
	for _, bad := range []string{"", "persons.xml", `"a"`, `"a" "b" [x,y)`, `"a" "b" [1,2) "k" "x"`} {
		if _, err := ParseKeyRange(bad); err == nil {
			t.Errorf("ParseKeyRange(%q) did not fail", bad)
		}
	}
}

// ----------------------------------------------------- table validation

func TestRoutingTableValidate(t *testing.T) {
	build := func(t *testing.T, shards int, f func(rt *RoutingTable)) *RoutingTable {
		t.Helper()
		rt, err := NewRoutingTable(shards)
		if err != nil {
			t.Fatal(err)
		}
		f(rt)
		return rt
	}
	keyed := func(lo, hi int, min, max string) KeyRange {
		return KeyRange{Doc: "d.xml", Path: "/r/e", Lo: lo, Hi: hi, Keyed: true, KeyAttr: "id", MinKey: min, MaxKey: max}
	}
	cases := []struct {
		name    string
		rt      *RoutingTable
		wantErr string // "" = valid
	}{
		{"valid single shard", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
		}), ""},
		{"valid with replicas and ranges", build(t, 2, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(0, "xrpc://a.r1")
			rt.Add(1, "http://b:8080")
			rt.Add(1, "http://b2:8080")
			rt.SetRanges(0, []KeyRange{keyed(0, 2, "e0", "e1")})
			rt.SetRanges(1, []KeyRange{keyed(2, 4, "e2", "e3")})
		}), ""},
		{"shard-index gap", build(t, 3, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(2, "xrpc://c")
		}), "shard 1 has no peers"},
		{"empty uri", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "  ")
		}), "empty peer URI"},
		{"whitespace uri", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://host name")
		}), "contains whitespace"},
		{"empty host", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://")
		}), "empty host"},
		{"empty scheme", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "://host")
		}), "empty scheme"},
		{"duplicate within shard", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(0, "xrpc://a")
		}), "duplicate peer URI"},
		{"duplicate across shards", build(t, 2, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(1, "xrpc://a")
		}), "duplicate peer URI"},
		{"range gap", build(t, 2, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(1, "xrpc://b")
			rt.SetRanges(0, []KeyRange{keyed(0, 2, "e0", "e1")})
			rt.SetRanges(1, []KeyRange{keyed(3, 4, "e3", "e3")})
		}), "range gap"},
		{"range metadata missing on one shard", build(t, 2, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(1, "xrpc://b")
			rt.SetRanges(0, []KeyRange{keyed(0, 2, "e0", "e1")})
		}), "missing range metadata"},
		{"inverted range", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.SetRanges(0, []KeyRange{keyed(2, 0, "e0", "e1")})
		}), "inverted range"},
		{"inverted key bounds", build(t, 1, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.SetRanges(0, []KeyRange{keyed(0, 2, "e9", "e1")})
		}), "inverted key bounds"},
		{"inconsistent key attr", build(t, 2, func(rt *RoutingTable) {
			rt.Add(0, "xrpc://a")
			rt.Add(1, "xrpc://b")
			rt.SetRanges(0, []KeyRange{keyed(0, 2, "e0", "e1")})
			r := keyed(2, 4, "e2", "e3")
			r.KeyAttr = "name"
			rt.SetRanges(1, []KeyRange{r})
		}), "keys"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.rt.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if !c.rt.Complete() {
					t.Fatal("Complete() = false for a valid table")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.wantErr)
			}
			if c.rt.Complete() {
				t.Fatal("Complete() = true for an invalid table")
			}
		})
	}
}

// -------------------------------------------------------- range emission

func TestPartitionEmitsRanges(t *testing.T) {
	xml := xmark.GeneratePersons(xmark.Config{Persons: 10, Seed: 1})
	_, ranges, _, err := PartitionWithMeta("persons.xml", xml, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 {
		t.Fatalf("ranges for %d shards, want 3", len(ranges))
	}
	wantLo := 0
	for k, rs := range ranges {
		if len(rs) != 1 {
			t.Fatalf("shard %d: %d ranges, want 1 (the person container)", k, len(rs))
		}
		r := rs[0]
		if r.Doc != "persons.xml" || r.Path != personsPath {
			t.Fatalf("shard %d: range %+v addresses the wrong container", k, r)
		}
		if r.Lo != wantLo {
			t.Fatalf("shard %d starts at %d, want %d (contiguous tiling)", k, r.Lo, wantLo)
		}
		wantLo = r.Hi
		if !r.Keyed || r.KeyAttr != "id" {
			t.Fatalf("shard %d: person container not keyed by id: %+v", k, r)
		}
		if r.MinKey != fmt.Sprintf("person%d", r.Lo) || r.MaxKey != fmt.Sprintf("person%d", r.Hi-1) {
			t.Fatalf("shard %d: key bounds %q..%q disagree with slice [%d,%d)", k, r.MinKey, r.MaxKey, r.Lo, r.Hi)
		}
	}
	if wantLo != 10 {
		t.Fatalf("ranges tile to %d, want 10", wantLo)
	}

	// per-shard partitioning emits the identical metadata
	for k := 0; k < 3; k++ {
		_, one, _, err := PartitionShardWithMeta("persons.xml", xml, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 || one[0] != ranges[k][0] {
			t.Fatalf("PartitionShardWithMeta(%d) metadata %+v differs from PartitionWithMeta %+v",
				k, one, ranges[k])
		}
	}

	// auctions have no common child attribute: container present, unkeyed
	_, aranges, _, err := PartitionWithMeta("auctions.xml",
		xmark.GenerateAuctions(xmark.PaperConfig(0.02)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, rs := range aranges {
		if len(rs) != 1 || rs[0].Keyed {
			t.Fatalf("shard %d: closed_auction container should be unkeyed, got %+v", k, rs)
		}
	}
}

// ---------------------------------------------------------- pruned reads

func TestPrunedProbeContactsOnlyOwningShard(t *testing.T) {
	const persons = 20
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 4, 1)
	co := dep.Coordinator()

	for _, pid := range []string{"person0", "person7", "person19"} {
		br := getPersonRequest(pid)
		want := singlePersonsBaseline(t, persons, br, nil)
		net.ResetStats()
		res, err := co.Scatter(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResults(br, res), want) {
			t.Fatalf("pruned probe for %s differs from single-peer response", pid)
		}
		contacted := 0
		for s := 0; s < 4; s++ {
			if reqs, _, _ := net.PeerStats(dep.Table.Primary(s)); reqs > 0 {
				contacted++
			}
		}
		if contacted != 1 {
			t.Fatalf("probe for %s contacted %d shards, want exactly 1", pid, contacted)
		}
	}
}

func TestPrunedScatterByteIdenticalToBroadcast(t *testing.T) {
	const persons = 17
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 3, 1)
	co := dep.Coordinator()

	// a mixed bulk: keys across all shards, a repeated key, and a key
	// that exists on no shard (pruned everywhere -> empty result)
	br := getPersonRequest("person16", "person0", "person5", "person0", "nosuch", "person9")
	want := singlePersonsBaseline(t, persons, br, nil)
	res, err := co.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, res), want) {
		t.Fatal("pruned scatter differs from single-peer broadcast result")
	}

	// same request through a route-less coordinator (pure broadcast)
	plain := NewCoordinator(dep.Table, client.New(net))
	bres, err := plain.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, bres), encodeResults(br, res)) {
		t.Fatal("pruned and broadcast scatters disagree")
	}
}

// ------------------------------------------------------- routed updates

func TestRoutedUpdateCommitsVia2PCWithReadYourWrites(t *testing.T) {
	const persons = 12
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 3, 2)
	co := dep.Coordinator()

	upd := setCityRequest("Rotterdam", "person4", "person10")
	probe := getPersonRequest("person4", "person10")
	want := singlePersonsBaseline(t, persons, probe, upd)

	net.ResetStats()
	if _, err := co.CallBulk(DefaultClusterURI, upd); err != nil {
		t.Fatal(err)
	}
	// person4 -> shard 1 ([4,8)), person10 -> shard 2 ([8,12)): shard 0
	// must not have seen the update at all
	if reqs, _, _ := net.PeerStats(dep.Table.Primary(0)); reqs != 0 {
		t.Fatalf("shard 0 primary served %d requests for an update it does not own", reqs)
	}

	for _, s := range []int{1, 2} {
		// both touched primaries committed the transaction once, and each
		// replica adopted the forwarded PUL and committed it to the same
		// store version (the version fence)
		if pv, rv := dep.Stores[s][0].Version(), dep.Stores[s][1].Version(); pv != 2 || rv != 2 {
			t.Fatalf("shard %d: primary/replica versions %d/%d after commit, want 2/2", s, pv, rv)
		}
		// the 2PC left no transaction state behind
		for r, srv := range dep.Servers[s] {
			if n := srv.IsolatedQueries(); n != 0 {
				t.Fatalf("shard %d replica %d holds %d isolated queries after commit", s, r, n)
			}
		}
		// no replica was evicted
		if got := len(dep.Table.Replicas(s)); got != 2 {
			t.Fatalf("shard %d has %d replicas after a clean commit, want 2", s, got)
		}
	}

	// read-your-writes through the primaries…
	res, err := co.Scatter(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), want) {
		t.Fatal("post-update probe differs from single-peer baseline")
	}
	// …and through the replicas: kill both touched primaries
	net.Register(dep.Table.Primary(1), down("shard1 primary"))
	net.Register(dep.Table.Primary(2), down("shard2 primary"))
	res, err = co.Scatter(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), want) {
		t.Fatal("replicas do not serve the committed update (read-your-writes violated)")
	}
}

func TestUpdateWithoutRouteRejected(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 8, 2, 1)
	co := NewCoordinator(dep.Table, client.New(net)) // no routes
	_, err := co.CallBulk(DefaultClusterURI, setCityRequest("X", "person1"))
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("unrouted updating request: got %v, want a no-route error", err)
	}
}

func TestUpdateUnroutableKeyRejected(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 8, 2, 1)
	co := dep.Coordinator()
	// a key no shard owns is not routable to one shard
	_, err := co.Update(setCityRequest("X", "nosuchperson"))
	if err == nil || !strings.Contains(err.Error(), "not routable") {
		t.Fatalf("unroutable key: got %v, want a not-routable error", err)
	}
	// stores untouched
	for s := range dep.Stores {
		for _, st := range dep.Stores[s] {
			if st.Version() != 1 {
				t.Fatal("an unroutable update mutated a shard store")
			}
		}
	}
}

func TestUpdateApplyFailureAbortsEverywhere(t *testing.T) {
	const persons = 12
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 3, 1)
	co := dep.Coordinator()

	// shard 2's primary is down: the two-shard transaction must abort as
	// a whole, leaving shard 1 unchanged
	net.Register(dep.Table.Primary(2), down("shard2 primary"))
	_, err := co.Update(setCityRequest("Nowhere", "person4", "person10"))
	if err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("want the failing shard reported, got %v", err)
	}
	if v := dep.Stores[1][0].Version(); v != 1 {
		t.Fatalf("shard 1 committed (version %d) despite the aborted transaction", v)
	}
	if n := dep.Servers[1][0].IsolatedQueries(); n != 0 {
		t.Fatalf("shard 1 still holds %d isolated queries after abort", n)
	}
}

func TestReplicaReplicationFailureEvicts(t *testing.T) {
	const persons = 8
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 2, 2)
	co := dep.Coordinator()
	var evicted []string
	co.OnEvict = func(shard int, uri string, reason error) {
		evicted = append(evicted, fmt.Sprintf("%d:%s", shard, uri))
	}

	// person1 lives on shard 0; its replica is down and cannot adopt the
	// PUL — the commit must still succeed at the primary, with the
	// replica evicted instead of left stale
	deadReplica := dep.Table.Replicas(0)[1]
	net.Register(deadReplica, down("shard0 replica"))
	if _, err := co.Update(setCityRequest("Utrecht", "person1")); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "0:"+deadReplica {
		t.Fatalf("evictions = %v, want the dead replica of shard 0", evicted)
	}
	if reps := dep.Table.Replicas(0); len(reps) != 1 || reps[0] != dep.Table.Primary(0) {
		t.Fatalf("routing table still lists the stale replica: %v", reps)
	}
	// the committed value is served (by the primary; the stale replica
	// can no longer be consulted)
	probe := getPersonRequest("person1")
	want := singlePersonsBaseline(t, persons, probe, setCityRequest("Utrecht", "person1"))
	res, err := co.Scatter(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), want) {
		t.Fatal("post-eviction probe differs from baseline")
	}
}

// TestUpdatingPathThroughBulkCaller drives an updating query through
// the loop-lifting engine with the cluster coordinator as its
// BulkCaller: the per-iteration execute-at calls loop-lift into one
// updating bulk request, which the coordinator routes shard-by-shard
// and commits via 2PC.
func TestUpdatingPathThroughBulkCaller(t *testing.T) {
	const persons = 12
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 3, 2)
	co := dep.Coordinator()

	reg := personsRegistry(t)
	compiled, err := pathfinder.Compile(`
import module namespace p="functions_p" at "http://example.org/p.xq";
for $pid in ("person2", "person6", "person11")
return execute at {"xrpc://cluster"} {p:setCity($pid, "Leiden")}`, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.Eval(&pathfinder.ExecCtx{Bulk: co}, nil); err != nil {
		t.Fatal(err)
	}

	probe := getPersonRequest("person2", "person6", "person11")
	want := singlePersonsBaseline(t, persons, probe,
		setCityRequest("Leiden", "person2", "person6", "person11"))
	res, err := co.Scatter(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), want) {
		t.Fatal("loop-lifted cluster update differs from single-peer baseline")
	}
	// every shard was touched; all replicas fenced to their primaries
	for s := range dep.Stores {
		if pv, rv := dep.Stores[s][0].Version(), dep.Stores[s][1].Version(); pv != 2 || rv != 2 {
			t.Fatalf("shard %d versions %d/%d, want 2/2", s, pv, rv)
		}
	}
}

// --------------------------------------------- eviction under contention

// TestConcurrentScattersDuringEviction flips the routing table (evict +
// re-add of a replica) while scatters are in flight; every scatter must
// return the identical merged response. Run under -race this also
// proves the table's locking discipline.
func TestConcurrentScattersDuringEviction(t *testing.T) {
	const persons = 10
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 2, 3)
	co := dep.Coordinator()

	br := getPersonRequest("person1", "person8")
	want := singlePersonsBaseline(t, persons, br, nil)

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := co.Scatter(br)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(encodeResults(br, res), want) {
					errs <- fmt.Errorf("scatter during table flip produced a different response")
					return
				}
			}
		}()
	}
	victim := dep.Table.Replicas(0)[1]
	for i := 0; i < 200; i++ {
		if !dep.Table.Evict(0, victim) {
			errs <- fmt.Errorf("flip %d: eviction failed", i)
			break
		}
		if err := dep.Table.Add(0, victim); err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEvictNeverRemovesLastPeer(t *testing.T) {
	rt, _ := NewRoutingTable(1)
	rt.Add(0, "xrpc://only")
	if rt.Evict(0, "xrpc://only") {
		t.Fatal("evicted the last peer of a shard")
	}
	if rt.Primary(0) != "xrpc://only" {
		t.Fatal("table lost its last peer")
	}
}

// ------------------------------------------- HTTP failover classification

// TestHTTPStatusFailoverClassification pins the retriable/definitive
// split on real HTTP responses: a 503 from the primary fails over to
// the replica; a 404 is a deterministic rejection and must not.
func TestHTTPStatusFailoverClassification(t *testing.T) {
	xml := xmark.GeneratePersons(xmark.Config{Persons: 6, Seed: 11})
	reg := personsRegistry(t)
	st := store.New()
	if err := st.LoadXML("persons.xml", xml); err != nil {
		t.Fatal(err)
	}
	good := httptest.NewServer(server.New(st, reg, server.NewNativeExecutor(interp.New(nil, reg, nil), reg)))
	defer good.Close()

	status := func(code int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "synthetic failure", code)
		}))
	}
	for _, c := range []struct {
		code     int
		failover bool
	}{
		{http.StatusServiceUnavailable, true},
		{http.StatusBadGateway, true},
		{http.StatusNotFound, false},
		{http.StatusBadRequest, false},
	} {
		bad := status(c.code)
		rt, _ := NewRoutingTable(1)
		rt.Add(0, bad.URL)
		rt.Add(0, good.URL)
		co := NewCoordinator(rt, client.New(client.NewHTTPTransport()))
		_, err := co.Scatter(getPersonRequest("person1"))
		if c.failover && err != nil {
			t.Errorf("status %d: expected failover to the replica, got %v", c.code, err)
		}
		if !c.failover {
			if err == nil {
				t.Errorf("status %d: definitive rejection retried against the replica", c.code)
			} else if !strings.Contains(err.Error(), fmt.Sprint(c.code)) {
				t.Errorf("status %d: error does not surface the status: %v", c.code, err)
			}
		}
		bad.Close()
	}
}

// ----------------------------------------------------- shardInfo ranges

func TestShardInfoReportsRanges(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 9, 3, 1)
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
		// [shard, shards, doc names..., range descriptors...]
		var got []KeyRange
		for _, item := range seq[2:] {
			if r, err := ParseKeyRange(item.StringValue()); err == nil {
				got = append(got, r)
			}
		}
		want := dep.Table.Ranges(s)
		if len(got) != len(want) {
			t.Fatalf("shard %d reports %d ranges, table has %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shard %d range %d: reported %+v, table %+v", s, i, got[i], want[i])
			}
		}
	}
}

// TestPrimaryCommitFailureDoesNotCommitReplica pins the heuristic-
// outcome policy: when a touched primary dies between Prepare and
// Commit, its replica — which already adopted the PUL — must not commit
// against an unverifiable primary state. It is aborted (snapshot
// released) and evicted instead.
func TestPrimaryCommitFailureDoesNotCommitReplica(t *testing.T) {
	const persons = 8
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 2, 2)
	co := dep.Coordinator()
	var evicted []string
	co.OnEvict = func(shard int, uri string, reason error) {
		evicted = append(evicted, fmt.Sprintf("%d:%s:%v", shard, uri, reason))
	}

	// the shard 0 primary answers everything except the Commit verb
	primary := dep.Servers[0][0]
	net.Register(dep.Table.Primary(0), netsim.HandlerFunc(func(path string, body []byte) ([]byte, error) {
		if bytes.Contains(body, []byte(`xrpc:method="Commit"`)) {
			return nil, fmt.Errorf("primary crashed at commit")
		}
		return primary.HandleXRPC(path, body)
	}))

	_, err := co.Update(setCityRequest("Ghost", "person1"))
	if err == nil || !strings.Contains(err.Error(), "commit failed") {
		t.Fatalf("want the heuristic commit failure reported, got %v", err)
	}
	// the replica adopted but must NOT have committed…
	if v := dep.Stores[0][1].Version(); v != 1 {
		t.Fatalf("replica committed (version %d) although its primary did not", v)
	}
	// …its prepared snapshot is released (aborted, not leaked)…
	if n := dep.Servers[0][1].IsolatedQueries(); n != 0 {
		t.Fatalf("replica still pins %d isolated queries after abort", n)
	}
	// …and it is evicted rather than left to diverge silently
	if len(evicted) != 1 || !strings.Contains(evicted[0], "unverifiable") {
		t.Fatalf("evictions = %v, want the replica of shard 0 (unverifiable)", evicted)
	}
}
