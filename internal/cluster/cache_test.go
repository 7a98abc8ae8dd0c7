package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// deployPersonsCached is deployPersons with all three cache tiers on.
func deployPersonsCached(t *testing.T, net *netsim.Network, persons, shards, replication int) *Deployment {
	t.Helper()
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	dep, err := Deploy(net, personsRegistry(t), map[string]string{"persons.xml": xml},
		DeployConfig{
			Shards: shards, Replication: replication, Routes: personRoutes(),
			RespCacheBytes:   8 << 20,
			ResultCacheBytes: 8 << 20,
		})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestResultCacheHitProbesOnly: a warm broadcast scatter is answered
// from the coordinator cache after one shardInfo probe per shard — no
// re-execution — and is byte-identical to the cold run.
func TestResultCacheHitProbesOnly(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 40, 3, 1)
	// a coordinator without routes broadcasts getPerson to every shard
	co := NewCoordinator(dep.Table, client.New(net))
	co.ResultCache = NewResultCache(0)

	read := getPersonRequest(xmark.PersonID(3), xmark.PersonID(17))
	want := singlePersonsBaseline(t, 40, read, nil)

	cold, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(read, cold); !bytes.Equal(got, want) {
		t.Fatalf("cold scatter differs from baseline:\n%s\nvs\n%s", got, want)
	}

	net.ResetStats()
	warm, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(read, warm); !bytes.Equal(got, want) {
		t.Fatalf("warm scatter differs from baseline:\n%s\nvs\n%s", got, want)
	}
	st := co.ResultCache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Revalidations != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 revalidation", st)
	}
	for s := 0; s < 3; s++ {
		if reqs, _, _ := net.PeerStats(fmt.Sprintf("xrpc://shard%d", s)); reqs != 1 {
			t.Fatalf("shard %d served %d requests on the warm hit; want 1 (the version probe)", s, reqs)
		}
	}
}

// TestResultCachePartialRefreshRequeriesOnlyStaleShard: after a routed
// single-shard commit, a cached broadcast entry re-queries exactly the
// shard whose version moved and splices, and the refreshed entry serves
// the post-write state byte-identically to an unsharded peer.
func TestResultCachePartialRefreshRequeriesOnlyStaleShard(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 40, 3, 1)
	co := NewCoordinator(dep.Table, client.New(net)) // no routes: broadcast
	co.ResultCache = NewResultCache(0)

	pid := xmark.PersonID(5)
	read := getPersonRequest(pid, xmark.PersonID(33))
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}

	write := setCityRequest("Refreshville", pid)
	routed := dep.Coordinator()
	if _, err := routed.Update(write); err != nil {
		t.Fatal(err)
	}

	net.ResetStats()
	res, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if want := singlePersonsBaseline(t, 40, read, write); !bytes.Equal(encodeResults(read, res), want) {
		t.Fatalf("partial refresh served wrong data:\n%s\nvs\n%s", encodeResults(read, res), want)
	}
	st := co.ResultCache.Stats()
	if st.PartialHits != 1 {
		t.Fatalf("stats = %+v; want 1 partial hit", st)
	}
	requeried := 0
	for s := 0; s < 3; s++ {
		reqs, _, _ := net.PeerStats(fmt.Sprintf("xrpc://shard%d", s))
		switch reqs {
		case 1: // probe only
		case 2: // probe + re-query
			requeried++
		default:
			t.Fatalf("shard %d served %d requests during refresh", s, reqs)
		}
	}
	if requeried != 1 {
		t.Fatalf("%d shards re-queried; want exactly the 1 stale shard", requeried)
	}

	// the refresh re-stored the entry under the probed vector: next
	// scatter is a clean hit
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}
	if st := co.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("post-refresh stats = %+v; want 1 hit", st)
	}
}

// TestScatterStreamCachedByteIdentity: the streamed wire envelope is
// byte-identical with the result cache off, cold, and warm.
func TestScatterStreamCachedByteIdentity(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 30, 2, 1)
	plain := NewCoordinator(dep.Table, client.New(net))
	cached := NewCoordinator(dep.Table, client.New(net))
	cached.ResultCache = NewResultCache(0)

	read := getPersonRequest(xmark.PersonID(1), xmark.PersonID(20), xmark.PersonID(29))
	var want, cold, warm bytes.Buffer
	if err := plain.ScatterStream(read, &want); err != nil {
		t.Fatal(err)
	}
	if err := cached.ScatterStream(read, &cold); err != nil {
		t.Fatal(err)
	}
	if err := cached.ScatterStream(read, &warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), want.Bytes()) {
		t.Fatalf("cold cached stream differs from uncached:\n%s\nvs\n%s", cold.Bytes(), want.Bytes())
	}
	if !bytes.Equal(warm.Bytes(), want.Bytes()) {
		t.Fatalf("warm cached stream differs from uncached:\n%s\nvs\n%s", warm.Bytes(), want.Bytes())
	}
	if st := cached.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v; want the second stream to hit", st)
	}
}

// TestCacheSmoke is the `make cachesmoke` gate: all three tiers on via
// DeployConfig, warm hits on both coordinator and shard tiers, and a
// routed single-shard 2PC commit that invalidates exactly the touched
// shard's entries — every answer byte-identical to an unsharded peer.
func TestCacheSmoke(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	const persons = 60
	dep := deployPersonsCached(t, net, persons, 2, 1)
	co := dep.Coordinator()
	if co.ResultCache == nil {
		t.Fatal("DeployConfig.ResultCacheBytes did not attach a coordinator cache")
	}

	// two pruned reads covering both shards
	read := getPersonRequest(xmark.PersonID(2), xmark.PersonID(persons-3))
	want := singlePersonsBaseline(t, persons, read, nil)
	for round := 0; round < 3; round++ {
		res, err := co.Scatter(read)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeResults(read, res); !bytes.Equal(got, want) {
			t.Fatalf("round %d differs from baseline:\n%s\nvs\n%s", round, got, want)
		}
	}
	if st := co.ResultCache.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("tier-2 stats = %+v; want 2 hits, 1 miss", st)
	}

	// locate which shard owns the pid we are about to write
	cands := dep.Table.CandidateShards("persons.xml", personsPath, xmark.PersonID(2))
	if len(cands) != 1 {
		t.Fatalf("pid routes to %v; want exactly one shard", cands)
	}
	target := cands[0]

	write := setCityRequest("Smokeville", xmark.PersonID(2))
	if _, err := co.Update(write); err != nil {
		t.Fatal(err)
	}

	// post-write read: correct data, and only the touched shard's Tier-1
	// entries were evicted by the version fence
	preEvict := make([]int64, 2)
	for s := 0; s < 2; s++ {
		preEvict[s] = dep.Servers[s][0].RespCache.Stats().Evictions
	}
	want = singlePersonsBaseline(t, persons, read, write)
	res, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(read, res); !bytes.Equal(got, want) {
		t.Fatalf("post-write read differs from baseline:\n%s\nvs\n%s", got, want)
	}
	for s := 0; s < 2; s++ {
		delta := dep.Servers[s][0].RespCache.Stats().Evictions - preEvict[s]
		if s == target && delta == 0 {
			t.Fatalf("touched shard %d evicted nothing after the commit", s)
		}
		if s != target && delta != 0 {
			t.Fatalf("untouched shard %d evicted %d entries", s, delta)
		}
	}
	// the post-write read was a partial refresh: only the touched shard's
	// part re-ran, the untouched shard's share came from the retained
	// tier-2 split without a call
	other := 1 - target
	if st := co.ResultCache.Stats(); st.PartialHits != 1 {
		t.Fatalf("tier-2 stats = %+v; want the post-write read to be 1 partial hit", st)
	}
	if st := dep.Servers[other][0].RespCache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("untouched shard %d was re-queried by the partial refresh: %+v", other, st)
	}
	// and a coordinator whose tier 2 is cold finds the untouched shard's
	// Tier-1 entry intact: it answers its share from Tier 1
	res, err = dep.Coordinator().Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeResults(read, res); !bytes.Equal(got, want) {
		t.Fatalf("cold-tier-2 read differs from baseline:\n%s\nvs\n%s", got, want)
	}
	if st := dep.Servers[other][0].RespCache.Stats(); st.Hits == 0 {
		t.Fatalf("untouched shard %d served no Tier-1 hits: %+v", other, st)
	}
}

// TestConcurrentCachedScattersDuringUpdates races cached reads against
// routed 2PC commits (run with -race): after Update returns, a read
// must see the committed city; concurrent readers may lag but never
// observe city values going backwards.
func TestConcurrentCachedScattersDuringUpdates(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	const persons = 30
	dep := deployPersonsCached(t, net, persons, 2, 1)
	pid := xmark.PersonID(7)
	read := &client.BulkRequest{
		ModuleURI: "functions_p", AtHint: "http://example.org/p.xq",
		Func: "cityOf", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String(pid)}}},
	}

	cityIndex := func(res []xdm.Sequence) (int, error) {
		if len(res) != 1 || len(res[0]) != 1 {
			return 0, fmt.Errorf("unexpected shape %v", res)
		}
		s := res[0][0].StringValue()
		var i int
		if _, err := fmt.Sscanf(s, "City-%d", &i); err != nil {
			return -1, nil // the generator's original city, before our first write
		}
		return i, nil
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			co := dep.Coordinator()
			prev := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := co.Scatter(read)
				if err != nil {
					t.Error(err)
					return
				}
				i, err := cityIndex(res)
				if err != nil {
					t.Error(err)
					return
				}
				if i < prev {
					t.Errorf("reader %d: city went backwards %d -> %d", g, prev, i)
					return
				}
				prev = i
			}
		}(g)
	}

	co := dep.Coordinator()
	for i := 0; i < 20; i++ {
		if _, err := co.Update(setCityRequest(fmt.Sprintf("City-%d", i), pid)); err != nil {
			t.Fatal(err)
		}
		res, err := co.Scatter(read)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cityIndex(res); err != nil || got != i {
			t.Fatalf("after commit %d read city %d (err %v): stale cache", i, got, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestCachedScatterMatchesBaselineAcrossShapes sweeps shard counts and
// request shapes: every cached answer (cold and warm) must be
// byte-identical to the single-peer baseline.
func TestCachedScatterMatchesBaselineAcrossShapes(t *testing.T) {
	const persons = 40
	reqs := map[string]*client.BulkRequest{
		"one":   getPersonRequest(xmark.PersonID(0)),
		"many":  getPersonRequest(xmark.PersonID(1), xmark.PersonID(19), xmark.PersonID(39)),
		"empty": getPersonRequest("person-does-not-exist"),
	}
	for _, shards := range []int{1, 2, 4} {
		for name, br := range reqs {
			want := singlePersonsBaseline(t, persons, br, nil)
			net := netsim.NewNetwork(0, 0)
			dep := deployPersonsCached(t, net, persons, shards, 1)
			co := dep.Coordinator()
			for round := 0; round < 2; round++ {
				res, err := co.Scatter(br)
				if err != nil {
					t.Fatalf("%d shards %s round %d: %v", shards, name, round, err)
				}
				if got := encodeResults(br, res); !bytes.Equal(got, want) {
					t.Fatalf("%d shards %s round %d differs from baseline:\n%s\nvs\n%s",
						shards, name, round, got, want)
				}
			}
		}
	}
}

// TestResultCacheSeesModuleReregistration: re-registering a module
// changes semantics with no store write, so the Tier-2 fence must
// include the registry generation — a merged result cached before the
// Register must never be served after it.
func TestResultCacheSeesModuleReregistration(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	reg := personsRegistry(t)
	xml := xmark.GeneratePersons(xmark.Config{Persons: 20, Seed: 11})
	dep, err := Deploy(net, reg, map[string]string{"persons.xml": xml},
		DeployConfig{Shards: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(dep.Table, client.New(net)) // no routes: broadcast
	co.ResultCache = NewResultCache(0)

	read := getPersonRequest(xmark.PersonID(3))
	before, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}
	if st := co.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v; want 1 warm hit before re-registration", st)
	}

	// same namespace and hint, new getPerson semantics: the person's
	// city element instead of the person — no store write involved
	const v2 = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid]/address/city };
declare function p:cityOf($pid as xs:string) as xs:string
{ string(doc("persons.xml")//person[@id=$pid]/address/city) };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`
	if err := reg.Register(v2, "http://example.org/p.xq"); err != nil {
		t.Fatal(err)
	}

	after, err := co.Scatter(read)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeResults(read, after), encodeResults(read, before)) {
		t.Fatalf("post-re-registration scatter served the pre-registration cached result:\n%s",
			encodeResults(read, after))
	}
	if st := co.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("stats after re-registration = %+v; the stale entry must not hit", st)
	}
}

// TestDeployInvalidatesImporterPlans: re-registering an imported module
// leaves the importer's own text, and hence its plan-cache key (its
// module URI), unchanged — every shard executor must still drop the
// importer's compiled plan, and Deploy wires nothing to tell it: the
// cached plan finds out from the registry at its next lookup.
func TestDeployInvalidatesImporterPlans(t *testing.T) {
	const baseV1 = `
module namespace base = "base_m";
declare function base:tag() as xs:string { "v1" };`
	const baseV2 = `
module namespace base = "base_m";
declare function base:tag() as xs:string { "v2" };`
	const importer = `
module namespace imp = "imp_m";
import module namespace base = "base_m" at "http://example.org/base.xq";
declare function imp:tag() as xs:string { base:tag() };`

	reg := modules.NewRegistry()
	if err := reg.Register(baseV1, "http://example.org/base.xq"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(importer, "http://example.org/imp.xq"); err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(0, 0)
	xml := xmark.GeneratePersons(xmark.Config{Persons: 10, Seed: 11})
	dep, err := Deploy(net, reg, map[string]string{"persons.xml": xml},
		DeployConfig{Shards: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()
	br := &client.BulkRequest{
		ModuleURI: "imp_m", AtHint: "http://example.org/imp.xq",
		Func: "tag", Arity: 0, Calls: [][]xdm.Sequence{{}},
	}
	check := func(want string) {
		t.Helper()
		res, err := co.Scatter(br)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0]) != 2 {
			t.Fatalf("broadcast returned %d items, want one per shard", len(res[0]))
		}
		for _, it := range res[0] {
			if got := it.StringValue(); got != want {
				t.Fatalf("imp:tag() = %q, want %q", got, want)
			}
		}
	}
	check("v1")
	// warm the importer's plan again so the re-registration below must
	// actually invalidate a cached plan, then change only the base
	check("v1")
	if err := reg.Register(baseV2, "http://example.org/base.xq"); err != nil {
		t.Fatal(err)
	}
	check("v2")
}

// TestRespCacheStatsInShardInfo: shardInfo reports version and cache
// counters as metadata items older consumers skip.
func TestRespCacheStatsInShardInfo(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsCached(t, net, 20, 2, 1)
	co := dep.Coordinator()
	if _, err := co.Scatter(getPersonRequest(xmark.PersonID(1))); err != nil {
		t.Fatal(err)
	}
	res, err := client.New(net).CallBulk("xrpc://shard0", &client.BulkRequest{
		ModuleURI: client.SystemModule, Func: "shardInfo", Arity: 0,
		Calls: [][]xdm.Sequence{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var haveVersion, haveGeneration, haveResp, havePlan bool
	for _, it := range res[0] {
		s := it.StringValue()
		if _, ok := server.ParseVersionItem(s); ok {
			haveVersion = true
		}
		if _, ok := server.ParseGenerationItem(s); ok {
			haveGeneration = true
		}
		if len(s) > 10 && s[:10] == "respcache=" {
			haveResp = true
		}
		if len(s) > 10 && s[:10] == "plancache=" {
			havePlan = true
		}
	}
	if !haveVersion || !haveGeneration || !haveResp || !havePlan {
		t.Fatalf("shardInfo missing metadata: version=%v generation=%v respcache=%v plancache=%v (%v)",
			haveVersion, haveGeneration, haveResp, havePlan, res[0])
	}
}
