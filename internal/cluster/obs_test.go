package cluster

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/core"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/planner"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// TestObsSmoke is the `make obssmoke` gate: a 2-shard cached, durable
// cluster with the full observability layer attached — one shared
// registry over shard servers, coordinator, result cache, client,
// netsim and the per-replica write-ahead logs — driven cold → warm →
// routed update → post-write → a read through the proxy → a query peer's
// cold and warm run of one text and one hashed two-for join → a
// replica eviction, then scraped through the debug endpoints. Asserts
// the counters that must move at each stage, and that one trace ID
// minted at the coordinator's front door appears in BOTH shards'
// slow-query logs.
func TestObsSmoke(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	const persons = 40
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	// getPerson gets NO hand-written route: the planner derives it, so
	// the smoke covers the derivation and strategy counters too
	dep, err := Deploy(net, personsRegistry(t), map[string]string{"persons.xml": xml},
		DeployConfig{
			Shards: 2, Replication: 2, Routes: personRoutes()[1:],
			RespCacheBytes:   8 << 20,
			ResultCacheBytes: 8 << 20,
			WALRoot:          t.TempDir(),
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	co := dep.Coordinator()

	reg := obs.NewRegistry()
	co.Metrics = NewMetrics(reg, 2)
	co.SlowLog = obs.NewSlowLog(slog.New(slog.NewTextHandler(io.Discard, nil)), time.Nanosecond)
	co.ResultCache.RegisterMetrics(reg)
	co.Client.RegisterMetrics(reg)
	net.RegisterMetrics(reg)
	co.Planner.Metrics = planner.NewMetrics(reg)

	// one shared WAL metric family across every replica's log: fsync
	// latency, appends by kind, and the snapshot/replay counters
	walM := wal.NewMetrics(reg)
	for s := range dep.Servers {
		for _, srv := range dep.Servers[s] {
			srv.SetWALMetrics(walM)
		}
	}

	// per-shard servers: request metrics + cache tiers on the shared
	// registry (shard="N" labels), slow log into a capturable buffer
	// with a zero-ish threshold so every request is logged
	shardLogs := make([]*bytes.Buffer, 2)
	for s := 0; s < 2; s++ {
		shardLogs[s] = &bytes.Buffer{}
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(s)}
		srv := dep.Servers[s][0]
		srv.Metrics = server.NewMetrics(reg, lbl)
		srv.RegisterCacheMetrics(reg, lbl)
		srv.SlowLog = obs.NewSlowLog(slog.New(slog.NewTextHandler(shardLogs[s], nil)), time.Nanosecond)
	}

	// --- cold read: tier-2 miss, each key routed to its one shard
	trace := obs.NewTraceID()
	read := getPersonRequest(xmark.PersonID(2), xmark.PersonID(persons-3))
	read.TraceID = trace
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}
	if n := reg.MustGather("xrpc_resultcache_misses_total"); n != 1 {
		t.Fatalf("cold read: resultcache misses = %v, want 1", n)
	}
	// one read, one strategy decision: the two keys live on different
	// shards, but each call reaches exactly one of them
	if n := reg.MustGather("xrpc_cluster_scatters_total", obs.Label{Key: "strategy", Value: "routed"}); n != 1 {
		t.Fatalf("cold read: routed reads = %v, want 1", n)
	}
	// Scatter hands back trees, and the read populated the result cache,
	// which keeps them: both part streams were decoded
	streams := func(forward string) float64 {
		return reg.MustGather("xrpc_cluster_gather_streams_total", obs.Label{Key: "forward", Value: forward})
	}
	if n := streams("decoded"); n != 2 {
		t.Fatalf("cold read: decoded part streams = %v, want 2", n)
	}
	// the route-less getPerson went through the derivation pass
	if n := reg.MustGather("xrpc_planner_derivations_total", obs.Label{Key: "outcome", Value: "derived"}); n < 1 {
		t.Fatalf("cold read: derivations = %v, want >= 1 (getPerson auto-derived)", n)
	}
	if n := reg.MustGather("xrpc_planner_derivations_total", obs.Label{Key: "outcome", Value: "fallback"}); n < 1 {
		t.Fatalf("cold read: derivation fallbacks = %v, want >= 1 (cityOf is underivable)", n)
	}

	// --- warm read: tier-2 hit, shards see only the shardInfo probe
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}
	if n := reg.MustGather("xrpc_resultcache_hits_total"); n != 1 {
		t.Fatalf("warm read: resultcache hits = %v, want 1", n)
	}
	if n := reg.MustGather("xrpc_resultcache_revalidations_total"); n < 1 {
		t.Fatalf("warm read: revalidations = %v, want >= 1", n)
	}

	// --- routed update: one 2PC commit over the touched primary
	write := setCityRequest("Obsville", xmark.PersonID(2))
	write.TraceID = trace
	if _, err := co.Update(write); err != nil {
		t.Fatal(err)
	}
	if n := reg.MustGather("xrpc_cluster_updates_total"); n != 1 {
		t.Fatalf("updates = %v, want 1", n)
	}
	if n := reg.MustGather("xrpc_txn_prepares_total"); n != 1 {
		t.Fatalf("2PC prepares = %v, want 1 (single-shard write)", n)
	}
	if n := reg.MustGather("xrpc_txn_commits_total"); n != 1 {
		t.Fatalf("2PC commits = %v, want 1", n)
	}
	// no reader pinned the document while the update committed, so the
	// primary wrote it in place instead of copying it
	storeCommits := func(path string) (n float64) {
		for s := 0; s < 2; s++ {
			n += reg.MustGather("xrpc_store_commits_total",
				obs.Label{Key: "shard", Value: strconv.Itoa(s)}, obs.Label{Key: "path", Value: path})
		}
		return n
	}
	if in, cl := storeCommits("in_place"), storeCommits("clone"); in != 1 || cl != 0 {
		t.Fatalf("primary store commits: in place %v, cloned %v, want 1 and 0", in, cl)
	}
	// the commit hit every touched replica's WAL: an fsync'd commit
	// record on the primary and the adopted copy on its replica
	if n := reg.MustGather("xrpc_wal_appends_total", obs.Label{Key: "kind", Value: "commit"}); n < 2 {
		t.Fatalf("WAL commit appends = %v, want >= 2 (primary + replica)", n)
	}
	if n := reg.MustGather("xrpc_wal_fsync_batches_total"); n < 1 {
		t.Fatalf("WAL fsync batches = %v, want >= 1", n)
	}
	if n := reg.MustGather("xrpc_wal_fsync_seconds"); n < 1 {
		t.Fatalf("WAL fsync latency observations = %v, want >= 1", n)
	}

	// --- post-write read: the version fence moved, so the entry
	// refreshes (partial hit) instead of serving stale
	if _, err := co.Scatter(read); err != nil {
		t.Fatal(err)
	}
	if n := reg.MustGather("xrpc_resultcache_partial_hits_total") +
		reg.MustGather("xrpc_resultcache_misses_total"); n < 2 {
		t.Fatalf("post-write read did not re-query: partial+misses = %v", n)
	}

	// --- multi-call bulk: a shard answers every call by probe from the
	// index of its store version, which the reads before built
	indexed := func(name string) (n float64) {
		for s := 0; s < 2; s++ {
			n += reg.MustGather(name, obs.Label{Key: "shard", Value: strconv.Itoa(s)})
		}
		return n
	}
	builds0, probes0 := indexed("xrpc_exec_index_builds_total"), indexed("xrpc_exec_index_probes_total")
	var bulkIDs []string
	for _, i := range []int{4, 5, 6, 7, persons - 8, persons - 7, persons - 6, persons - 5} {
		bulkIDs = append(bulkIDs, xmark.PersonID(i))
	}
	if _, err := co.Scatter(getPersonRequest(bulkIDs...)); err != nil {
		t.Fatal(err)
	}
	builds := indexed("xrpc_exec_index_builds_total") - builds0
	probes := indexed("xrpc_exec_index_probes_total") - probes0
	if builds != 0 || probes != float64(len(bulkIDs)) {
		t.Fatalf("multi-call bulk: index builds = %v, probes = %v, want 0 and %d", builds, probes, len(bulkIDs))
	}

	// --- single-call traffic: each routed read is a one-call request, and
	// the index of the shard's version, built once, answers them all
	builds0, probes0 = indexed("xrpc_exec_index_builds_total"), indexed("xrpc_exec_index_probes_total")
	for i := 10; i < 16; i++ {
		if _, err := co.Scatter(getPersonRequest(xmark.PersonID(i))); err != nil {
			t.Fatal(err)
		}
	}
	builds = indexed("xrpc_exec_index_builds_total") - builds0
	probes = indexed("xrpc_exec_index_probes_total") - probes0
	if probes != 6 || builds >= probes {
		t.Fatalf("single-call reads: index builds = %v, probes = %v, want builds < probes = 6", builds, probes)
	}
	if b, p := indexed("xrpc_exec_index_builds_total"), indexed("xrpc_exec_index_probes_total"); b >= p {
		t.Fatalf("xrpc_exec_index_builds_total = %v, want < xrpc_exec_index_probes_total = %v", b, p)
	}
	if n := indexed("xrpc_exec_index_fallbacks_total"); n != 0 {
		t.Fatalf("index fallbacks = %v, want 0 (getPerson's predicate is indexable)", n)
	}

	// --- a read through the proxy only passes the shard's items on: the
	// one part stream of a routed read is spliced, not decoded
	hs := httptest.NewServer(&Proxy{Co: co})
	decoded0 := streams("decoded")
	resp, err := http.Post(hs.URL+client.XRPCPath, "application/soap+xml",
		bytes.NewReader(encodeSOAPRequest(getPersonRequest(xmark.PersonID(9)))))
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := soap.DecodeResponseStream(resp.Body)
	resp.Body.Close()
	hs.Close()
	if err != nil || len(proxied.Results) != 1 || len(proxied.Results[0]) != 1 {
		t.Fatalf("proxied read: %+v, err %v", proxied, err)
	}
	if raw, dec := streams("raw"), streams("decoded")-decoded0; raw != 1 || dec != 0 {
		t.Fatalf("proxied read: raw part streams = %v, decoded = %v, want 1 and 0", raw, dec)
	}

	// --- a query peer in front: the same text cold then warm. The warm
	// run is compiled from Q's compiled-text cache (cache="query"), the
	// same type the shards export as their function cache (cache="module")
	q := core.NewPeer("xrpc://q", net)
	if err := q.RegisterModule(personsModule, "http://example.org/p.xq"); err != nil {
		t.Fatal(err)
	}
	qLbl := obs.Label{Key: "peer", Value: "q"}
	q.EnableObs(reg, nil, qLbl)
	queryCache := func(name string) float64 {
		return reg.MustGather(name, qLbl, obs.Label{Key: "cache", Value: "query"})
	}
	const text = `import module namespace p = "functions_p" at "http://example.org/p.xq";
count(execute at {"xrpc://shard0"} {p:getPerson("person2")})`
	for run, wantHits := range []float64{0, 1} {
		if _, err := q.Query(text); err != nil {
			t.Fatal(err)
		}
		if hits, misses := queryCache("xrpc_plancache_hits_total"), queryCache("xrpc_plancache_misses_total"); hits != wantHits || misses != 1 {
			t.Fatalf("query peer run %d: plan cache hits = %v misses = %v, want %v and 1", run, hits, misses, wantHits)
		}
	}
	if n := queryCache("xrpc_plancache_entries"); n != 1 {
		t.Fatalf("query peer: plan cache entries = %v, want 1", n)
	}
	// two fors joined by a where equality over string keys: the query
	// engine hashes instead of lifting the cross product
	joins := func(kind string) float64 {
		return reg.MustGather("xrpc_query_joins_total", qLbl, obs.Label{Key: "kind", Value: kind})
	}
	res, err := q.Query(`import module namespace p = "functions_p" at "http://example.org/p.xq";
for $id in ("person1", "person2", "person3"),
    $p in execute at {"xrpc://shard0"} {p:getPerson("person2")}
where $id = $p/@id
return string($p/@id)`)
	if err != nil || res.Serialize() != "person2" {
		t.Fatalf("query peer join: %v, err %v", res, err)
	}
	if h, f, pairs := joins("hash"), joins("fallback"), reg.MustGather("xrpc_query_join_pairs_total", qLbl); h != 1 || f != 0 || pairs != 1 {
		t.Fatalf("query peer join: hash = %v fallback = %v pairs = %v, want 1, 0 and 1", h, f, pairs)
	}
	if n := reg.MustGather("xrpc_plancache_hits_total",
		obs.Label{Key: "shard", Value: "0"}, obs.Label{Key: "cache", Value: "module"}); n < 1 {
		t.Fatalf("shard 0 function cache hits = %v, want >= 1 over the stages above", n)
	}

	// --- eviction: a replica that fails its AdoptPUL leaves the
	// routing table for good and the update still commits
	shard := ownerShard(t, dep, xmark.PersonID(2))
	replica := dep.Table.Replicas(shard)[1]
	net.FailNext(replica, 1)
	write2 := setCityRequest("Evictville", xmark.PersonID(2))
	write2.TraceID = trace
	if _, err := co.Update(write2); err != nil {
		t.Fatal(err)
	}
	if reps := dep.Table.Replicas(shard); len(reps) != 1 || slices.Contains(reps, replica) {
		t.Fatalf("replicas after the failed AdoptPUL = %v, want %s gone", reps, replica)
	}
	if n := reg.MustGather("xrpc_cluster_evictions_total"); n != 1 {
		t.Fatalf("cluster evictions = %v, want 1", n)
	}

	// --- per-shard request metrics and latency histograms moved
	for s := 0; s < 2; s++ {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(s)}
		if n := reg.MustGather("xrpc_server_request_seconds", lbl); n < 2 {
			t.Fatalf("shard %d: latency observations = %v, want >= 2", s, n)
		}
		if n := reg.MustGather("xrpc_cluster_shard_call_seconds", lbl); n < 1 {
			t.Fatalf("shard %d: per-shard call observations = %v, want >= 1", s, n)
		}
	}
	if n := reg.MustGather("xrpc_cluster_scatter_seconds"); n < 1 {
		t.Fatalf("scatter latency observations = %v, want >= 1", n)
	}
	if n := reg.MustGather("xrpc_netsim_requests_total"); n < 4 {
		t.Fatalf("netsim requests = %v, want >= 4", n)
	}

	// --- one trace ID, both shards' slow-query logs
	for s := 0; s < 2; s++ {
		logged := shardLogs[s].String()
		if !strings.Contains(logged, trace) {
			t.Fatalf("shard %d slow-query log has no trace %s:\n%s", s, trace, logged)
		}
		if !strings.Contains(logged, "query_hash=") {
			t.Fatalf("shard %d slow-query log has no query hash:\n%s", s, logged)
		}
		if !strings.Contains(logged, "calls=4 index_builds=0 index_probes=4") {
			t.Fatalf("shard %d slow-query log has no 4-call bulk answered from its version's index:\n%s", s, logged)
		}
	}

	// --- debug endpoints: scrape the same registry over HTTP
	ts := httptest.NewServer(obs.DebugMux(reg, dep.Table.Validate))
	defer ts.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	code, scrape := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE xrpc_cluster_scatter_seconds histogram",
		`xrpc_cluster_scatters_total{strategy="routed"}`,
		`xrpc_cluster_gather_streams_total{forward="raw"} 1`,
		`xrpc_server_requests_total{shard="0",method="getPerson"}`,
		`xrpc_server_requests_total{shard="1",method="getPerson"}`,
		"xrpc_resultcache_hits_total 1",
		"xrpc_txn_commits_total 2",
		`xrpc_cluster_shard_open_seconds_bucket{shard="0",le="+Inf"}`,
		`xrpc_wal_appends_total{kind="commit"}`,
		`xrpc_planner_derivations_total{outcome="derived"}`,
		"# TYPE xrpc_wal_fsync_seconds histogram",
		"xrpc_cluster_evictions_total 1",
		`xrpc_plancache_hits_total{peer="q",cache="query"} 1`,
		`xrpc_query_joins_total{peer="q",kind="hash"} 1`,
		`xrpc_plancache_evictions_total{shard="0",cache="module"} 0`,
		"xrpc_resultcache_evictions_total 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics scrape missing %q", want)
		}
	}
	// the strategy is counted once, by the coordinator, and the planner
	// exports no per-shard statistics
	for _, gone := range []string{"xrpc_planner_strategy_total", "xrpc_planner_stats_"} {
		if strings.Contains(scrape, gone) {
			t.Errorf("/metrics scrape lists %q", gone)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", scrape)
	}
}

// TestInstrumentationAddsNoAllocs is the coordinator's counterpart of
// the server's guard of the same name, over the gather's item path: with
// the metrics attached a read may pay a constant (the first-item flags),
// but nothing per item — neither where wrappers are spliced
// (ScatterStream) nor where they are decoded (Scatter).
func TestInstrumentationAddsNoAllocs(t *testing.T) {
	const shards, items = 2, 512
	enc := soap.NewEncoder()
	enc.EncodeResponse(&soap.Response{Module: "m", Method: "scan",
		Results: []xdm.Sequence{slices.Repeat(xdm.Sequence{xdm.String("an item")}, items)}})
	body := enc.Copy()
	enc.Release()

	net := netsim.NewNetwork(0, 0)
	rt, err := NewRoutingTable(shards)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		uri := "xrpc://shard" + strconv.Itoa(s)
		net.Register(uri, netsim.HandlerFunc(func(string, []byte) ([]byte, error) { return body, nil }))
		if err := rt.Add(s, uri); err != nil {
			t.Fatal(err)
		}
	}
	co := NewCoordinator(rt, client.New(net))
	br := &client.BulkRequest{ModuleURI: "m", Func: "scan", Arity: 0, Calls: [][]xdm.Sequence{{}}}
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg, shards)

	for _, c := range []struct {
		forward string
		read    func() error
	}{
		{"raw", func() error { return co.ScatterStream(br, io.Discard) }},
		{"decoded", func() error { _, err := co.Scatter(br); return err }},
	} {
		run := func() float64 {
			return testing.AllocsPerRun(20, func() {
				if err := c.read(); err != nil {
					t.Fatal(err)
				}
			})
		}
		co.Metrics = nil
		base := run()
		co.Metrics = metrics
		instr := run()
		// a per-item cost would show as shards*items; the constant is the
		// first-item flags, one allocation where they escape. Not under
		// -race: the pooled decoders are dropped at random there, and the
		// two runs differ by whole pool refills.
		if instr-base >= 2 && !raceEnabled {
			t.Errorf("%s: instrumentation added allocations: %.1f -> %.1f per read of %d items",
				c.forward, base, instr, shards*items)
		}
		if n := reg.MustGather("xrpc_cluster_gather_streams_total",
			obs.Label{Key: "forward", Value: c.forward}); n != shards*21 {
			t.Errorf("%s part streams = %v, want %d", c.forward, n, shards*21)
		}
	}
}
