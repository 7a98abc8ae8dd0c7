// Benchmarks reproducing the paper's evaluation. Each Benchmark* maps to
// a table or figure of the paper (see EXPERIMENTS.md for the index and
// the measured-vs-paper comparison):
//
//	BenchmarkTable2_*      — Table 2 (bulk vs one-at-a-time × cache)
//	BenchmarkThroughput_*  — §3.3 throughput (request/response payloads)
//	BenchmarkTable3_*      — Table 3 (wrapper latency phases)
//	BenchmarkTable4_*      — Table 4 (distributed strategies for Q7)
//	BenchmarkFigure1_Trace — Figure 1 (Bulk RPC translation w/ tracing)
package xrpc

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xrpc/internal/bench"
	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// benchRTT is the simulated round-trip latency (stands in for the
// paper's 1 Gb/s LAN; see DESIGN.md substitutions).
const benchRTT = 100 * time.Microsecond

func runTable2Cell(b *testing.B, x int, bulk, warm bool) {
	b.Helper()
	env, err := bench.NewTable2Env(benchRTT)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunEchoVoid(x, bulk, warm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_OneAtATime_NoCache_X1(b *testing.B)    { runTable2Cell(b, 1, false, false) }
func BenchmarkTable2_OneAtATime_NoCache_X1000(b *testing.B) { runTable2Cell(b, 1000, false, false) }
func BenchmarkTable2_Bulk_NoCache_X1(b *testing.B)          { runTable2Cell(b, 1, true, false) }
func BenchmarkTable2_Bulk_NoCache_X1000(b *testing.B)       { runTable2Cell(b, 1000, true, false) }
func BenchmarkTable2_OneAtATime_Cache_X1(b *testing.B)      { runTable2Cell(b, 1, false, true) }
func BenchmarkTable2_OneAtATime_Cache_X1000(b *testing.B)   { runTable2Cell(b, 1000, false, true) }
func BenchmarkTable2_Bulk_Cache_X1(b *testing.B)            { runTable2Cell(b, 1, true, true) }
func BenchmarkTable2_Bulk_Cache_X1000(b *testing.B)         { runTable2Cell(b, 1000, true, true) }

func runThroughput(b *testing.B, kb int, response bool) {
	b.Helper()
	b.SetBytes(int64(kb) * 1024)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunThroughput(kb, response); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughput_Request256KB(b *testing.B)  { runThroughput(b, 256, false) }
func BenchmarkThroughput_Request1MB(b *testing.B)    { runThroughput(b, 1024, false) }
func BenchmarkThroughput_Response256KB(b *testing.B) { runThroughput(b, 256, true) }
func BenchmarkThroughput_Response1MB(b *testing.B)   { runThroughput(b, 1024, true) }

func table3Config() xmark.Config {
	return xmark.Config{Persons: 200, AnnotationWords: 10, Seed: 1}
}

func runTable3(b *testing.B, fn string, x int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable3Fns([]string{fn}, []int{x}, table3Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Fn != fn || rows[0].X != x {
			b.Fatalf("row %s x=%d missing", fn, x)
		}
	}
}

func BenchmarkTable3_EchoVoid_X1(b *testing.B)     { runTable3(b, "echoVoid", 1) }
func BenchmarkTable3_EchoVoid_X1000(b *testing.B)  { runTable3(b, "echoVoid", 1000) }
func BenchmarkTable3_GetPerson_X1(b *testing.B)    { runTable3(b, "getPerson", 1) }
func BenchmarkTable3_GetPerson_X1000(b *testing.B) { runTable3(b, "getPerson", 1000) }

// table4Config is a scaled-down version of the paper's 250-person /
// 4875-auction setup (scale by -benchtime budget; cmd/xrpcbench runs the
// full size).
func table4Config() xmark.Config {
	return xmark.Config{Persons: 50, ClosedAuctions: 500, Matches: 6, AnnotationWords: 40, Seed: 42}
}

func runTable4(b *testing.B, name, query string) {
	b.Helper()
	env, err := strategies.NewEnv(table4Config())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Run(name, query)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows != 6 {
			b.Fatalf("%s returned %d rows", name, r.Rows)
		}
	}
}

func BenchmarkTable4_DataShipping(b *testing.B) {
	runTable4(b, "data shipping", strategies.QDataShipping)
}

func BenchmarkTable4_PredicatePushdown(b *testing.B) {
	runTable4(b, "predicate push-down", strategies.QPredicatePushdown)
}

func BenchmarkTable4_ExecutionRelocation(b *testing.B) {
	runTable4(b, "execution relocation", strategies.QExecutionRelocation)
}

func BenchmarkTable4_DistributedSemiJoin(b *testing.B) {
	runTable4(b, "distributed semi-join", strategies.QDistributedSemiJoin)
}

func BenchmarkFigure1_Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace, err := bench.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		if len(trace.PerPeer) != 2 {
			b.Fatal("trace incomplete")
		}
	}
}

// BenchmarkFigure2_BulkTranslation measures the pure translation cost of
// the Figure 2 rule (compile + plan execution without network effects).
func BenchmarkFigure2_BulkTranslation(b *testing.B) {
	env, err := bench.NewTable2Env(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunEchoVoid(100, true, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkExecParallel contrasts NativeExecutor worker-pool sizes
// on one read-only bulk request of 64 getPerson calls (the parallel
// Bulk RPC execution pipeline). Wall-clock speedup needs multiple
// cores; on a single-core machine all sizes degenerate to interleaved
// sequential execution.
func benchBulkExec(b *testing.B, workers int) {
	b.Helper()
	env, err := bench.NewBulkExecEnv(64, xmark.Config{Persons: 150, AnnotationWords: 10, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	// prime the function cache: measure execution, not one-time compile
	if _, _, err := env.Run(workers); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Run(workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkExecParallel_W1(b *testing.B) { benchBulkExec(b, 1) }
func BenchmarkBulkExecParallel_W4(b *testing.B) { benchBulkExec(b, 4) }
func BenchmarkBulkExecParallel_WMax(b *testing.B) {
	benchBulkExec(b, runtime.GOMAXPROCS(0))
}

// benchClusterScatter deploys the Q_B3 auctions cluster over 1, 2, 4
// and 8 shard peers, primes each with one untimed op, and times op as a
// b.Run("peers=N") sub-benchmark. Identity against an unsharded peer
// at every peer count is TestScatterGatherMatchesSinglePeer's.
func benchClusterScatter(b *testing.B, cacheBytes int64,
	op func(co *cluster.Coordinator, br *client.BulkRequest) error) {
	b.Helper()
	cfg := xmark.PaperConfig(0.1)
	reg := modules.NewRegistry()
	if err := reg.Register(strategies.FunctionsB, "http://example.org/b.xq"); err != nil {
		b.Fatal(err)
	}
	auctions := xmark.GenerateAuctions(cfg)
	br := bench.ClusterProbeRequest(cfg)
	for _, peers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			dep, err := cluster.Deploy(netsim.NewNetwork(0, 0), reg,
				map[string]string{"auctions.xml": auctions},
				cluster.DeployConfig{Shards: peers, RespCacheBytes: cacheBytes, ResultCacheBytes: cacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			co := dep.Coordinator()
			if err := op(co, br); err != nil { // warm the function caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(co, br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func scatterOp(co *cluster.Coordinator, br *client.BulkRequest) error {
	_, err := co.Scatter(br)
	return err
}

// BenchmarkClusterScatter benches the scatter-gather hot path in
// isolation: each iteration is one bulk of Q_B3 probes fanned out over
// the shard peers and merged.
func BenchmarkClusterScatter(b *testing.B) { benchClusterScatter(b, 0, scatterOp) }

// BenchmarkClusterScatterStream benches the streamed wire path end to
// end: each iteration scatters the Q_B3 probe bulk and writes the merged
// response envelope to a discarded sink — shard responses are
// pull-decoded and re-encoded in shard order without the coordinator
// ever holding the merged result (the proxy serving path). Its memory
// bound is make memsmoke's.
func BenchmarkClusterScatterStream(b *testing.B) {
	benchClusterScatter(b, 0, func(co *cluster.Coordinator, br *client.BulkRequest) error {
		return co.ScatterStream(br, io.Discard)
	})
}

func BenchmarkClusterShardedSemiJoin_P4(b *testing.B) {
	env, err := strategies.NewShardedEnv(xmark.PaperConfig(0.1), 4, 1, netsim.NewNetwork(benchRTT, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.RunSemiJoin(); err != nil {
			b.Fatal(err)
		}
	}
}

// runClusterUpdate benches the routed write path: one updating bulk
// (8 keys spread across shards) routed shard-by-shard and committed via
// 2PC with replica PUL replication, per iteration. Deployment happens
// outside the timer; identity vs the unsharded baseline is pinned by
// the cluster's TestRoutedUpdateCommitsVia2PCWithReadYourWrites.
func runClusterUpdate(b *testing.B, peers, replication int) {
	runClusterUpdateWAL(b, peers, replication, "")
}

// runClusterUpdateWAL is runClusterUpdate with an optional WAL root:
// when set, every replica fsyncs a commit record before acking, so the
// delta against the no-WAL variant is the group-committed durability
// overhead on the routed write path.
func runClusterUpdateWAL(b *testing.B, peers, replication int, walRoot string) {
	b.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(bench.FunctionsP, "http://example.org/p.xq"); err != nil {
		b.Fatal(err)
	}
	cfg := xmark.PaperConfig(0.2)
	net := netsim.NewNetwork(0, 0)
	dep, err := cluster.Deploy(net, reg,
		map[string]string{"persons.xml": xmark.GeneratePersons(cfg)},
		cluster.DeployConfig{Shards: peers, Replication: replication,
			Routes: bench.PersonRoutes(), WALRoot: walRoot})
	if err != nil {
		b.Fatal(err)
	}
	if walRoot != "" {
		defer dep.Close()
	}
	co := dep.Coordinator()
	upd := &client.BulkRequest{
		ModuleURI: "functions_p", AtHint: "http://example.org/p.xq",
		Func: "setCity", Arity: 2, Updating: true,
	}
	for i := 0; i < 8; i++ {
		upd.Calls = append(upd.Calls, []xdm.Sequence{
			{xdm.String(xmark.PersonID(i * cfg.Persons / 8))}, {xdm.String("Benchtown")}})
	}
	if _, err := co.Update(upd); err != nil { // warm the function caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Update(upd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRoutedUpdate_P4(b *testing.B)   { runClusterUpdate(b, 4, 1) }
func BenchmarkClusterRoutedUpdate_P4R2(b *testing.B) { runClusterUpdate(b, 4, 2) }

// BenchmarkClusterRoutedUpdateWAL_P4 is the durable variant of
// BenchmarkClusterRoutedUpdate_P4: same routed 2PC write, each shard
// fsyncing its commit record before acking. Sequential updates cannot
// share flushes, so this measures the worst case — one uncontended
// fsync round per commit; the Conc pair below measures the group-commit
// regime the 15%-of-baseline acceptance bar is set against.
func BenchmarkClusterRoutedUpdateWAL_P4(b *testing.B) {
	runClusterUpdateWAL(b, 4, 1, b.TempDir())
}

// runClusterUpdateConc drives independent single-key routed updates
// from 64×GOMAXPROCS goroutines — the concurrent-writer regime where
// the WAL's group commit batches every transaction in flight at a
// shard into one fsync, and the fsync wait (pure I/O) overlaps other
// transactions' CPU work. Comparing the WALConc and Conc variants
// isolates the amortized durability overhead per committed update;
// the high parallelism matters on small runners (at GOMAXPROCS=1,
// RunParallel alone would drive one update at a time and every commit
// would pay a solo, unamortized flush).
func runClusterUpdateConc(b *testing.B, peers, replication int, walRoot string) {
	b.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(bench.FunctionsP, "http://example.org/p.xq"); err != nil {
		b.Fatal(err)
	}
	cfg := xmark.PaperConfig(0.2)
	net := netsim.NewNetwork(0, 0)
	dep, err := cluster.Deploy(net, reg,
		map[string]string{"persons.xml": xmark.GeneratePersons(cfg)},
		cluster.DeployConfig{Shards: peers, Replication: replication,
			Routes: bench.PersonRoutes(), WALRoot: walRoot})
	if err != nil {
		b.Fatal(err)
	}
	if walRoot != "" {
		defer dep.Close()
	}
	co := dep.Coordinator()
	update := func(i int) error {
		_, err := co.Update(&client.BulkRequest{
			ModuleURI: "functions_p", AtHint: "http://example.org/p.xq",
			Func: "setCity", Arity: 2, Updating: true,
			Calls: [][]xdm.Sequence{
				{{xdm.String(xmark.PersonID(i % cfg.Persons))}, {xdm.String("Benchtown")}}},
		})
		return err
	}
	if err := update(0); err != nil { // warm the function caches
		b.Fatal(err)
	}
	var ctr atomic.Int64
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := update(int(ctr.Add(1))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	// the concurrent transactions overlap: every person one of them
	// updated must read the write, none lost to another's commit
	read := &client.BulkRequest{
		ModuleURI: "functions_p", AtHint: "http://example.org/p.xq",
		Func: "getPerson", Arity: 1,
	}
	for i := 0; i <= int(ctr.Load()) && i < cfg.Persons; i++ {
		read.Calls = append(read.Calls, []xdm.Sequence{{xdm.String(xmark.PersonID(i))}})
	}
	res, err := co.Scatter(read)
	if err != nil {
		b.Fatal(err)
	}
	for i, seq := range res {
		cities := xdm.Step(seq[0].(*xdm.Node), xdm.AxisDescendant, xdm.NodeTest{Name: "city"})
		if len(cities) != 1 || cities[0].StringValue() != "Benchtown" {
			b.Fatalf("%s after its update: %s, want Benchtown", xmark.PersonID(i), xdm.SerializeNode(seq[0].(*xdm.Node)))
		}
	}
}

func BenchmarkClusterRoutedUpdateConc_P4(b *testing.B) { runClusterUpdateConc(b, 4, 1, "") }
func BenchmarkClusterRoutedUpdateWALConc_P4(b *testing.B) {
	runClusterUpdateConc(b, 4, 1, benchWALDir(b))
}

// benchWALDir places the benchmark WAL under XRPC_BENCH_WAL_DIR when
// set (a tmpfs like /dev/shm in CI — measuring the WAL code path:
// framing, group-commit coordination, the extra wire round) and under
// b.TempDir() otherwise (adding this filesystem's real fsync latency,
// whatever a flush costs here). The durability acceptance bar — WALConc
// within 15% of Conc — is defined on the tmpfs configuration, because
// the repo-filesystem number measures the host's flush hardware more
// than it measures this code; both numbers are worth watching.
func benchWALDir(b *testing.B) string {
	b.Helper()
	root := os.Getenv("XRPC_BENCH_WAL_DIR")
	if root == "" {
		return b.TempDir()
	}
	dir, err := os.MkdirTemp(root, "xrpc-bench-wal-")
	if err != nil {
		return b.TempDir() // the tmpfs path may not exist on this platform
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// BenchmarkClusterPrunedProbe_P4 benches the predicate-pruned read
// path: one single-key probe that range metadata routes to exactly one
// of 4 shards.
func BenchmarkClusterPrunedProbe_P4(b *testing.B) {
	reg := modules.NewRegistry()
	if err := reg.Register(bench.FunctionsP, "http://example.org/p.xq"); err != nil {
		b.Fatal(err)
	}
	cfg := xmark.PaperConfig(0.2)
	net := netsim.NewNetwork(0, 0)
	dep, err := cluster.Deploy(net, reg,
		map[string]string{"persons.xml": xmark.GeneratePersons(cfg)},
		cluster.DeployConfig{Shards: 4, Routes: bench.PersonRoutes()})
	if err != nil {
		b.Fatal(err)
	}
	co := dep.Coordinator()
	probe := &client.BulkRequest{
		ModuleURI: "functions_p", AtHint: "http://example.org/p.xq",
		Func: "getPerson", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String(xmark.PersonID(cfg.Persons / 2))}}},
	}
	if _, err := co.Scatter(probe); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Scatter(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterCachedScatter benches the warm three-tier read path:
// the deployment enables the shard response caches and the coordinator
// merged-result cache, the untimed op populates them, and each
// iteration is then a version-revalidated cache hit (one shardInfo
// probe round, merged result from coordinator memory). Contrast with
// BenchmarkClusterScatter, which re-executes every probe per iteration;
// make cachesmoke pins the cold, warm and post-write answers to an
// unsharded peer.
func BenchmarkClusterCachedScatter(b *testing.B) { benchClusterScatter(b, 32<<20, scatterOp) }
