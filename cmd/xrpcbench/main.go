// Command xrpcbench regenerates the paper's evaluation tables and
// figures:
//
//	xrpcbench -table 2           Table 2  (bulk vs one-at-a-time × cache)
//	xrpcbench -table 3           Table 3  (wrapper latency phases)
//	xrpcbench -table 4           Table 4  (Q7 distributed strategies)
//	xrpcbench -table throughput  §3.3 request/response throughput
//	xrpcbench -table fig1        Figure 1 (Bulk RPC intermediate tables)
//	xrpcbench -table bulkexec    server-side bulk execution: cost by bulk size, sequential vs parallel
//	xrpcbench -table algebra     columnar vs row-store relational operators
//	xrpcbench -table cluster     scatter-gather Bulk RPC over 1/2/4/8 shard peers
//	xrpcbench -table cluster-update  routed vs broadcast writes, pruned vs full probes
//	xrpcbench -table cache       three-tier cache: cold vs warm vs post-invalidation
//	xrpcbench -table planner     self-driving planner: derived routes + cost model vs broadcast
//	xrpcbench -table wire        SOAP encode/decode: streaming vs reference path
//	xrpcbench -table all         everything
//
// The -scale flag scales the XMark data (1.0 = the paper's 250 persons /
// 4875 auctions); -rtt sets the simulated round-trip latency; -parallel
// and -calls bound the worker pool sizes and the bulk sizes swept by the
// bulkexec experiment; -gzip
// adds gzip content-coding sizes to the wire experiment; -wire-json
// writes the wire rows as a JSON snapshot (BENCH_wire.json);
// -cluster-json writes the cluster experiments — the scatter-gather
// sweep with its streamed-vs-buffered peak-heap columns and the
// cluster-update rows — as one JSON snapshot (BENCH_cluster.json);
// -cache-json writes the cache experiment rows as a JSON snapshot
// (BENCH_cache.json); -planner-json writes the planner experiment rows
// as a JSON snapshot (BENCH_planner.json).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"xrpc/internal/bench"
	"xrpc/internal/xmark"
)

func main() {
	table := flag.String("table", "all",
		"which experiment(s), comma-separated: 2, 3, 4, throughput, fig1, bulkexec, algebra, cluster, cluster-update, cache, planner, wire, all")
	scale := flag.Float64("scale", 0.2, "XMark scale (1.0 = paper size: 250 persons, 4875 auctions)")
	rtt := flag.Duration("rtt", 200*time.Microsecond, "simulated network round-trip latency")
	x := flag.Int("x", 1000, "loop iterations for Table 2/3 ($x)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"largest worker pool size for the bulkexec experiment")
	calls := flag.Int("calls", 512, "largest bulk request size of the bulkexec sweep (1, 8, 64, 512)")
	rows := flag.Int("rows", 16384, "input rows for the algebra experiment")
	useGzip := flag.Bool("gzip", false, "measure gzip content-coding sizes in the wire experiment")
	wireJSON := flag.String("wire-json", "", "write the wire experiment rows to this file as JSON")
	clusterJSON := flag.String("cluster-json", "", "write the cluster experiment rows (scatter sweep + cluster-update) to this file as JSON")
	cacheJSON := flag.String("cache-json", "", "write the cache experiment rows to this file as JSON")
	plannerJSON := flag.String("planner-json", "", "write the planner experiment rows to this file as JSON")
	flag.Parse()

	run := func(name string, f func() error) {
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	selected := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		selected[strings.TrimSpace(t)] = true
	}
	all := selected["all"]
	if all || selected["2"] {
		run("Table 2", func() error { return runTable2(*rtt, *x) })
	}
	if all || selected["throughput"] {
		run("Throughput (§3.3)", runThroughput)
	}
	if all || selected["3"] {
		run("Table 3", func() error { return runTable3(*scale, *x) })
	}
	if all || selected["4"] {
		run("Table 4", func() error { return runTable4(*scale) })
	}
	if all || selected["fig1"] {
		run("Figure 1", runFigure1)
	}
	if all || selected["bulkexec"] {
		run("Bulk execution (sequential vs parallel)", func() error {
			return runBulkExec(*calls, *parallel, *scale)
		})
	}
	if all || selected["algebra"] {
		run("Algebra operators (columnar vs row-store)", func() error {
			return runAlgebra(*rows)
		})
	}
	var scatterResults []bench.ClusterBenchResult
	var updateRows []bench.ClusterUpdateRow
	if all || selected["cluster"] {
		run("Cluster scatter-gather (1/2/4/8 shard peers)", func() (err error) {
			scatterResults, err = runCluster(*scale, *rtt)
			return err
		})
	}
	if all || selected["cluster-update"] {
		run("Cluster writes & pruned probes (routed vs broadcast)", func() (err error) {
			updateRows, err = runClusterUpdate(*scale, *rtt)
			return err
		})
	}
	if *clusterJSON != "" && (scatterResults != nil || updateRows != nil) {
		data, err := bench.ClusterSnapshotJSON(scatterResults, updateRows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*clusterJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cluster snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *clusterJSON)
	}
	if all || selected["cache"] {
		run("Three-tier cache (cold vs warm vs post-invalidation)", func() error {
			return runCache(*scale, *rtt, *cacheJSON)
		})
	}
	if all || selected["planner"] {
		run("Self-driving planner (derived routes + cost model vs broadcast)", func() error {
			return runPlanner(*scale, *rtt, *plannerJSON)
		})
	}
	if all || selected["wire"] {
		run("SOAP wire path (streaming vs reference)", func() error {
			return runWire(*useGzip, *wireJSON)
		})
	}
}

// runPlanner sweeps the self-driving coordinator — ZERO hand-written
// RouteSpecs, every route derived by the compiler — against the plain
// broadcast coordinator over 1/2/4/8 shard peers: keyed point probes,
// a derived range scan, and the cost-model semi-join shipping keys,
// data, or the measured smaller side. Every mode's response is verified
// byte-identical to the unsharded single-peer baseline before timing.
func runPlanner(scale float64, rtt time.Duration, jsonPath string) error {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons, %d closed auctions; rtt %v, %d MB/s links\n",
		cfg.Persons, cfg.ClosedAuctions, rtt, bench.ClusterBandwidth/(1024*1024))
	rows, err := bench.RunPlannerBench(cfg, []int{1, 2, 4, 8}, rtt, 3)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatPlannerBench(rows))
	fmt.Println("\nzero hand-written route specs; every response verified byte-identical to the unsharded baseline before timing")
	if jsonPath != "" {
		data, err := bench.PlannerSnapshotJSON(rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runCache sweeps the version-fenced cache tiers over 1/2/4/8 shard
// peers: the same key-predicate probe bulk timed on a fresh deployment
// (cold), repeated (warm: one shardInfo revalidation round, results
// from coordinator memory), and right after a routed single-shard
// commit (the fence redoes exactly the invalidated work). Every timed
// response is byte-compared against an unsharded single-peer execution.
func runCache(scale float64, rtt time.Duration, jsonPath string) error {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons; rtt %v, %d MB/s links\n",
		cfg.Persons, rtt, bench.ClusterBandwidth/(1024*1024))
	rows, err := bench.RunCacheBench(cfg, []int{1, 2, 4, 8}, rtt, 5)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatCacheBench(rows))
	fmt.Println("\nevery timed response (cold, warm, post-write) verified byte-identical to the unsharded single-peer baseline")
	if jsonPath != "" {
		data, err := bench.CacheSnapshotJSON(rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runClusterUpdate contrasts the range-aware cluster with its broadcast
// predecessor: updating bulks routed to the owning shards (2PC over the
// touched primaries) vs broadcast to every primary, and key-predicate
// probes pruned by range metadata vs scattered to all shards. Every
// mode's results are verified byte-identical to an unsharded
// single-peer execution before timing.
func runClusterUpdate(scale float64, rtt time.Duration) ([]bench.ClusterUpdateRow, error) {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons; rtt %v, %d MB/s links\n",
		cfg.Persons, rtt, bench.ClusterBandwidth/(1024*1024))
	rows, err := bench.RunClusterUpdateBench(cfg, []int{2, 4, 8}, rtt, 3)
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatClusterUpdateBench(rows))
	fmt.Println("\nall modes verified byte-identical to the unsharded single-peer baseline before timing")
	return rows, nil
}

// runWire contrasts the streaming wire path (pooled encoder + envelope
// pull-decoder) with the seed's reference path (strings.Builder encoder
// + DOM decoder) across message shapes. Outputs are verified identical
// before timing: both encoders must emit the same bytes, and both
// decoders' results must re-encode identically.
func runWire(gzipSizes bool, jsonPath string) error {
	rows, err := bench.RunWireBench(3, gzipSizes)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatWireBench(rows))
	fmt.Println("\noutputs verified identical between streaming and reference paths before timing")
	if jsonPath != "" {
		data, err := bench.WireSnapshotJSON(rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runCluster sweeps the scatter-gather coordinator over 1, 2, 4, and 8
// shard peers for the probe and scan workloads. At every peer count the
// merged response is verified byte-identical to the unsharded
// single-peer response before any timing happens; the per-shard byte
// columns show the partitioner splitting traffic across the cluster;
// the peak-heap columns contrast the streamed shard-order merge with
// the buffered collect-then-encode reference.
func runCluster(scale float64, rtt time.Duration) ([]bench.ClusterBenchResult, error) {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons, %d closed auctions; rtt %v, %d MB/s links\n",
		cfg.Persons, cfg.ClosedAuctions, rtt, bench.ClusterBandwidth/(1024*1024))
	results, err := bench.RunClusterBench(cfg, []int{1, 2, 4, 8}, rtt, 3)
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatClusterBench(results))
	fmt.Println("\nmerged responses verified byte-identical to the unsharded single-peer response at every peer count")
	return results, nil
}

// runAlgebra contrasts the columnar vectorized operators with the
// seed's row-store implementations on the loop-lifting hot shapes,
// verifying identical outputs before timing.
func runAlgebra(rows int) error {
	res, err := bench.RunAlgebraBench(rows, 5)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatAlgebraBench(res))
	fmt.Println("\noutputs verified identical between layouts before timing")
	return nil
}

// runBulkExec measures server-side execution of one read-only bulk
// request as the bulk grows (1, 8, 64, 512 calls, up to maxCalls) and as
// the NativeExecutor worker pool grows (1, 2, 4, … up to maxWorkers),
// for the paper's two selections: getPerson over persons (§4) and Q_B3
// over auctions (§5). A cell is the median of 9 runs; every response is
// verified byte-identical to the one-worker response before timing.
func runBulkExec(maxCalls, maxWorkers int, scale float64) error {
	cfg := xmark.PaperConfig(scale)
	envs := []struct {
		title string
		build func(calls int, cfg xmark.Config) (*bench.BulkExecEnv, error)
	}{
		{fmt.Sprintf("getPerson over %d persons", cfg.Persons), bench.NewBulkExecEnv},
		{fmt.Sprintf("Q_B3 over %d closed auctions", cfg.ClosedAuctions), bench.NewBulkProbeEnv},
	}
	var pools []int
	for workers := 1; workers <= maxWorkers || workers == 1; workers *= 2 {
		pools = append(pools, workers)
	}
	for _, e := range envs {
		fmt.Printf("%s, ms per request (median of 9)\n%8s", e.title, "calls")
		for _, workers := range pools {
			fmt.Printf("  workers %-3d", workers)
		}
		fmt.Printf("  ms/call at workers 1\n")
		for _, calls := range []int{1, 8, 64, 512} {
			if calls > maxCalls && calls > 1 {
				break
			}
			env, err := e.build(calls, cfg)
			if err != nil {
				return err
			}
			// untimed: primes the function cache, and is the reference
			_, baseResp, err := env.Run(1)
			if err != nil {
				return err
			}
			fmt.Printf("%8d", calls)
			var seqMS float64
			for _, workers := range pools {
				times := make([]float64, 9)
				for i := range times {
					d, resp, err := env.Run(workers)
					if err != nil {
						return err
					}
					if !bytes.Equal(resp, baseResp) {
						return fmt.Errorf("%s x%d: response at workers=%d differs from sequential", e.title, calls, workers)
					}
					times[i] = float64(d.Microseconds()) / 1000.0
				}
				sort.Float64s(times)
				if workers == 1 {
					seqMS = times[4]
				}
				fmt.Printf("  %11.3f", times[4])
			}
			fmt.Printf("  %.4f\n", seqMS/float64(calls))
		}
		fmt.Println()
	}
	fmt.Println("responses verified byte-identical across worker counts before timing")
	return nil
}

func runTable2(rtt time.Duration, x int) error {
	xs := []int{1, x}
	cells, err := bench.RunTable2(rtt, xs)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable2(cells, xs))
	fmt.Println("\npaper (msec, 2×Athlon64 @ 1 Gb/s):")
	fmt.Println("              | No cache:  $x=1 133, $x=1000 2696 | cache: $x=1 2.6, $x=1000 2696  (one-at-a-time)")
	fmt.Println("              | No cache:  $x=1 130, $x=1000  134 | cache: $x=1 2.7, $x=1000    4  (bulk)")
	return nil
}

func runThroughput() error {
	for _, kb := range []int{64, 256, 1024, 4096} {
		req, err := bench.RunThroughput(kb, false)
		if err != nil {
			return err
		}
		resp, err := bench.RunThroughput(kb, true)
		if err != nil {
			return err
		}
		fmt.Printf("payload %5d KB: request %7.1f MB/s   response %7.1f MB/s\n",
			kb, req.MBPerSecond, resp.MBPerSecond)
	}
	fmt.Println("\npaper: 8 MB/s (large requests), 14 MB/s (large responses) — CPU-bound on 1 Gb/s LAN")
	return nil
}

func runTable3(scale float64, x int) error {
	cfg := xmark.PaperConfig(scale)
	rows, err := bench.RunTable3([]int{1, x}, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable3(rows))
	fmt.Println("\npaper (msec, Saxon-B 8.7):")
	fmt.Println("  echoVoid  $x=1     total  275  compile 178  treebuild  4.6  exec   92")
	fmt.Println("  echoVoid  $x=1000  total  590  compile 178  treebuild   86  exec  325")
	fmt.Println("  getPerson $x=1     total 4276  compile 185  treebuild 1956  exec 2134")
	fmt.Println("  getPerson $x=1000  total 8167  compile 185  treebuild 1973  exec 6010")
	return nil
}

func runTable4(scale float64) error {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons, %d closed auctions, %d matches\n",
		cfg.Persons, cfg.ClosedAuctions, cfg.Matches)
	results, err := bench.RunTable4(cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable4(results))
	fmt.Println("\npaper (msec): data shipping 28122 | pushdown 25799 | relocation 53184 | semi-join 10278")
	return nil
}

func runFigure1() error {
	trace, err := bench.RunFigure1()
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFigure1(trace))
	return nil
}
