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
//	xrpcbench -table planner     self-driving planner: derived routes + cost model vs broadcast
//	xrpcbench -table all         everything
//
// The -scale flag scales the XMark data (1.0 = the paper's 250 persons /
// 4875 auctions); -rtt sets the simulated round-trip latency; -parallel
// and -calls bound the worker pool sizes and the bulk sizes swept by the
// bulkexec experiment. An unknown -table name exits 2.
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
		"which experiment(s), comma-separated: 2, 3, 4, throughput, fig1, bulkexec, algebra, planner, all")
	scale := flag.Float64("scale", 0.2, "XMark scale (1.0 = paper size: 250 persons, 4875 auctions)")
	rtt := flag.Duration("rtt", 200*time.Microsecond, "simulated network round-trip latency")
	x := flag.Int("x", 1000, "loop iterations for Table 2/3 ($x)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"largest worker pool size for the bulkexec experiment")
	calls := flag.Int("calls", 512, "largest bulk request size of the bulkexec sweep (1, 8, 64, 512)")
	rows := flag.Int("rows", 16384, "input rows for the algebra experiment")
	flag.Parse()

	// experiments in the order -table all runs them
	experiments := []struct {
		name, title string
		run         func() error
	}{
		{"2", "Table 2", func() error { return runTable2(*rtt, *x) }},
		{"throughput", "Throughput (§3.3)", runThroughput},
		{"3", "Table 3", func() error { return runTable3(*scale, *x) }},
		{"4", "Table 4", func() error { return runTable4(*scale) }},
		{"fig1", "Figure 1", runFigure1},
		{"bulkexec", "Bulk execution (sequential vs parallel)", func() error {
			return runBulkExec(*calls, *parallel, *scale)
		}},
		{"algebra", "Algebra operators (columnar vs row-store)", func() error {
			return runAlgebra(*rows)
		}},
		{"planner", "Self-driving planner (derived routes + cost model vs broadcast)", func() error {
			return runPlanner(*scale, *rtt)
		}},
	}

	valid := map[string]bool{"all": true}
	names := []string{}
	for _, e := range experiments {
		valid[e.name] = true
		names = append(names, e.name)
	}
	selected := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		t = strings.TrimSpace(t)
		if !valid[t] {
			fmt.Fprintf(os.Stderr, "xrpcbench: unknown -table %q; valid: %s, all\n", t, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected[t] = true
	}
	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s ===\n", e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.title, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// runPlanner sweeps the self-driving coordinator — ZERO hand-written
// RouteSpecs, every route derived by the compiler — against the plain
// broadcast coordinator over 1/2/4/8 shard peers: keyed point probes,
// a derived range scan, and the cost-model semi-join shipping keys,
// data, or the measured smaller side. Every mode's response is verified
// byte-identical to the unsharded single-peer baseline before timing.
func runPlanner(scale float64, rtt time.Duration) error {
	cfg := xmark.PaperConfig(scale)
	fmt.Printf("XMark: %d persons, %d closed auctions; rtt %v, %d MB/s links\n",
		cfg.Persons, cfg.ClosedAuctions, rtt, bench.ClusterBandwidth/(1024*1024))
	rows, err := bench.RunPlannerBench(cfg, []int{1, 2, 4, 8}, rtt, 3)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatPlannerBench(rows))
	fmt.Println("\nzero hand-written route specs; every response verified byte-identical to the unsharded baseline before timing")
	return nil
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
