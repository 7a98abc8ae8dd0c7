// Command xrpcbm is the repository's end-to-end benchmark (see
// ../../README.md). The driver contract is
//
//	go run ./benchmark/cmd/xrpcbm --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which runs one workload and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Without --workload every workload runs in turn;
// -repeat N re-runs the end-to-end pass N times, each in a fresh process
// with its own seed, and prints the spread of every metric against its
// bound in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"xrpc/benchmark"
)

// report is the contract's result line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, one after the other)")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0 = end-to-end pass, 1 = traced pass (per-layer metrics)")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	repeat := flag.Int("repeat", 0, "run the end-to-end pass this many times per workload, seeds seed..seed+N-1, and report spreads")
	flag.Parse()

	// GOMAXPROCS = min(nproc, 4): the shards already use two cores, and a
	// fixed ceiling keeps bigger hosts comparable
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	var ws []benchmark.Workload
	if *workload == "" {
		ws = benchmark.Workloads
	} else {
		w, ok := benchmark.FindWorkload(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		ws = []benchmark.Workload{w}
	}
	if *repeat > 0 {
		if err := runRepeat(ws, *seed, *seconds, *repeat); err != nil {
			fatalf("%v", err)
		}
		return
	}
	for _, w := range ws {
		res, err := benchmark.Run(w, benchmark.Options{
			Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TraceOut: *traceOut, Log: os.Stdout,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  env: %s\n", envLine(res.Env))
		rep := report{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricJSON{}}
		for _, m := range res.Metrics {
			rep.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xrpcbm: "+format+"\n", args...)
	os.Exit(1)
}

func envLine(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(env[k])
	}
	return strings.Join(parts, " ")
}

// spec is the part of BENCHMARK.json the repeat mode reads.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat measures repeatability the way the driver does: every run is
// a fresh process with another seed; the spread of a metric is the
// distance between the first and third quartile of its values as a share
// of their median, and must stay within the metric's bound.
func runRepeat(ws []benchmark.Workload, seed int64, seconds float64, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("repeatability: %d runs per workload, seeds %d..%d, %.0f s each, a fresh process per run\n\n",
		n, seed, seed+int64(n)-1, seconds)
	fmt.Println("| workload | metric | unit | q1 | median | q3 | spread | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	failed := false
	var rawLines []string
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := runOnce(self, w.Name, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			if !rep.Correct || rep.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed+int64(i), rep.Failed, rep.Attempted)
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range sp.EndToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / med
			verdict := "PASS"
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f %% | %.0f %% | %s |\n",
				w.Name, m.Name, m.Unit, q1, med, q3, 100*spread, 100*m.Bound, verdict)
			raw := make([]string, len(values[m.Name]))
			for i, v := range values[m.Name] {
				raw[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			rawLines = append(rawLines, fmt.Sprintf("%s %s: %s", w.Name, m.Name, strings.Join(raw, " ")))
		}
	}
	fmt.Print("\nvalues in run order:\n\n")
	for _, l := range rawLines {
		fmt.Println("    " + l)
	}
	if failed {
		return fmt.Errorf("a metric's spread exceeds its bound")
	}
	return nil
}

func runOnce(self, workload string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}

// quartiles are the cut points statistics.quantiles(values, n=4) gives
// (the exclusive method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + (v[j]-v[j-1])*frac
	}
	return at(1), at(2), at(3)
}
