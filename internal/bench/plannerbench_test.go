package bench

import (
	"strings"
	"testing"

	"xrpc/internal/modules"
	"xrpc/internal/pathfinder"
	"xrpc/internal/strategies"
	"xrpc/internal/xmark"
)

func deriveBenchKeys(t *testing.T, source, hint string) ([]pathfinder.RouteKey, []pathfinder.RouteMiss) {
	t.Helper()
	reg := modules.NewRegistry()
	if err := reg.Register(source, hint); err != nil {
		t.Fatal(err)
	}
	uri := reg.URIs()[0]
	m, err := reg.ResolveModule(uri, []string{hint})
	if err != nil {
		t.Fatal(err)
	}
	return pathfinder.DeriveRouteKeys(m)
}

// TestDerivedRouteKeysMatchHandWrittenBenchSpecs is the bench half of
// the differential check: the compiler-derived route keys for the
// routed-cluster workload module must equal the hand-written
// PersonRoutes() specs the benchmarks used before the planner existed —
// the hand-written specs stay in the tree as the executable reference.
func TestDerivedRouteKeysMatchHandWrittenBenchSpecs(t *testing.T) {
	keys, misses := deriveBenchKeys(t, FunctionsP, "http://example.org/p.xq")
	for _, m := range misses {
		t.Errorf("FunctionsP %s underivable: %s", m.Func, m.Reason)
	}
	want := PersonRoutes()
	if len(keys) != len(want) {
		t.Fatalf("derived %d route keys, hand-written specs = %d", len(keys), len(want))
	}
	for _, spec := range want {
		found := false
		for _, k := range keys {
			if k.Func != spec.Func {
				continue
			}
			found = true
			if k.Param != spec.KeyArg {
				t.Errorf("%s: derived param %d, hand-written KeyArg %d", spec.Func, k.Param, spec.KeyArg)
			}
			if k.Doc != spec.Doc {
				t.Errorf("%s: derived doc %q, hand-written %q", spec.Func, k.Doc, spec.Doc)
			}
			if k.KeyAttr != "id" || k.Op != "=" {
				t.Errorf("%s: derived @%s %s, want @id =", spec.Func, k.KeyAttr, k.Op)
			}
			if !strings.HasSuffix(spec.Path, k.PathSuffix) {
				t.Errorf("%s: derived path suffix %q does not match container %q",
					spec.Func, k.PathSuffix, spec.Path)
			}
		}
		if !found {
			t.Errorf("hand-written spec %s has no derived counterpart", spec.Func)
		}
	}
}

// TestDerivedRouteKeysRangeScan: the planner-bench range module derives
// a range route key, exercising the codepoint-ordered (Lex) prune path.
func TestDerivedRouteKeysRangeScan(t *testing.T) {
	keys, misses := deriveBenchKeys(t, FunctionsI, "http://example.org/i.xq")
	if len(misses) != 0 {
		t.Fatalf("FunctionsI misses: %+v", misses)
	}
	if len(keys) != 1 {
		t.Fatalf("derived %d keys, want 1", len(keys))
	}
	k := keys[0]
	if k.Func != "itemsFrom" || k.Param != 0 || k.Doc != "items.xml" ||
		k.KeyAttr != "id" || k.Op != ">=" {
		t.Fatalf("itemsFrom derived as %+v", k)
	}
}

// TestClusterWorkloadModuleIsUnderivable documents the fallback side:
// none of the §5 cluster-bench functions can be derived (Q_B1/Q_B2 take
// no parameters, Q_B3's key predicate is a two-step path), so the
// scatter benchmark's planner coordinator broadcasts them — fallback is
// always broadcast, never a wrong route.
func TestClusterWorkloadModuleIsUnderivable(t *testing.T) {
	keys, misses := deriveBenchKeys(t, strategies.FunctionsB, "http://example.org/b.xq")
	if len(keys) != 0 {
		t.Fatalf("FunctionsB derived keys %+v, want none", keys)
	}
	if len(misses) != 3 {
		t.Fatalf("FunctionsB misses = %d, want 3 (Q_B1, Q_B2, Q_B3)", len(misses))
	}
}

func TestPlannerBenchSweepsAndVerifies(t *testing.T) {
	cfg := xmark.Config{Persons: 24, ClosedAuctions: 80, Matches: 6, AnnotationWords: 8, Seed: 42}
	rows, err := RunPlannerBench(cfg, []int{1, 2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 2 peers x 2 modes + 2 peers x 3 semi-join sides
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	find := func(workload, mode string, peers int) PlannerRow {
		for _, r := range rows {
			if r.Workload == workload && r.Mode == mode && r.Peers == peers {
				return r
			}
		}
		t.Fatalf("no row (%s, %s, peers=%d)", workload, mode, peers)
		return PlannerRow{}
	}
	for _, r := range rows {
		if !r.Verified {
			t.Fatalf("row %+v not verified", r)
		}
	}
	// the planner's derived routes keep point and range work flat in
	// peer count while the pre-planner broadcast grows linearly
	for _, wl := range []string{"probe x1", "range scan"} {
		if got := find(wl, "planner", 2).Requests; got != 1 {
			t.Errorf("%s planner peers=2: %d requests, want 1", wl, got)
		}
		if got := find(wl, "broadcast", 2).Requests; got != 2 {
			t.Errorf("%s broadcast peers=2: %d requests, want 2", wl, got)
		}
	}
	if auto := find("semi-join", "auto", 2); auto.Strategy != "ship-keys" && auto.Strategy != "ship-data" {
		t.Errorf("semi-join auto strategy = %q", auto.Strategy)
	}
	out := FormatPlannerBench(rows)
	for _, want := range []string{"probe x1", "range scan", "semi-join", "ship-keys"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
}
