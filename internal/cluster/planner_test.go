package cluster

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/planner"
	"xrpc/internal/soap"
	"xrpc/internal/txn"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// deployPersonsZeroSpec deploys persons.xml with NO hand-written routes:
// any pruning or routing that happens is the planner's doing.
func deployPersonsZeroSpec(t *testing.T, net *netsim.Network, persons, shards int, cacheBytes int64) *Deployment {
	t.Helper()
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	dep, err := Deploy(net, personsRegistry(t), map[string]string{"persons.xml": xml},
		DeployConfig{Shards: shards, Replication: 1, ResultCacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestPlannerDerivedSpecsMatchHandWritten is the differential check of
// the derivation pass: for every hand-written spec of the routed
// workload, the compiler must either derive the identical spec or —
// where the spec encodes a semantic promise the emptiness proof cannot
// check — refuse to derive, so the hand-written spec subsumes it.
func TestPlannerDerivedSpecsMatchHandWritten(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsZeroSpec(t, net, 12, 3, 0)
	co := dep.Coordinator()
	for _, want := range personRoutes() {
		br := &client.BulkRequest{
			ModuleURI: want.ModuleURI,
			AtHint:    "http://example.org/p.xq",
			Func:      want.Func,
			Arity:     1,
		}
		if want.Func == "setCity" {
			br.Arity, br.Updating = 2, true
		}
		got, reason, analysed := co.derivedSpec(br)
		if want.Func == "cityOf" {
			// string(()) is "" — a non-empty string item on every
			// non-owning shard — so cityOf's body is not empty-on-miss and
			// the derivation must refuse it. The hand-written spec (a
			// semantic promise the compiler cannot check: only the owning
			// shard's answer is intended) remains its executable reference.
			if analysed || got != nil {
				t.Fatalf("cityOf: derived %+v (reason %q), want a derivation miss", got, reason)
			}
			continue
		}
		if got == nil {
			t.Fatalf("%s: no derived spec (reason %q, analysed %v)", want.Func, reason, analysed)
		}
		if got.ModuleURI != want.ModuleURI || got.Func != want.Func ||
			got.KeyArg != want.KeyArg || got.Doc != want.Doc ||
			got.Path != want.Path || got.op() != want.op() {
			t.Fatalf("%s: derived %+v, want the hand-written %+v", want.Func, got, want)
		}
	}
}

// TestPlannerBroadcastDivergesWhenNotEmptyOnMiss pins the condition under which
// a merged read equals one unsharded peer: the per-shard results must
// concatenate to the whole-document result. cityOf is string() of a
// path, so every shard without the key answers "" instead of nothing;
// with no registered spec the planner cannot derive a route for it and
// broadcasts, and the merge carries one item per shard. The registered
// spec restores identity by sending the call to the owning shard alone.
func TestPlannerBroadcastDivergesWhenNotEmptyOnMiss(t *testing.T) {
	const persons, shards = 12, 3
	br := cityOfRequest("person1")
	want := singlePersonsBaseline(t, persons, br, nil)
	single, err := soap.DecodeResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Results[0]) != 1 {
		t.Fatalf("unsharded cityOf returned %d items, want 1", len(single.Results[0]))
	}

	bare := deployPersonsZeroSpec(t, netsim.NewNetwork(0, 0), persons, shards, 0).Coordinator()
	res, err := bare.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	// shard 0 holds person0..person3 and answers the city; shards 1 and
	// 2 each answer ""
	got := res[0]
	if len(got) != shards || got[0].StringValue() != single.Results[0][0].StringValue() ||
		got[1].StringValue() != "" || got[2].StringValue() != "" {
		t.Fatalf("broadcast cityOf = %q, want the owner's city then two empty strings",
			xdm.SerializeSequence(got))
	}

	routed := deployPersons(t, netsim.NewNetwork(0, 0), persons, shards, 1).Coordinator()
	res, err = routed.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, res), want) {
		t.Fatal("cityOf under its registered spec differs from the unsharded peer")
	}
}

// TestPlannerZeroSpecByteIdenticalToBroadcast pins the planner's core
// guarantee: with zero registered RouteSpecs, the derived-route scatter
// is byte-identical to broadcast (and to a single unsharded peer), and
// a single-key probe contacts exactly one shard instead of N.
func TestPlannerZeroSpecByteIdenticalToBroadcast(t *testing.T) {
	const persons = 17
	for _, shards := range []int{1, 2, 4} {
		net := netsim.NewNetwork(0, 0)
		dep := deployPersonsZeroSpec(t, net, persons, shards, 0)
		co := dep.Coordinator()

		// mixed bulk: keys across shards, a repeat, and a key no shard owns
		br := getPersonRequest("person16", "person0", "person5", "person0", "nosuch", "person9")
		want := singlePersonsBaseline(t, persons, br, nil)
		res, err := co.Scatter(br)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !bytes.Equal(encodeResults(br, res), want) {
			t.Fatalf("%d shards: derived-route scatter differs from single-peer result", shards)
		}
		plain := NewCoordinator(dep.Table, client.New(net)) // no routes, no planner
		bres, err := plain.Scatter(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResults(br, bres), encodeResults(br, res)) {
			t.Fatalf("%d shards: derived-route and broadcast scatters disagree", shards)
		}

		// single-key probe: 1 server call, not N
		probe := getPersonRequest("person7")
		pwant := singlePersonsBaseline(t, persons, probe, nil)
		net.ResetStats()
		pres, err := co.Scatter(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResults(probe, pres), pwant) {
			t.Fatalf("%d shards: derived-route probe differs from single-peer result", shards)
		}
		contacted := 0
		for s := 0; s < shards; s++ {
			if reqs, _, _ := net.PeerStats(dep.Table.Primary(s)); reqs > 0 {
				contacted++
			}
		}
		if contacted != 1 {
			t.Fatalf("%d shards: probe contacted %d shards, want exactly 1", shards, contacted)
		}
	}
}

// TestPlannerZeroSpecRoutedUpdate checks that a derived equality spec
// routes an updating request to the single owning shard — no
// hand-written RouteSpec anywhere.
func TestPlannerZeroSpecRoutedUpdate(t *testing.T) {
	const persons = 12
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsZeroSpec(t, net, persons, 3, 0)
	co := dep.Coordinator()

	upd := setCityRequest("Delft", "person4")
	probe := getPersonRequest("person4")
	want := singlePersonsBaseline(t, persons, probe, upd)

	net.ResetStats()
	if _, err := co.CallBulk(DefaultClusterURI, upd); err != nil {
		t.Fatal(err)
	}
	// person4 -> shard 1 ([4,8)): the others must not see the update
	for _, s := range []int{0, 2} {
		if reqs, _, _ := net.PeerStats(dep.Table.Primary(s)); reqs != 0 {
			t.Fatalf("shard %d served %d requests for an update it does not own", s, reqs)
		}
	}
	res, err := co.Scatter(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), want) {
		t.Fatal("post-update probe differs from single-peer baseline")
	}
}

// TestProxyQueryIDKeepsPlanner is the regression test for proxied
// requests inside an isolation scope: the queryID-pinned client is a
// per-request argument of the one coordinator, so a request carrying a
// queryID plans exactly like one without — on a zero-spec deployment a
// point read still contacts one shard (not all three) and an update
// still finds its derived route and commits.
func TestProxyQueryIDKeepsPlanner(t *testing.T) {
	const persons = 12
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsZeroSpec(t, net, persons, 3, 0)
	hs := httptest.NewServer(&Proxy{Co: dep.Coordinator()})
	defer hs.Close()
	isolated := client.New(client.NewHTTPTransport())
	isolated.QueryID = txn.NewQueryID("xrpc://test-client", 30)

	probe := getPersonRequest("person4")
	net.ResetStats()
	res, err := isolated.CallBulk(hs.URL, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), singlePersonsBaseline(t, persons, probe, nil)) {
		t.Fatal("proxied point read under a queryID differs from single-peer baseline")
	}
	contacted := 0
	for s := 0; s < 3; s++ {
		if reqs, _, _ := net.PeerStats(dep.Table.Primary(s)); reqs > 0 {
			contacted++
		}
	}
	if contacted != 1 {
		t.Fatalf("point read under a queryID contacted %d shards, want exactly 1", contacted)
	}

	upd := setCityRequest("Delft", "person4")
	if _, err := isolated.CallBulk(hs.URL, upd); err != nil {
		t.Fatalf("proxied update under a queryID: %v", err)
	}
	// read back outside the isolation scope (the pinned snapshot predates
	// the commit by design)
	res, err = client.New(client.NewHTTPTransport()).CallBulk(hs.URL, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, res), singlePersonsBaseline(t, persons, probe, upd)) {
		t.Fatal("proxied update under a queryID did not commit")
	}
}

// itemsModule keys a range scan: @id >= $k over a container whose keys
// are fixed-width, hence codepoint-ordered (KeyRange.Lex).
const itemsModule = `
module namespace i = "functions_i";
declare function i:itemsFrom($k as xs:string) as node()*
{ doc("items.xml")//item[@id >= $k] };
declare updating function i:setV($k as xs:string, $v as xs:string)
{ for $x in doc("items.xml")//item[@id = $k]/v
  return replace value of node $x with $v };`

func itemsXML(n int) string {
	var b strings.Builder
	b.WriteString("<site><items>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="k%d"><v>%d</v></item>`, 10+i, i)
	}
	b.WriteString("</items></site>")
	return b.String()
}

func itemsFromRequest(keys ...string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_i",
		AtHint:    "http://example.org/i.xq",
		Func:      "itemsFrom",
		Arity:     1,
	}
	for _, k := range keys {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(k)}})
	}
	return br
}

// TestPlannerDerivedRangePruning drives a derived range predicate end
// to end: @id >= "k25" over codepoint-ordered keys must contact only
// the shards whose MaxKey can satisfy it, byte-identical to broadcast.
func TestPlannerDerivedRangePruning(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	if err := reg.Register(itemsModule, "http://example.org/i.xq"); err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(net, reg, map[string]string{"items.xml": itemsXML(20)},
		DeployConfig{Shards: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()

	br := itemsFromRequest("k25")
	spec, reason, analysed := co.derivedSpec(br)
	if spec == nil || !analysed {
		t.Fatalf("no derived range spec (reason %q)", reason)
	}
	if spec.Op != ">=" || spec.Doc != "items.xml" || spec.Path != "/site/items/item" {
		t.Fatalf("derived spec = %+v, want @id >= over /site/items/item", spec)
	}

	net.ResetStats()
	res, err := co.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	contacted := 0
	for s := 0; s < 4; s++ {
		if reqs, _, _ := net.PeerStats(dep.Table.Primary(s)); reqs > 0 {
			contacted++
		}
	}
	// 20 items over 4 shards: only shard 3 (k25..k29) can satisfy >= k25
	if contacted != 1 {
		t.Fatalf("range scan contacted %d shards, want 1", contacted)
	}
	got := encodeResults(br, res)
	if !bytes.Contains(got, []byte(`id="k29"`)) || bytes.Contains(got, []byte(`id="k24"`)) {
		t.Fatalf("range scan result wrong: %.300s", got)
	}

	plain := NewCoordinator(dep.Table, client.New(net)) // pure broadcast
	bres, err := plain.Scatter(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, bres), got) {
		t.Fatal("pruned range scan differs from broadcast")
	}
}

// TestPlannerMixedPartitionLabelsPruned pins the strategy label on a
// mixed partition: one range call reaching two shards plus one call
// with zero candidates sums to len(Calls) — the aggregate the label
// used to (mis)compare against — but a call still reached two shards,
// so the decision is "pruned", not "routed".
func TestPlannerMixedPartitionLabelsPruned(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	if err := reg.Register(itemsModule, "http://example.org/i.xq"); err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(net, reg, map[string]string{"items.xml": itemsXML(20)},
		DeployConfig{Shards: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()

	// shards hold k10-14, k15-19, k20-24, k25-29: ">= k20" reaches
	// shards 2 and 3, ">= k35" reaches none
	br := itemsFromRequest("k20", "k35")
	spec, reason, _ := co.derivedSpec(br)
	if spec == nil {
		t.Fatalf("no derived spec (reason %q)", reason)
	}
	if dec := co.decide(spec, br, false); dec.strategy != "pruned" {
		t.Fatalf("mixed partition labelled %q, want pruned", dec.strategy)
	}
	// degenerate case stays routed: a single call on exactly one shard
	if dec := co.decide(spec, itemsFromRequest("k25"), false); dec.strategy != "routed" {
		t.Fatalf("single-shard call labelled %q, want routed", dec.strategy)
	}
}

// personsRangeModule ranges over persons.xml, whose personN keys are
// natural-ordered but NOT codepoint-ordered ("person10" < "person9" in
// codepoints): the Lex gate must refuse the derived range spec.
const personsRangeModule = `
module namespace q = "functions_q";
declare function q:personsFrom($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id >= $pid] };`

func TestPlannerRangeNeedsCodepointOrderedKeys(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	reg := personsRegistry(t)
	if err := reg.Register(personsRangeModule, "http://example.org/q.xq"); err != nil {
		t.Fatal(err)
	}
	xml := xmark.GeneratePersons(xmark.Config{Persons: 15, Seed: 11})
	dep, err := Deploy(net, reg, map[string]string{"persons.xml": xml},
		DeployConfig{Shards: 3, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()
	br := &client.BulkRequest{
		ModuleURI: "functions_q",
		AtHint:    "http://example.org/q.xq",
		Func:      "personsFrom",
		Arity:     1,
		Calls:     [][]xdm.Sequence{{{xdm.String("person9")}}},
	}
	spec, reason, analysed := co.derivedSpec(br)
	if !analysed || spec != nil {
		t.Fatalf("natural-ordered range: derived %+v (analysed %v), want a refusal", spec, analysed)
	}
	if !strings.Contains(reason, "codepoint-ordered") {
		t.Fatalf("refusal reason = %q, want the codepoint-order explanation", reason)
	}
	if dec := co.plan(br); dec.strategy != "broadcast" {
		t.Fatalf("plan = %s, want broadcast", dec.strategy)
	}
}

// TestPlannerWarnsOnInapplicableSpecOnce pins the fixed fallback path:
// a spec that cannot apply to the live request logs once per (module,
// function, reason), counts every occurrence, and still answers
// correctly via broadcast.
func TestPlannerWarnsOnInapplicableSpecOnce(t *testing.T) {
	const persons = 8
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsZeroSpec(t, net, persons, 2, 0)
	co := dep.Coordinator()
	// a registered spec whose key argument the request cannot supply
	co.Route(RouteSpec{ModuleURI: "functions_p", Func: "getPerson", KeyArg: 5,
		Doc: "persons.xml", Path: personsPath})
	co.Planner.Metrics = planner.NewMetrics(obs.NewRegistry())
	var buf bytes.Buffer
	co.Planner.Logger = slog.New(slog.NewTextHandler(&buf, nil))

	br := getPersonRequest("person1")
	want := singlePersonsBaseline(t, persons, br, nil)
	for i := 0; i < 2; i++ {
		res, err := co.Scatter(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResults(br, res), want) {
			t.Fatal("inapplicable-spec broadcast fallback differs from single peer")
		}
	}
	if got := strings.Count(buf.String(), "route spec inapplicable"); got != 1 {
		t.Fatalf("inapplicable spec logged %d times across 2 requests, want once:\n%s", got, buf.String())
	}
	if got := co.Planner.Metrics.Inapplicable.Value(); got != 2 {
		t.Fatalf("inapplicable counter = %d, want 2 (every occurrence counted)", got)
	}
}

// TestUpdateWarnsOnInapplicableSpec pins the update-path half of the
// visibility fix: a registered spec whose KeyArg lies outside the
// request arity is warned and counted before Update falls back (here to
// the derived equality route, which still commits the update).
func TestUpdateWarnsOnInapplicableSpec(t *testing.T) {
	const persons = 8
	net := netsim.NewNetwork(0, 0)
	dep := deployPersonsZeroSpec(t, net, persons, 2, 0)
	co := dep.Coordinator()
	co.Route(RouteSpec{ModuleURI: "functions_p", Func: "setCity", KeyArg: 5,
		Doc: "persons.xml", Path: personsPath})
	co.Planner.Metrics = planner.NewMetrics(obs.NewRegistry())
	var buf bytes.Buffer
	co.Planner.Logger = slog.New(slog.NewTextHandler(&buf, nil))

	if _, err := co.CallBulk(DefaultClusterURI, setCityRequest("Leiden", "person1")); err != nil {
		t.Fatalf("update with inapplicable registered spec: %v", err)
	}
	if got := strings.Count(buf.String(), "route spec inapplicable"); got != 1 {
		t.Fatalf("update logged the inapplicable spec %d times, want once:\n%s", got, buf.String())
	}
	if got := co.Planner.Metrics.Inapplicable.Value(); got != 1 {
		t.Fatalf("inapplicable counter = %d, want 1", got)
	}
	res, err := co.Scatter(getPersonRequest("person1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xdm.SerializeSequence(res[0]), "<city>Leiden</city>") {
		t.Fatal("update did not land via the derived fallback route")
	}
}

// TestPlannerStrategyCounter checks that each read's strategy decision
// is counted once, on the coordinator's counter, under the label of the
// plan that executed, and that a routed update counts as an update, not
// as a read.
func TestPlannerStrategyCounter(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	reg := personsRegistry(t)
	if err := reg.Register(itemsModule, "http://example.org/i.xq"); err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"persons.xml": xmark.GeneratePersons(xmark.Config{Persons: 12, Seed: 11}),
		"items.xml":   itemsXML(20),
	}
	dep, err := Deploy(net, reg, docs, DeployConfig{Shards: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()
	metrics := obs.NewRegistry()
	co.Metrics = NewMetrics(metrics, 4)

	for _, br := range []*client.BulkRequest{
		getPersonRequest("person1"), // routed: one call, one shard
		itemsFromRequest("k20"),     // pruned: @id >= "k20" reaches shards 2 and 3
		cityOfRequest("person1"),    // broadcast: cityOf is underivable
	} {
		if _, err := co.Scatter(br); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := co.CallBulk(DefaultClusterURI, setCityRequest("X", "person1")); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"routed", "pruned", "broadcast"} {
		if got := metrics.MustGather("xrpc_cluster_scatters_total",
			obs.Label{Key: "strategy", Value: strategy}); got != 1 {
			t.Errorf("%s reads counted %v, want 1", strategy, got)
		}
	}
	if got := metrics.MustGather("xrpc_cluster_updates_total"); got != 1 {
		t.Errorf("routed updates counted %v, want 1", got)
	}
}
