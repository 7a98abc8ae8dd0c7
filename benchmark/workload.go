package benchmark

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"xrpc/internal/bench"
	"xrpc/internal/client"
	"xrpc/internal/core"
	"xrpc/internal/netsim"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// Workload describes one of the four fixed workloads. The names are
// normative: later issues cite them.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	Why string
	// opsPerSecond is the op rate at the seed commit, rounded: it sizes
	// the op list, the warm-up (5 % of a run) and the throughput segments
	// from the requested run length.
	opsPerSecond float64
	// make builds the workload's inputs from the seed alone.
	make func(seed int64) (*instance, error)
}

// Workloads lists the workloads in the order they are reported.
var Workloads = []Workload{
	{
		Name:         "semijoin_probe",
		Why:          "Q7_3: 62 loop-lifted probes become one Bulk RPC broadcast to both shards and run call by call in interp; callee execution is 96 % of the op, the wire carries 46 KB",
		opsPerSecond: 13,
		make: func(seed int64) (*instance, error) {
			return newQ7(seed, 0.25, strategies.QShardedSemiJoin, "xrpc://cluster", false)
		},
	},
	{
		Name:         "pushdown_scan",
		Why:          "Q7_1: one call streams 0.67 MB shard to proxy to Q, then Q joins it with its persons; exercises soap, streaming and the gather, and at the seed commit Q's own loop-lifted join is 86 % of the op",
		opsPerSecond: 13,
		make: func(seed int64) (*instance, error) {
			return newQ7(seed, 0.12, strategies.QPredicatePushdown, "xrpc://B", true)
		},
	},
	{
		Name:         "point_lookup",
		Why:          "one fixed query text, Zipf(1.0) keys over 2000 persons, caches and WAL on, working set larger than the cache: per-request fixed cost over 2 HTTP hops, p50 in the hit mode and p90 in the miss mode",
		opsPerSecond: 1000,
		make:         newPointLookup,
	},
	{
		Name:         "update_mix",
		Why:          "foreign SOAP client script: routed 2PC setCity (durable in the WAL), read-back that must see it, two Zipf-hot reads; writes beside reads, so over-broad invalidation or a commit tax shows",
		opsPerSecond: 85,
		make:         newUpdateMix,
	},
}

// FindWorkload returns the workload with the given name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// instance is a workload's seed-derived inputs: what to deploy, the op
// list, and the expected answer of every op.
type instance struct {
	dep *deployment
	// ops is the number of distinct ops in the list; op i of a run is
	// list entry i mod ops.
	ops int
	// opHash folds everything that defines the op list (texts, keys,
	// values, in order) into one number: same seed, same hash.
	opHash uint64
	// queryText is the XQuery text Q runs (empty for the foreign-client
	// workload): what the parse and compile costs are timed on.
	queryText string
	// run executes op i against the system and returns the FNV hash of
	// its answer.
	run func(sys *system, i int) (uint64, error)
	// want is the expected hash of op i, called right after run(i); for
	// update_mix it advances the model of the updated state.
	want func(i int) uint64
	// verify compares every distinct answer of the sharded system with
	// the unsharded oracle's before anything is timed.
	verify func(sys *system) error
	// finish, when set, checks the system's final state after the timed
	// phase (update_mix: against a fresh oracle given the same updates).
	finish func(sys *system) error
	// updates reports whether ops commit updates (txn/wal metrics apply).
	updates bool
	// joinRows, when set, are the input cardinalities of the hash join Q
	// evaluates locally per op.
	joinRows [2]int
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// oracle is the unsharded reference: one server holding every document
// whole, and a query peer beside it, on an in-process network.
type oracle struct {
	q  *core.Peer
	cl *client.Client
}

const oracleURI = "xrpc://oracle"

func newOracle(d *deployment) (*oracle, error) {
	net := netsim.NewNetwork(0, 0)
	srv := core.NewPeer(oracleURI, net)
	if err := srv.RegisterModule(d.module, d.moduleHint); err != nil {
		return nil, err
	}
	for name, xml := range d.docs {
		if err := srv.LoadDocument(name, xml); err != nil {
			return nil, err
		}
	}
	if err := srv.RegisterModule(oracleModule, "http://example.org/o.xq"); err != nil {
		return nil, err
	}
	net.Register(oracleURI, srv.Handler())
	q := core.NewPeer("xrpc://oracle-Q", net)
	if err := q.RegisterModule(d.module, d.moduleHint); err != nil {
		return nil, err
	}
	for name, xml := range d.qDocs {
		if err := q.LoadDocument(name, xml); err != nil {
			return nil, err
		}
	}
	return &oracle{q: q, cl: client.New(net)}, nil
}

// newQ7 builds deployment A — XMark persons at Q, closed auctions
// sharded ×2, every cache tier off as xrpcd defaults — and one op: the
// §5 rewrite of Q7 given by query, with its destination swapped for the
// proxy. scale sizes the documents so that a run holds at least 150 ops
// at the seed commit (see README.md, "Sizes").
func newQ7(seed int64, scale float64, query, dest string, joins bool) (*instance, error) {
	cfg := xmark.PaperConfig(scale)
	cfg.Seed = seed
	d := &deployment{
		docs:       map[string]string{"auctions.xml": xmark.GenerateAuctions(cfg)},
		qDocs:      map[string]string{"persons.xml": xmark.GeneratePersons(cfg)},
		module:     strategies.FunctionsB,
		moduleHint: "http://example.org/b.xq",
	}
	text := strings.ReplaceAll(query, dest, proxyURI)
	or, err := newOracle(d)
	if err != nil {
		return nil, err
	}
	res, err := or.q.Query(strings.ReplaceAll(query, dest, oracleURI))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if len(res.Sequence) != cfg.Matches {
		return nil, fmt.Errorf("oracle: %d join rows, want %d", len(res.Sequence), cfg.Matches)
	}
	want := hashString(res.Serialize())
	run := func(sys *system, _ int) (uint64, error) {
		res, err := sys.q.Query(text)
		if err != nil {
			return 0, err
		}
		return hashString(res.Serialize()), nil
	}
	var joinRows [2]int
	if joins {
		joinRows = [2]int{cfg.Persons, cfg.ClosedAuctions}
	}
	return &instance{
		dep:       d,
		joinRows:  joinRows,
		ops:       1,
		opHash:    hashString(text) ^ hashString(d.docs["auctions.xml"]) ^ hashString(d.qDocs["persons.xml"]),
		queryText: text,
		run:       run,
		want:      func(int) uint64 { return want },
		verify: func(sys *system) error {
			got, err := run(sys, 0)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("sharded answer differs from the unsharded oracle's")
			}
			return nil
		},
	}, nil
}

// Deployment B: persons.xml with 2000 persons sharded ×2, response,
// result and plan caches on, WAL on. The cache budgets were calibrated
// once, at the seed commit, so that the coordinator's result cache
// answers 0.70 ± 0.03 of point_lookup's reads, and are frozen: the
// working set is larger than the cache, so hits, misses and evictions
// all occur.
const (
	personsB          = 2000
	respCacheBytesB   = 80 << 10
	resultCacheBytesB = 2 * respCacheBytesB
)

const lookupQuery = `
import module namespace p="functions_p" at "http://example.org/p.xq";
execute at {"` + proxyURI + `"} {p:getPerson($pid)}`

func newDeploymentB(seed int64) *deployment {
	cfg := xmark.PaperConfig(1)
	cfg.Persons = personsB
	cfg.Seed = seed
	return &deployment{
		docs:             map[string]string{"persons.xml": xmark.GeneratePersons(cfg)},
		module:           bench.FunctionsP,
		moduleHint:       "http://example.org/p.xq",
		respCacheBytes:   respCacheBytesB,
		resultCacheBytes: resultCacheBytesB,
	}
}

func personRequest(fn string, updating bool, calls ...[]xdm.Sequence) *client.BulkRequest {
	return &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      fn,
		Arity:     len(calls[0]),
		Updating:  updating,
		Calls:     calls,
	}
}

func str(s string) xdm.Sequence { return xdm.Sequence{xdm.String(s)} }

// oracleModule is registered at the oracle only: the unsharded document
// answers "every person" in one scan, where asking getPerson 2000 times
// would scan it 2000 times and dominate set-up.
const oracleModule = `
module namespace o = "functions_o";
declare function o:people() as node()*
{ doc("persons.xml")//person };`

// oraclePersons returns every person of the oracle's persons.xml,
// serialized, indexed by person number.
func oraclePersons(or *oracle) ([]string, error) {
	res, err := or.cl.CallBulk(oracleURI, &client.BulkRequest{
		ModuleURI: "functions_o", AtHint: "http://example.org/o.xq", Func: "people",
		Calls: [][]xdm.Sequence{{}},
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if len(res[0]) != personsB {
		return nil, fmt.Errorf("oracle: %d persons, want %d", len(res[0]), personsB)
	}
	out := make([]string, personsB)
	for k, it := range res[0] {
		out[k] = xdm.SerializeSequence(xdm.Sequence{it})
		if !strings.HasPrefix(out[k], `<person id="`+xmark.PersonID(k)+`"`) {
			return nil, fmt.Errorf("oracle: person %d is not %s", k, xmark.PersonID(k))
		}
	}
	return out, nil
}

// zipf draws person numbers with probability ∝ 1/rank (s = 1.0, which
// math/rand's generator excludes), ranks spread over the key space by a
// seed-derived permutation so the hot keys land on both shards.
type zipf struct {
	cdf  []float64
	perm []int
	rng  *rand.Rand
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n), rng: rng}
	sum := 0.0
	for r := range z.cdf {
		sum += 1 / float64(r+1)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) next() int {
	r := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if r >= len(z.perm) {
		r = len(z.perm) - 1
	}
	return z.perm[r]
}

// lookupOps is the length of point_lookup's key list: long enough that
// one pass through it outlasts the result cache many times over.
const lookupOps = 20000

func newPointLookup(seed int64) (*instance, error) {
	d := newDeploymentB(seed)
	or, err := newOracle(d)
	if err != nil {
		return nil, err
	}
	persons, err := oraclePersons(or)
	if err != nil {
		return nil, err
	}
	want := make([]uint64, personsB)
	for k, p := range persons {
		want[k] = hashString(p)
	}
	z := newZipf(rand.New(rand.NewSource(seed)), personsB)
	keys := make([]int, lookupOps)
	h := fnv.New64a()
	for i := range keys {
		keys[i] = z.next()
		fmt.Fprintf(h, "%d,", keys[i])
	}
	lookup := func(sys *system, k int) (uint64, error) {
		res, err := sys.q.QueryWithVars(lookupQuery, map[string]xdm.Sequence{"pid": str(xmark.PersonID(k))})
		if err != nil {
			return 0, err
		}
		return hashString(res.Serialize()), nil
	}
	return &instance{
		dep:       d,
		ops:       lookupOps,
		opHash:    h.Sum64() ^ hashString(d.docs["persons.xml"]),
		queryText: lookupQuery,
		run:       func(sys *system, i int) (uint64, error) { return lookup(sys, keys[i%lookupOps]) },
		want:      func(i int) uint64 { return want[keys[i%lookupOps]] },
		verify:    func(sys *system) error { return verifyPersons(sys, persons, setupStride) },
	}, nil
}

// verifyPersons reads every stride-th person through the proxy in one
// bulk request (each call routed to its shard) and compares with the
// oracle's. Set-up samples (the timed phase checks every answer anyway);
// the final-state check reads everyone.
func verifyPersons(sys *system, want []string, stride int) error {
	var calls [][]xdm.Sequence
	for k := 0; k < personsB; k += stride {
		calls = append(calls, []xdm.Sequence{str(xmark.PersonID(k))})
	}
	res, err := sys.foreign.CallBulk(proxyURI, personRequest("getPerson", false, calls...))
	if err != nil {
		return err
	}
	for i, seq := range res {
		if got := xdm.SerializeSequence(seq); got != want[i*stride] {
			return fmt.Errorf("%s: sharded answer differs from the unsharded oracle's", xmark.PersonID(i*stride))
		}
	}
	return nil
}

// setupStride is the sample set-up verifies: 250 of the 2000 persons.
const setupStride = 8

// updateOps is the length of update_mix's script list.
const updateOps = 5000

// updateOp is one script: setCity(key, city), read key back, then two
// hot reads.
type updateOp struct {
	key  int
	city string
	hot  [2]int
}

var cityWords = []string{"Arden", "Brook", "Calder", "Dunmore", "Elm", "Fenwick", "Glen", "Harrow"}

// withCity rewrites the city of a serialized person — the benchmark's
// model of what setCity does, checked against a real oracle by finish.
func withCity(person, city string) string {
	i := strings.Index(person, "<city>")
	j := strings.Index(person, "</city>")
	return person[:i+len("<city>")] + city + person[j:]
}

func newUpdateMix(seed int64) (*instance, error) {
	d := newDeploymentB(seed)
	or, err := newOracle(d)
	if err != nil {
		return nil, err
	}
	persons, err := oraclePersons(or)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	z := newZipf(rng, personsB)
	ops := make([]updateOp, updateOps)
	h := fnv.New64a()
	for i := range ops {
		ops[i] = updateOp{
			key:  rng.Intn(personsB),
			city: fmt.Sprintf("%s Town %d", cityWords[rng.Intn(len(cityWords))], rng.Intn(90)+10),
			hot:  [2]int{z.next(), z.next()},
		}
		fmt.Fprintf(h, "%d,%s,%d,%d;", ops[i].key, ops[i].city, ops[i].hot[0], ops[i].hot[1])
	}
	// state is the model: the current serialization of every person.
	// lastCity records the final city of every person the run updated.
	state := append([]string(nil), persons...)
	lastCity := map[int]string{}

	run := func(sys *system, i int) (uint64, error) {
		op := ops[i%updateOps]
		key := xmark.PersonID(op.key)
		if _, err := sys.foreign.CallBulk(proxyURI, personRequest("setCity", true,
			[]xdm.Sequence{str(key), str(op.city)})); err != nil {
			return 0, fmt.Errorf("setCity: %w", err)
		}
		sum := fnv.New64a()
		for _, k := range [3]int{op.key, op.hot[0], op.hot[1]} {
			res, err := sys.foreign.CallBulk(proxyURI, personRequest("getPerson", false,
				[]xdm.Sequence{str(xmark.PersonID(k))}))
			if err != nil {
				return 0, fmt.Errorf("getPerson: %w", err)
			}
			sum.Write([]byte(xdm.SerializeSequence(res[0])))
		}
		return sum.Sum64(), nil
	}
	want := func(i int) uint64 {
		op := ops[i%updateOps]
		state[op.key] = withCity(state[op.key], op.city)
		lastCity[op.key] = op.city
		sum := fnv.New64a()
		for _, k := range [3]int{op.key, op.hot[0], op.hot[1]} {
			sum.Write([]byte(state[k]))
		}
		return sum.Sum64()
	}
	finish := func(sys *system) error {
		// a fresh unsharded oracle is given the last update of every key
		// and must then agree with the sharded system on every person
		or, err := newOracle(d)
		if err != nil {
			return err
		}
		var calls [][]xdm.Sequence
		for k := 0; k < personsB; k++ {
			if city, ok := lastCity[k]; ok {
				calls = append(calls, []xdm.Sequence{str(xmark.PersonID(k)), str(city)})
			}
		}
		if len(calls) > 0 {
			if _, err := or.cl.CallBulk(oracleURI, personRequest("setCity", true, calls...)); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
		}
		final, err := oraclePersons(or)
		if err != nil {
			return err
		}
		for k := range final {
			if final[k] != state[k] {
				return fmt.Errorf("%s: the benchmark's model of setCity differs from the oracle's final state", xmark.PersonID(k))
			}
		}
		return verifyPersons(sys, final, 1)
	}
	return &instance{
		dep:     d,
		ops:     updateOps,
		opHash:  h.Sum64() ^ hashString(d.docs["persons.xml"]),
		run:     run,
		want:    want,
		verify:  func(sys *system) error { return verifyPersons(sys, persons, setupStride) },
		finish:  finish,
		updates: true,
	}, nil
}

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}
