// Package strategies implements the distributed query execution
// strategies of §5 of the paper for query Q7 (the persons ⋈
// closed_auctions join): data shipping, predicate pushdown, execution
// relocation, and the distributed semi-join — each expressed as the
// exact XRPC rewrite the paper shows, executed on a two-peer deployment
// where peer A runs the loop-lifting engine (MonetDB/XQuery's role) and
// peer B answers via the XRPC wrapper (Saxon's role).
package strategies

import (
	"fmt"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/planner"
	"xrpc/internal/server"
	"xrpc/internal/store"
	"xrpc/internal/wrapper"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// FunctionsB is the peer-B module of §5, verbatim from the paper (with
// the peer URI spelled out).
const FunctionsB = `
module namespace b = "functions_b";
declare function b:Q_B1() as node()*
{ doc("auctions.xml")//closed_auction };
declare function b:Q_B2() as node()*
{ for $p in doc("xrpc://A/persons.xml")//person,
      $ca in doc("auctions.xml")//closed_auction
  where $p/@id = $ca/buyer/@person
  return <result>{$p, $ca/annotation}</result>
};
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };`

// PeerA and PeerB are the deployment's peer URIs.
const (
	PeerA = "xrpc://A"
	PeerB = "xrpc://B"
)

// Env is the two-peer deployment for the Q7 experiment.
type Env struct {
	Net      *netsim.Network
	Registry *modules.Registry

	// Peer A (local, MonetDB/XQuery role): persons.xml in a store,
	// queries compiled by the loop-lifting engine.
	StoreA  *store.Store
	ServerA *server.Server

	// Peer B (remote, Saxon role): auctions.xml as raw text behind the
	// XRPC wrapper.
	ServerB  *server.Server
	WrapperB *wrapper.Wrapper
}

// NewEnv builds the deployment with generated XMark data over a network
// with paper-like characteristics: ~1 ms round trips and ~10 MB/s
// effective SOAP throughput (the paper measured 8-14 MB/s on its 1 Gb/s
// LAN, CPU-bound by serialization).
func NewEnv(cfg xmark.Config) (*Env, error) {
	return NewEnvNet(cfg, netsim.NewNetwork(time.Millisecond, 10*1024*1024))
}

// NewEnvNet builds the deployment over a caller-provided network.
func NewEnvNet(cfg xmark.Config, net *netsim.Network) (*Env, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsB, "http://example.org/b.xq"); err != nil {
		return nil, err
	}

	// peer A: store-backed, serves persons.xml (for relocation's
	// reverse data shipping)
	stA := store.New()
	if err := stA.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		return nil, err
	}
	srvA := server.New(stA, reg, nil) // A only serves system getDocument
	srvA.Self = PeerA
	net.Register(PeerA, srvA)

	// peer B: wrapper over raw auctions.xml text; remote docs fetched
	// over XRPC (execution relocation pulls persons.xml from A)
	auctionsXML := xmark.GenerateAuctions(cfg)
	wrapB := wrapper.New(reg, nil)
	wrapB.LoadText("auctions.xml", auctionsXML)
	wrapB.Remote = &client.DocResolver{Client: client.New(net)}
	// the store copy serves the getDocument system call behind data
	// shipping (fn:doc("xrpc://B/auctions.xml"))
	stB := store.New()
	if err := stB.LoadXML("auctions.xml", auctionsXML); err != nil {
		return nil, err
	}
	srvB := server.New(stB, reg, wrapB)
	srvB.Self = PeerB
	net.Register(PeerB, srvB)

	return &Env{
		Net:      net,
		Registry: reg,
		StoreA:   stA,
		ServerA:  srvA,
		ServerB:  srvB,
		WrapperB: wrapB,
	}, nil
}

// Result is one strategy's outcome with the Table 4 time columns.
type Result struct {
	Strategy string
	Rows     int
	Total    time.Duration
	// ATime approximates the paper's "MonetDB Time": total minus peer
	// B's handler time.
	ATime time.Duration
	// BTime approximates the paper's "Saxon Time": peer B handler time
	// (which, like the paper's subtraction method, absorbs
	// communication).
	BTime time.Duration
	// Requests is the number of XRPC requests B served.
	Requests int64
	// BytesShipped counts bytes moved over the network.
	BytesShipped int64
}

func (r Result) String() string {
	return fmt.Sprintf("%-22s total=%v A=%v B=%v requests=%d bytes=%d rows=%d",
		r.Strategy, r.Total, r.ATime, r.BTime, r.Requests, r.BytesShipped, r.Rows)
}

// queries, verbatim §5 rewrites of Q7 (destination spelled as xrpc://B).
const (
	// QDataShipping is Q7: all of auctions.xml ships to A.
	QDataShipping = `
for $p in doc("persons.xml")//person,
    $ca in doc("xrpc://B/auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`

	// QPredicatePushdown is Q7_1: B evaluates //closed_auction.
	QPredicatePushdown = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person,
    $ca in execute at {"xrpc://B"} { b:Q_B1() }
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`

	// QExecutionRelocation runs the whole join at B (Q_B2).
	QExecutionRelocation = `
import module namespace b="functions_b" at "http://example.org/b.xq";
execute at {"xrpc://B"} { b:Q_B2() }`

	// QDistributedSemiJoin is Q7_3: per-person probes, loop-lifted into
	// one Bulk RPC.
	QDistributedSemiJoin = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $ca := execute at {"xrpc://B"} {b:Q_B3(string($p/@id))}
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`
)

// QShardedSemiJoin is the sharded variant of Q7_3: the probe side is
// scattered. The query text is the distributed semi-join with the
// destination swapped for the coordinator's virtual cluster URI —
// loop-lifting turns the per-person probes into ONE bulk request, and
// the coordinator (which implements pathfinder.BulkCaller) scatters
// that request to every auctions shard and gathers the matches in
// shard = document order.
const QShardedSemiJoin = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $ca := execute at {"xrpc://cluster"} {b:Q_B3(string($p/@id))}
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`

// QShardedSemiJoinData is the ship-data-side variant of the sharded
// semi-join: instead of shipping one probe key per person to the
// auction shards, the auction side ships whole — the loop-invariant
// Q_B1() broadcast deduplicates to a single scattered request — and the
// join filter runs at the probe side. Same result, byte for byte: the
// broadcast merge is in shard = document order, so filtering it locally
// selects the same auctions in the same order the per-key probes
// return them. Which variant is cheaper depends on the measured sides
// (ChooseSemiJoinSide); RunSemiJoinAuto executes the cheaper one.
const QShardedSemiJoinData = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $all := execute at {"xrpc://cluster"} {b:Q_B1()}
let $ca := $all[buyer/@person = string($p/@id)]
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`

// ShardedEnv is the N-peer deployment for the sharded semi-join:
// peer A keeps persons.xml and the loop-lifting engine; auctions.xml is
// partitioned across store-backed shard peers driven by a
// scatter-gather coordinator.
type ShardedEnv struct {
	Net      *netsim.Network
	Registry *modules.Registry
	StoreA   *store.Store
	Dep      *cluster.Deployment

	// Measured side sizes for the costed semi-join side choice:
	// Persons probe keys of ~KeyBytes each against Auctions rows of
	// ~AuctionItemBytes serialized bytes each.
	Persons, Auctions int
	KeyBytes          float64
	AuctionItemBytes  float64
}

// NewShardedEnv partitions the generated auctions.xml across shards
// peers (replication ≥ 1 adds failover replicas per shard) on the given
// network.
func NewShardedEnv(cfg xmark.Config, shards, replication int, net *netsim.Network) (*ShardedEnv, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsB, "http://example.org/b.xq"); err != nil {
		return nil, err
	}
	personsXML := xmark.GeneratePersons(cfg)
	auctionsXML := xmark.GenerateAuctions(cfg)
	stA := store.New()
	if err := stA.LoadXML("persons.xml", personsXML); err != nil {
		return nil, err
	}
	dep, err := cluster.Deploy(net, reg, map[string]string{
		"auctions.xml": auctionsXML,
	}, cluster.DeployConfig{Shards: shards, Replication: replication})
	if err != nil {
		return nil, err
	}
	env := &ShardedEnv{Net: net, Registry: reg, StoreA: stA, Dep: dep}
	if err := env.measureSides(personsXML, auctionsXML); err != nil {
		return nil, err
	}
	return env, nil
}

// measureSides sizes the semi-join's two sides from the generated
// documents: probe keys (person ids, with average length) and data rows
// (closed auctions, with average serialized size) — the cost inputs of
// the ship-smallest-side decision.
func (env *ShardedEnv) measureSides(personsXML, auctionsXML string) error {
	pd, err := xdm.ParseDocument("persons.xml", personsXML)
	if err != nil {
		return err
	}
	var keyLen int
	for _, p := range xdm.Step(pd, xdm.AxisDescendant, xdm.NodeTest{Name: "person"}) {
		id, _ := p.Attr("id")
		env.Persons++
		keyLen += len(id)
	}
	if env.Persons > 0 {
		env.KeyBytes = float64(keyLen) / float64(env.Persons)
	}
	ad, err := xdm.ParseDocument("auctions.xml", auctionsXML)
	if err != nil {
		return err
	}
	env.Auctions = len(xdm.Step(ad, xdm.AxisDescendant, xdm.NodeTest{Name: "closed_auction"}))
	if env.Auctions > 0 {
		env.AuctionItemBytes = float64(len(auctionsXML)) / float64(env.Auctions)
	}
	return nil
}

// ChooseSemiJoinSide costs both sides of the sharded semi-join with the
// planner's model: ship the person keys to the auction shards
// (QShardedSemiJoin) or ship every auction row to the probe side once
// (QShardedSemiJoinData).
//
// planner.ChooseSemiJoin's estData is linear in the shipped rows — it has
// no |keys| × |rows| term, i.e. it always assumed the probe side joins
// what it receives in linear time. That holds for the two-for spelling of
// the join (QPredicatePushdown), which the loop-lifted engine hashes
// (pathfinder/join.go). QShardedSemiJoinData spells the same join as a
// predicate, $all[buyer/@person = string($p/@id)], which is not
// recognised yet: its local join is still |persons| × |auctions|
// comparisons, so its actual cost exceeds estData by that product.
func (env *ShardedEnv) ChooseSemiJoinSide() planner.SemiJoinChoice {
	return planner.NewStats().ChooseSemiJoin(
		env.Persons, env.KeyBytes, int64(env.Auctions), env.AuctionItemBytes)
}

// RunSemiJoin executes the sharded semi-join (ship-keys side) and
// returns the Table 4 style measurements plus the result sequence for
// verification against the unsharded baseline. BTime aggregates handler
// time across all shard peers.
func (env *ShardedEnv) RunSemiJoin() (*Result, xdm.Sequence, error) {
	return env.runSharded(
		fmt.Sprintf("sharded semi-join ×%d", env.Dep.Table.NumShards()), QShardedSemiJoin)
}

// RunSemiJoinData executes the ship-data-side variant: one broadcast of
// the whole auction side, joined at the probe side.
func (env *ShardedEnv) RunSemiJoinData() (*Result, xdm.Sequence, error) {
	return env.runSharded(
		fmt.Sprintf("sharded semi-join (data side) ×%d", env.Dep.Table.NumShards()), QShardedSemiJoinData)
}

// RunSemiJoinAuto costs both sides and executes the cheaper one — the
// measured smaller side ships. The returned choice carries the two
// estimates for the slow-query log's estimated-vs-actual line.
func (env *ShardedEnv) RunSemiJoinAuto() (*Result, xdm.Sequence, planner.SemiJoinChoice, error) {
	choice := env.ChooseSemiJoinSide()
	var r *Result
	var seq xdm.Sequence
	var err error
	if choice.ShipKeys {
		r, seq, err = env.RunSemiJoin()
	} else {
		r, seq, err = env.RunSemiJoinData()
	}
	return r, seq, choice, err
}

func (env *ShardedEnv) runSharded(label, query string) (*Result, xdm.Sequence, error) {
	for _, reps := range env.Dep.Servers {
		for _, srv := range reps {
			srv.ResetStats()
		}
	}
	env.Net.ResetStats()

	cl := client.New(env.Net)
	co := cluster.NewCoordinator(env.Dep.Table, cl)
	compiled, err := pathfinder.Compile(query, env.Registry)
	if err != nil {
		return nil, nil, fmt.Errorf("sharded semi-join: %w", err)
	}
	ec := &pathfinder.ExecCtx{
		Docs: &client.DocResolver{Local: env.StoreA, Client: cl},
		Bulk: co,
	}
	start := time.Now()
	seq, err := compiled.Eval(ec, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("sharded semi-join: %w", err)
	}
	total := time.Since(start)
	// shards handle the scattered bulk concurrently, so peer A's share
	// of the wall clock is total minus the critical path — the slowest
	// shard's handler time — not minus the sum across shards
	var bTime, bMax time.Duration
	var served int64
	for _, reps := range env.Dep.Servers {
		for _, srv := range reps {
			bTime += srv.HandleTime
			if srv.HandleTime > bMax {
				bMax = srv.HandleTime
			}
			served += srv.ServedRequests
		}
	}
	aTime := total - bMax
	if aTime < 0 {
		aTime = 0
	}
	return &Result{
		Strategy:     label,
		Rows:         len(seq),
		Total:        total,
		ATime:        aTime,
		BTime:        bTime,
		Requests:     served,
		BytesShipped: env.Net.Stats.BytesSent.Load() + env.Net.Stats.BytesReceived.Load(),
	}, seq, nil
}

// Run executes one strategy query on peer A's loop-lifting engine and
// collects the Table 4 measurements.
func (env *Env) Run(name, query string) (*Result, error) {
	env.ServerA.ResetStats()
	env.ServerB.ResetStats()
	env.Net.Stats.Requests.Store(0)
	env.Net.Stats.BytesSent.Store(0)
	env.Net.Stats.BytesReceived.Store(0)

	cl := client.New(env.Net)
	compiled, err := pathfinder.Compile(query, env.Registry)
	if err != nil {
		return nil, fmt.Errorf("strategy %s: %w", name, err)
	}
	ec := &pathfinder.ExecCtx{
		Docs: &client.DocResolver{Local: env.StoreA, Client: cl},
		Bulk: cl,
	}
	start := time.Now()
	seq, err := compiled.Eval(ec, nil)
	if err != nil {
		return nil, fmt.Errorf("strategy %s: %w", name, err)
	}
	total := time.Since(start)
	bTime := env.ServerB.HandleTime
	return &Result{
		Strategy:     name,
		Rows:         len(seq),
		Total:        total,
		ATime:        total - bTime,
		BTime:        bTime,
		Requests:     env.ServerB.ServedRequests,
		BytesShipped: env.Net.Stats.BytesSent.Load() + env.Net.Stats.BytesReceived.Load(),
	}, nil
}

// RunSeq is Run but also returns the result sequence for verification.
func (env *Env) RunSeq(name, query string) (*Result, xdm.Sequence, error) {
	cl := client.New(env.Net)
	compiled, err := pathfinder.Compile(query, env.Registry)
	if err != nil {
		return nil, nil, err
	}
	ec := &pathfinder.ExecCtx{
		Docs: &client.DocResolver{Local: env.StoreA, Client: cl},
		Bulk: cl,
	}
	start := time.Now()
	seq, err := compiled.Eval(ec, nil)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Strategy: name, Rows: len(seq), Total: time.Since(start)}, seq, nil
}

// RunAll executes all four strategies in the paper's Table 4 order.
func (env *Env) RunAll() ([]*Result, error) {
	specs := []struct{ name, query string }{
		{"data shipping", QDataShipping},
		{"predicate push-down", QPredicatePushdown},
		{"execution relocation", QExecutionRelocation},
		{"distributed semi-join", QDistributedSemiJoin},
	}
	var out []*Result
	for _, s := range specs {
		r, err := env.Run(s.name, s.query)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
