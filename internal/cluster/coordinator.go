package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/obs"
	"xrpc/internal/planner"
	"xrpc/internal/txn"
	"xrpc/internal/xdm"
)

// DefaultClusterURI is the virtual destination that triggers
// scatter-gather dispatch in a Coordinator.
const DefaultClusterURI = "xrpc://cluster"

// txnTimeout is the isolation timeout, in seconds, of the queryIDs
// minted for routed updates.
const txnTimeout = 30

// RouteSpec declares how the calls of one function map onto the
// partition key space: parameter KeyArg of every call is a key drawn
// from the partitioned container (Doc, Path). Registering a spec is a
// promise about the function's semantics — only the shard owning the
// key answers for it, and its side effects touch only the container
// rows with that key — which is what makes predicate-pruned reads
// byte-identical to one unsharded peer and single-shard routed updates
// sound. A function whose result on a non-owning shard is not empty
// (string() of an absent node is "", count() is 0) needs its spec:
// broadcast would concatenate those non-owning answers into the result,
// and the unsharded peer has none of them. The cluster tests verify
// the identity for every spec they register.
type RouteSpec struct {
	// ModuleURI and Func name the function the spec routes.
	ModuleURI, Func string
	// KeyArg is the index of the partition-key parameter.
	KeyArg int
	// Doc and Path name the partitioned container the key selects in
	// (KeyRange coordinates, e.g. "persons.xml", "/site/people/person").
	Doc, Path string
	// Op is the comparison the function applies between the container
	// key and the key argument ("" means "="). Range operators arise
	// only from compiler-derived specs and prune against codepoint-
	// ordered key bounds (KeyRange.Lex).
	Op string
}

// op normalizes the spec's comparison operator.
func (s *RouteSpec) op() string {
	if s.Op == "" {
		return "="
	}
	return s.Op
}

// Coordinator fans Bulk RPC requests out across the shards of a routing
// table and merges the responses. It implements client.BulkCaller:
// requests addressed to DefaultClusterURI are scattered (reads) or routed
// (updates), any other destination passes through to the underlying
// client unchanged — so a query can mix sharded and direct execute-at
// destinations.
//
// Reads. Every read runs the one pipeline in gather.go — validate, plan,
// cache stage, open one response stream per shard part, shard-order
// merge, sink — and Scatter, ScatterStream and the Proxy differ only in
// the sink they pass. Merge semantics make the cluster look like one
// peer holding the whole document: result i of the merged response is
// the concatenation, in shard order, of every contacted shard's result
// i. Because the partitioner cuts contiguous subtree ranges, shard order
// is document order, and the merged response is byte-identical to a
// single-peer execution of the same bulk request against the unsharded
// document whenever the per-shard results concatenate to the
// whole-document result — true of every function whose answer on a
// shard lacking the key is empty, and made true for any other by the
// RouteSpec that routes it to the owning shard alone. When a RouteSpec
// — registered, or derived by the Planner — matches the request and the
// routing table holds keyed range metadata for its container, the plan
// is predicate-pruned: each call is sent
// only to the shards whose key bounds may contain the call's key (a
// probe for one person id contacts one shard, not N), and shards left
// with no calls are not contacted at all; otherwise the plan is the
// broadcast, whose parts are every shard with every call. Pruning is
// conservative — a shard is skipped only when its range proves the key
// absent — so the merged response stays byte-identical, and every plan
// shape streams under the same per-shard memory bound.
//
// Updates. An updating bulk request is accepted when a RouteSpec
// resolves every call to exactly one shard. Each call travels to its
// shard's primary only, which evaluates it under the transaction's
// queryID — deferring the pending update list against the pinned
// snapshot (rule R'_Fu) — and the whole request then commits through
// txn.Coordinator 2PC spanning the touched primaries. Between Prepare
// and Commit the serialized PUL piggybacked on each primary's Prepare
// ack is forwarded to the shard's replicas (WS-AT AdoptPUL), and the
// commit is fenced on store.Version: a replica that fails to adopt, to
// commit, or reports a version different from its primary's is evicted
// from the routing table instead of serving stale reads.
//
// Error semantics mirror the server's parallel bulk executor: every
// fan-out goes through client.Fanout, so when several shards fail
// (after replica failover), the error of the lowest shard index is
// reported, deterministically.
type Coordinator struct {
	// Table routes shard index → replica peer URIs + range metadata.
	Table *RoutingTable
	// Client performs the actual sends (and keeps the traffic stats).
	Client *client.Client
	// OnEvict, when set, observes replica evictions (shard, uri, cause).
	OnEvict func(shard int, uri string, reason error)
	// ResultCache, when non-nil, serves repeat reads from the
	// coordinator's merged-result cache, revalidated against each
	// shard's commit-fence version and registry generation via a
	// shardInfo probe (see resultcache.go). It is consulted iff the
	// request carries no queryID and its plan contacts two or more
	// shards (the one rule, stated at read in gather.go).
	ResultCache *ResultCache
	// Metrics, when non-nil, records scatter/merge/failover/2PC facts
	// onto an obs.Registry (see NewMetrics). Nil disables all recording.
	Metrics *Metrics
	// SlowLog, when non-nil, writes a structured record for scatters
	// slower than its threshold, carrying the request's trace ID.
	SlowLog *obs.SlowLog
	// Planner, when non-nil, derives route specs from the compiled
	// module bodies for functions with no registered RouteSpec, keeps
	// each shard's observed call latency, and cost-compares pruned
	// execution against broadcast for derived routes (see internal/planner and
	// planner.go in this package). Nil keeps the registered-specs-only
	// behaviour.
	Planner *planner.Planner

	mu     sync.RWMutex
	routes []RouteSpec
}

// NewCoordinator builds a coordinator over a routing table and client.
func NewCoordinator(rt *RoutingTable, cl *client.Client) *Coordinator {
	return &Coordinator{Table: rt, Client: cl}
}

// Route registers a routing declaration (see RouteSpec).
func (co *Coordinator) Route(spec RouteSpec) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.routes = append(co.routes, spec)
}

// registeredSpec finds the hand-written route spec for the request. The
// second return is a non-empty reason when a spec names the function
// but cannot apply to this request (KeyArg outside the request arity) —
// previously a silent broadcast fallback, now warned once and counted.
func (co *Coordinator) registeredSpec(br *client.BulkRequest) (*RouteSpec, string) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	reason := ""
	for i := range co.routes {
		if co.routes[i].ModuleURI != br.ModuleURI || co.routes[i].Func != br.Func {
			continue
		}
		if co.routes[i].KeyArg >= 0 && co.routes[i].KeyArg < br.Arity {
			return &co.routes[i], ""
		}
		reason = fmt.Sprintf("registered KeyArg %d outside request arity %d",
			co.routes[i].KeyArg, br.Arity)
	}
	return nil, reason
}

// CallBulk implements client.BulkCaller. The cluster URI scatters
// read-only requests and routes updating ones; everything else passes
// through.
func (co *Coordinator) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	if dest != DefaultClusterURI {
		return co.Client.CallBulk(dest, br)
	}
	if br.Updating {
		return co.Update(br)
	}
	return co.Scatter(br)
}

// ScatterBuffered is the collect-then-concat reference implementation
// of the read path: over the same plan and parts as the pipeline, every
// part's full response is decoded into memory (one callShard per part),
// then concatenated by original call index. Scatter produces
// byte-identical results through the incremental merge (see gather.go)
// while holding only a bounded window per shard; this path is kept as
// the executable reference the streamed merge is pinned against, and
// for the peak-memory comparison in the cluster benchmarks.
func (co *Coordinator) ScatterBuffered(br *client.BulkRequest) ([]xdm.Sequence, error) {
	r, err := co.newRead(co.Client, br)
	if err != nil {
		return nil, err
	}
	defer r.release()
	results, err := r.callBuffered()
	if err != nil {
		return nil, err
	}
	merged := make([]xdm.Sequence, len(br.Calls))
	for i, p := range r.dec.parts {
		for j, g := range p.orig {
			merged[g] = append(merged[g], results[i][j]...)
		}
	}
	return merged, nil
}

// callBuffered is the buffered fan-out of the reference path and of the
// fence probes: one callShard per part of the plan, concurrently, each
// response decoded whole. The error of the lowest shard index wins.
func (r *readOp) callBuffered() ([][]xdm.Sequence, error) {
	parts := r.dec.parts
	bodies := make([][]byte, len(parts))
	for i, p := range parts {
		bodies[i] = r.body(p.br)
	}
	results := make([][]xdm.Sequence, len(parts))
	failed, err := client.Fanout(len(parts), func(i int) (err error) {
		results[i], err = r.co.callShard(parts[i].shard, bodies[i], len(parts[i].br.Calls))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", parts[failed].shard, err)
	}
	return results, nil
}

func (co *Coordinator) validTable() error {
	if co.Table == nil {
		return xdm.NewError("XRPC0007", "cluster: no routing table")
	}
	if err := co.Table.Validate(); err != nil {
		return xdm.Errorf("XRPC0007", "cluster: invalid routing table: %v", err)
	}
	return nil
}

// callKey extracts call ci's partition key under spec ("" and false for
// calls whose key parameter is not a singleton — those stay unpruned).
func callKey(br *client.BulkRequest, ci int, spec *RouteSpec) (string, bool) {
	args := br.Calls[ci]
	if spec.KeyArg >= len(args) || len(args[spec.KeyArg]) != 1 {
		return "", false
	}
	return args[spec.KeyArg][0].StringValue(), true
}

// shardPart is one shard's share of a planned read or routed update:
// the request it is sent (the whole request, for a broadcast) and where
// its calls sit in the original.
type shardPart struct {
	shard int
	br    *client.BulkRequest
	orig  []int // orig[j] = global index of the part's call j
}

// partition splits the request per shard under the route spec. Calls
// without a usable key go to every shard (conservative).
func (co *Coordinator) partition(br *client.BulkRequest, spec *RouteSpec) []*shardPart {
	n := co.Table.NumShards()
	byShard := make(map[int]*shardPart)
	for ci := range br.Calls {
		cand := allShards(n)
		if key, ok := callKey(br, ci, spec); ok {
			cand = co.Table.CandidateShardsOp(spec.Doc, spec.Path, key, spec.op())
		}
		for _, s := range cand {
			part, ok := byShard[s]
			if !ok {
				sub := *br
				sub.Calls, sub.SeqNrs = nil, nil
				part = &shardPart{shard: s, br: &sub}
				byShard[s] = part
			}
			part.br.Calls = append(part.br.Calls, br.Calls[ci])
			if br.SeqNrs != nil {
				part.br.SeqNrs = append(part.br.SeqNrs, br.SeqNrs[ci])
			}
			part.orig = append(part.orig, ci)
		}
	}
	parts := make([]*shardPart, 0, len(byShard))
	for _, p := range byShard {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].shard < parts[j].shard })
	return parts
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// callShard posts the pre-encoded request body to the shard (see
// walkReplicas) and decodes the whole response.
func (co *Coordinator) callShard(shard int, body []byte, calls int) (res []xdm.Sequence, err error) {
	start := time.Now()
	err = co.walkReplicas(shard, func(uri string) (err error) {
		res, err = co.Client.SendEncoded(uri, body, calls)
		return err
	})
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	if m := co.Metrics; m != nil && shard < len(m.Call) {
		m.Call[shard].ObserveDuration(d)
	}
	co.notePlannerCall(shard, d)
	return res, nil
}

// ------------------------------------------------------------- updates

// Update routes an updating bulk request through the cluster as one
// distributed transaction: every call must resolve to exactly one shard
// by partition key; each touched shard's primary evaluates its calls
// under a fresh queryID (pending updates deferred against the pinned
// snapshot); commit then runs through txn.Coordinator 2PC over the
// touched primaries, with the prepared PUL forwarded to each shard's
// replicas and the commit fenced on store.Version — replicas that fail
// replication or diverge are evicted from the routing table.
func (co *Coordinator) Update(br *client.BulkRequest) ([]xdm.Sequence, error) {
	if err := co.validTable(); err != nil {
		return nil, err
	}
	// a range route cannot name one owning shard: only equality routes
	spec, _, _ := co.resolveSpec(br)
	if spec == nil || spec.op() != "=" {
		return nil, xdm.Errorf("XRPC0007",
			"cluster: no route for updating function %s#%s — register a cluster.RouteSpec naming its partition-key parameter",
			br.ModuleURI, br.Func)
	}
	// resolve every call to its single owning shard
	for ci := range br.Calls {
		key, ok := callKey(br, ci, spec)
		if !ok {
			return nil, xdm.Errorf("XRPC0007",
				"cluster: updating call %d has no singleton partition key (parameter %d)", ci, spec.KeyArg)
		}
		cand := co.Table.CandidateShards(spec.Doc, spec.Path, key)
		if len(cand) != 1 {
			return nil, xdm.Errorf("XRPC0007",
				"cluster: updating call %d (key %q) is not routable to a single shard (%d candidates) — the container needs keyed range metadata",
				ci, key, len(cand))
		}
	}
	parts := co.partition(br, spec)

	// one transaction per updating bulk request: a fresh queryID scopes
	// the snapshot, the deferred PULs, and the 2PC verbs
	txCl := client.New(co.Client.Transport)
	txCl.QueryID = txn.NewQueryID(DefaultClusterURI, txnTimeout)
	tc := &txn.Coordinator{Client: txCl}
	if m := co.Metrics; m != nil {
		m.Updates.Inc()
		tc.Metrics = m.Txn
	}
	primaries := make([]string, len(parts))
	for i, part := range parts {
		primaries[i] = co.Table.Primary(part.shard)
	}

	// apply phase: primary only, concurrently across shards. No replica
	// failover here — a transport error mid-apply is ambiguous, and the
	// safe answer is to abort the transaction, not to mutate a replica
	// that the primary will diverge from.
	results := make([][]xdm.Sequence, len(parts))
	failed, err := client.Fanout(len(parts), func(i int) (err error) {
		results[i], err = txCl.CallBulk(primaries[i], parts[i].br)
		return err
	})
	if err != nil {
		tc.AbortAll(primaries)
		return nil, fmt.Errorf("cluster: shard %d: %w", parts[failed].shard, err)
	}
	// the 2PC verbs inherit the coordinator client's retry policy: a
	// transient burst at a replica during AdoptPUL/Commit is retried in
	// place instead of evicting a healthy peer. The apply phase above
	// runs without it: a lost reply leaves the apply ambiguous, and a
	// re-sent one would add its updates twice.
	txCl.Retry = co.Client.Retry

	// 2PC phase 1 over the touched primaries; the Prepare acks carry the
	// serialized PULs (aborts everywhere on failure)
	prepRes, err := tc.PrepareAll(primaries)
	if err != nil {
		return nil, err
	}

	// replica PUL replication: forward each primary's prepared PUL to
	// the shard's replicas; a replica that cannot adopt it is evicted
	// (it would serve stale reads after commit)
	type adoptedReplica struct {
		shard int
		uri   string
	}
	var adopted []adoptedReplica
	for i, part := range parts {
		pulNode := prepPUL(prepRes[i])
		if pulNode == nil {
			continue // empty PUL: replicas stay consistent without it
		}
		for _, uri := range co.Table.Replicas(part.shard)[1:] {
			if _, err := tc.Verb(uri, "AdoptPUL", xdm.Singleton(pulNode)); err != nil {
				co.evict(part.shard, uri, fmt.Errorf("PUL replication failed: %w", err))
				continue
			}
			adopted = append(adopted, adoptedReplica{part.shard, uri})
		}
	}

	// 2PC phase 2: commit the primaries (heuristic failures reported but
	// the rest still commit), then the adopted replicas — fenced on the
	// store version their primary reported
	commitRes, commitErr := tc.CommitPrepared(primaries)
	primVersion := make(map[int]int64, len(parts))
	for i, part := range parts {
		if v, ok := commitVersion(commitRes[i]); ok {
			primVersion[part.shard] = v
		}
	}
	for _, rep := range adopted {
		want, haveWant := primVersion[rep.shard]
		if !haveWant {
			// the primary's own commit failed (a heuristic outcome): the
			// replica must not commit against an unverifiable primary
			// state — release its prepared snapshot (best-effort: an
			// unreachable replica expires the queryID via its timeout
			// instead) and evict it
			_, _ = tc.Verb(rep.uri, "Abort")
			co.evict(rep.shard, rep.uri,
				fmt.Errorf("primary commit failed; replica consistency unverifiable"))
			continue
		}
		res, err := tc.Verb(rep.uri, "Commit")
		if err != nil {
			co.evict(rep.shard, rep.uri, fmt.Errorf("replica commit failed: %w", err))
			continue
		}
		got, ok := commitVersion(res)
		if !ok || got != want {
			co.evict(rep.shard, rep.uri,
				fmt.Errorf("version fence: replica at %d, primary at %d", got, want))
		}
	}

	merged := make([]xdm.Sequence, len(br.Calls))
	for i, part := range parts {
		for j, g := range part.orig {
			merged[g] = results[i][j]
		}
	}
	return merged, commitErr
}

// evict removes a replica from the routing table so it stops serving
// stale reads. Eviction is final for this coordinator: nothing re-adds
// the replica, so it gets no further reads or writes from it.
func (co *Coordinator) evict(shard int, uri string, reason error) {
	if co.Table.Evict(shard, uri) {
		if m := co.Metrics; m != nil {
			m.Evictions.Inc()
		}
		if co.OnEvict != nil {
			co.OnEvict(shard, uri, reason)
		}
	}
}

// prepPUL extracts the serialized pending update list piggybacked on a
// Prepare ack (nil when the primary's PUL was empty).
func prepPUL(res xdm.Sequence) *xdm.Node {
	if len(res) < 2 {
		return nil
	}
	n, _ := res[1].(*xdm.Node)
	return n
}

// commitVersion extracts the post-commit store version from a Commit
// ack.
func commitVersion(res xdm.Sequence) (int64, bool) {
	if len(res) < 2 {
		return 0, false
	}
	v, ok := res[1].(xdm.Integer)
	return int64(v), ok
}
