package cluster

import (
	"fmt"
	"path/filepath"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/planner"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
)

// DeployConfig parameterizes an in-process sharded deployment.
type DeployConfig struct {
	// Shards is the number of partitions (≥ 1).
	Shards int
	// Replication is how many identical peers serve each shard (≥ 1).
	// Replicas hold the same shard documents; the coordinator fails
	// over to them when the primary is unreachable.
	Replication int
	// URIPrefix names the peers: shard s replica j is registered as
	// "<prefix><s>" (j = 0) or "<prefix><s>.r<j>". Default
	// "xrpc://shard".
	URIPrefix string
	// Parallelism, when > 1, sizes each shard server's bulk execution
	// worker pool.
	Parallelism int
	// Routes are registered on every coordinator built from this
	// deployment: the partition-key declarations that enable routed
	// single-shard updates and predicate-pruned scatters.
	Routes []RouteSpec
	// RespCacheBytes, when > 0, enables each shard server's Tier-1
	// response cache with this byte bound.
	RespCacheBytes int64
	// ResultCacheBytes, when > 0, attaches a Tier-2 merged-result cache
	// of this byte bound to every coordinator built via Coordinator().
	// Memory note: with the cache on, a streamed miss still forwards
	// the response incrementally and retains a copy to populate the
	// cache only while the bytes written stay within this bound (the
	// cache would refuse a larger entry), so coordinator memory is
	// O(shards × scanner window + largest item + min(result,
	// ResultCacheBytes)).
	ResultCacheBytes int64
	// WALRoot, when non-empty, makes every replica durable: shard s
	// replica j logs to <WALRoot>/s<s>r<j> (commit WAL + snapshots) and
	// recovers from it when the directory already holds state.
	WALRoot string
}

// Deployment is a set of shard peers registered on one netsim.Network,
// plus the routing table that addresses them. The same Coordinator code
// drives real HTTP peers instead by building a RoutingTable of
// http:// URIs by hand (see TestCoordinatorOverHTTP).
type Deployment struct {
	Net   *netsim.Network
	Table *RoutingTable
	// Servers[s][j] is replica j of shard s; Stores[s][j] its store.
	Servers [][]*server.Server
	Stores  [][]*store.Store
	// Routes are the partition-key declarations of the deployment.
	Routes []RouteSpec
	// Registry is the module registry every shard executor shares —
	// what the coordinator's planner derives route specs from.
	Registry *modules.Registry

	resultCacheBytes int64
}

// Deploy partitions every document in docs across cfg.Shards shard
// peers (each backed by its own store.Store and native executor,
// sharing the module registry) and registers them on the network.
func Deploy(net *netsim.Network, reg *modules.Registry, docs map[string]string, cfg DeployConfig) (*Deployment, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: deploy with %d shards", cfg.Shards)
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.URIPrefix == "" {
		cfg.URIPrefix = "xrpc://shard"
	}
	rt, err := NewRoutingTable(cfg.Shards)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{
		Net:      net,
		Table:    rt,
		Servers:  make([][]*server.Server, cfg.Shards),
		Stores:   make([][]*store.Store, cfg.Shards),
		Registry: reg,
	}
	// partition once per document, reused by every replica of a shard;
	// the emitted ranges become the routing table's partition metadata,
	// the element-name census the planner's proof that derived routes
	// may prune (see ElemLoc)
	parts := make(map[string][]string, len(docs))
	shardRanges := make([][]KeyRange, cfg.Shards)
	var elemLocs []ElemLoc
	for name, xml := range docs {
		p, ranges, locs, err := PartitionWithMeta(name, xml, cfg.Shards)
		if err != nil {
			return nil, err
		}
		parts[name] = p
		elemLocs = append(elemLocs, locs...)
		for s := 0; s < cfg.Shards; s++ {
			shardRanges[s] = append(shardRanges[s], ranges[s]...)
		}
	}
	rt.SetElemLocs(elemLocs)
	for s := 0; s < cfg.Shards; s++ {
		if err := rt.SetRanges(s, shardRanges[s]); err != nil {
			return nil, err
		}
		descriptors := make([]string, 0, len(shardRanges[s])+len(elemLocs))
		for _, r := range shardRanges[s] {
			descriptors = append(descriptors, r.String())
		}
		// the census rides along in the shardInfo descriptor list: its
		// "elem" prefix never parses as a KeyRange, so range-descriptor
		// consumers skip it, and a coordinator building its table from
		// live shardInfo can rebuild the census too
		for _, l := range elemLocs {
			descriptors = append(descriptors, l.String())
		}
		for j := 0; j < cfg.Replication; j++ {
			uri := fmt.Sprintf("%s%d", cfg.URIPrefix, s)
			if j > 0 {
				uri = fmt.Sprintf("%s.r%d", uri, j)
			}
			st := store.New()
			for name := range docs {
				if err := st.LoadXML(name, parts[name][s]); err != nil {
					return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
				}
			}
			exec := server.NewNativeExecutor(interp.New(reg), reg)
			srv := server.New(st, reg, exec)
			srv.Self = uri
			srv.Shard, srv.Shards = s, cfg.Shards
			srv.ShardRanges = descriptors
			// every replica gets a nested-call client factory: an
			// `execute at` inside a shard's query calls out through it
			srv.NewRPC = func(qid *soap.QueryID) (interp.RPCCaller, func() []string) {
				cl := client.New(net)
				cl.QueryID = qid
				return cl, cl.Peers
			}
			if cfg.WALRoot != "" {
				if _, err := srv.EnableWAL(server.WALConfig{
					Dir: filepath.Join(cfg.WALRoot, fmt.Sprintf("s%dr%d", s, j)),
				}); err != nil {
					return nil, fmt.Errorf("cluster: shard %d replica %d: %w", s, j, err)
				}
			}
			if cfg.RespCacheBytes > 0 {
				srv.RespCache = server.NewRespCache(cfg.RespCacheBytes)
			}
			if cfg.Parallelism > 1 {
				srv.SetParallelism(cfg.Parallelism)
			}
			net.Register(uri, srv)
			if err := rt.Add(s, uri); err != nil {
				return nil, err
			}
			dep.Servers[s] = append(dep.Servers[s], srv)
			dep.Stores[s] = append(dep.Stores[s], st)
		}
	}
	dep.Routes = cfg.Routes
	dep.resultCacheBytes = cfg.ResultCacheBytes
	return dep, nil
}

// Coordinator returns a scatter-gather coordinator over this
// deployment's routing table, sending through a fresh client on the
// deployment's network, with the deployment's routes registered and a
// planner deriving routes for everything the routes don't cover.
func (d *Deployment) Coordinator() *Coordinator {
	co := NewCoordinator(d.Table, client.New(d.Net))
	for _, r := range d.Routes {
		co.Route(r)
	}
	if d.resultCacheBytes > 0 {
		co.ResultCache = NewResultCache(d.resultCacheBytes)
	}
	co.Planner = planner.New(d.Registry)
	return co
}

// Close flushes and closes every replica's WAL (no-op for replicas
// without one).
func (d *Deployment) Close() error {
	var first error
	for _, reps := range d.Servers {
		for _, srv := range reps {
			if err := srv.CloseWAL(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
