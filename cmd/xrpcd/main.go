// Command xrpcd runs an XRPC peer daemon: an HTTP server answering SOAP
// XRPC requests on POST /xrpc, serving documents and XQuery modules
// loaded from directories.
//
//	xrpcd -addr :8080 -self xrpc://localhost:8080 -docs ./docs -modules ./modules
//
// Every *.xml file in -docs is loaded into the store under its base
// name; every *.xq file in -modules is registered under its declared
// namespace URI (and its file name as a location hint).
//
// A peer can serve one shard of a larger cluster: with -shard k -of n,
// every loaded document is partitioned into n subtree ranges and only
// range k is kept. A scatter-gather coordinator (internal/cluster)
// pointed at all n peers then answers read-only bulk requests exactly
// like one peer holding the unsharded documents.
//
// With -proxy, the daemon serves no documents itself: it runs a
// streaming scatter-gather coordinator over the listed shard peers and
// answers POST /xrpc like an ordinary peer holding the unsharded
// documents — shard responses are merged in shard order and forwarded
// to the client as they arrive, so the proxy holds one scanner window
// per shard (at most the largest item plus a read) regardless of result
// size; a shard the merge has not reached yet waits on its socket:
//
//	xrpcd -addr :8080 -proxy xrpc://s0:8081,xrpc://s1:8082
//
// Each comma-separated entry is one shard, in shard order; replicas of
// a shard are separated by '|' (first entry is the primary). The proxy
// answers through the peer's own response path: with -gzip it gzips its
// answers for clients that accept it, and a failure reaches the client
// with the fault code a single peer would give.
//
// Version-fenced caching: -respcache N gives a peer an N MiB response
// cache (read-only bulk calls outside an isolation scope are served
// from cached result bytes until a commit steps the store version);
// -resultcache N gives a proxy an N MiB merged-result cache (warm
// requests revalidate with one shardInfo probe round per shard).
//
// Durability: -wal-dir makes the peer's shard durable — every commit is
// appended to an fsync'd write-ahead log before it is acknowledged, the
// store is periodically snapshotted so the log stays short, and a
// restart with the same directory replays the log over the latest
// snapshot to recover the exact pre-crash store (torn tails from a
// mid-write crash are detected by CRC and discarded). While a recovering
// peer replays, /readyz answers 503.
//
// Observability: -debug-addr starts a second HTTP listener with
// /metrics (Prometheus text), /healthz, /readyz, /debug/pprof/* and
// /debug/vars; -slow-query sets the threshold past which requests (and,
// in proxy mode, scatters) are written to the structured slow-query
// log with their trace IDs. Logs go to stderr via log/slog.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/core"
	"xrpc/internal/obs"
	"xrpc/internal/server"
	"xrpc/internal/wal"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// serveDebug starts the observability listener: Prometheus /metrics,
// liveness, readiness and the pprof/expvar debug surface.
func serveDebug(debugAddr string, reg *obs.Registry, ready func() error) {
	dln, err := net.Listen("tcp", debugAddr)
	if err != nil {
		fatalf("listen %s: %v", debugAddr, err)
	}
	logger.Info(fmt.Sprintf("debug endpoints listening on %s (/metrics /healthz /readyz /debug/pprof)", dln.Addr()))
	go func() {
		if err := http.Serve(dln, obs.DebugMux(reg, ready)); err != nil {
			logger.Error("debug server exited", "err", err)
		}
	}()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	self := flag.String("self", "", "this peer's xrpc:// URI (default derived from -addr)")
	docsDir := flag.String("docs", "", "directory of *.xml documents to load")
	modsDir := flag.String("modules", "", "directory of *.xq modules to register")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker pool size for bulk request execution (<=1 = sequential)")
	shard := flag.Int("shard", 0, "serve shard index [0,n) of each loaded document (with -of)")
	of := flag.Int("of", 0, "total number of shards (0 = unsharded)")
	rpcTimeout := flag.Duration("rpc-timeout", client.DefaultHTTPTimeout,
		"per-phase deadline for outgoing XRPC-over-HTTP requests: connect, response headers, and each response read must complete within this long (0 = none); a slow but flowing response stream is never cut off")
	useGzip := flag.Bool("gzip", false,
		"negotiate gzip content-coding: compress outgoing requests and gzip responses for clients that accept it")
	proxyPeers := flag.String("proxy", "",
		"serve as a streaming scatter-gather proxy over these shard peers instead of a local peer: comma-separated xrpc:// URIs in shard order, '|'-separated replicas within a shard")
	respCacheMiB := flag.Int("respcache", 0,
		"peer mode: version-fenced response cache size in MiB (0 = off); read-only bulk calls outside an isolation scope are answered from cached result bytes until a commit steps the store version")
	resultCacheMiB := flag.Int("resultcache", 0,
		"proxy mode: coordinator merged-result cache size in MiB (0 = off); warm requests revalidate with one shardInfo probe round per shard instead of re-executing")
	walDir := flag.String("wal-dir", "",
		"peer mode: durable-shard directory (commit write-ahead log + snapshots); commits are fsync'd before they are acked, and a restart with the same directory recovers the exact pre-crash store — when the directory already holds state, -docs is ignored in favor of recovery")
	walSnapshotMiB := flag.Int("wal-snapshot", 0,
		"snapshot the store and truncate the WAL after this many MiB of log growth (0 = 8 MiB default)")
	debugAddr := flag.String("debug-addr", "",
		"observability listen address serving /metrics, /healthz, /readyz, /debug/pprof/* and /debug/vars (empty = off)")
	slowQuery := flag.Duration("slow-query", 0,
		"slow-query log threshold: requests (and proxy scatters) slower than this are logged with trace ID, per-shard timings and cache disposition (0 = off)")
	flag.Parse()

	if *proxyPeers != "" {
		if *docsDir != "" || *modsDir != "" || *of != 0 || *shard != 0 || *walDir != "" {
			fatalf("-proxy is exclusive with -docs/-modules/-shard/-of/-wal-dir: the proxy serves the shard peers' documents, not its own")
		}
		if *respCacheMiB != 0 {
			fatalf("-respcache is a peer-mode flag; the proxy caches merged results with -resultcache")
		}
		runProxy(*addr, *proxyPeers, *rpcTimeout, *useGzip, *resultCacheMiB,
			*debugAddr, *slowQuery)
		return
	}
	if *resultCacheMiB != 0 {
		fatalf("-resultcache is a proxy-mode flag; a peer caches responses with -respcache")
	}

	if *of == 0 && *shard != 0 {
		fatalf("-shard %d without -of: the total shard count is required", *shard)
	}
	if *of < 0 || (*of > 0 && (*shard < 0 || *shard >= *of)) {
		fatalf("-shard %d -of %d: shard index must be in [0,%d)", *shard, *of, *of)
	}
	if *self == "" {
		*self = "xrpc://localhost" + *addr
	}
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	transport := client.NewHTTPTransportTimeout(*rpcTimeout)
	transport.Gzip = *useGzip
	transport.Metrics = client.NewTransportMetrics(reg)
	peer := core.NewPeer(*self, transport)
	peer.SetParallelism(*parallel)
	peer.Server.Gzip = *useGzip
	if *respCacheMiB > 0 {
		peer.Server.RespCache = server.NewRespCache(int64(*respCacheMiB) << 20)
		logger.Info("response cache enabled", "mib", *respCacheMiB, "fence", "store version")
	}
	if *of > 0 {
		peer.Server.Shard, peer.Server.Shards = *shard, *of
	}
	peer.EnableObs(reg, obs.NewSlowLog(logger, *slowQuery))

	// a WAL directory that already holds a snapshot is the authoritative
	// state: the documents (and store version) come from recovery, not
	// from re-loading -docs, which would silently shadow committed updates
	hasState := *walDir != "" && wal.HasSnapshot(*walDir)
	if *docsDir != "" && !hasState {
		n, err := loadDocs(peer, *docsDir, *shard, *of)
		if err != nil {
			fatalf("loading documents: %v", err)
		}
		if *of > 0 {
			logger.Info("documents loaded", "count", n, "dir", *docsDir, "shard", *shard, "of", *of)
		} else {
			logger.Info("documents loaded", "count", n, "dir", *docsDir)
		}
	} else if hasState && *docsDir != "" {
		logger.Info("ignoring -docs: recovering durable state", "wal", *walDir)
	}
	if *modsDir != "" {
		n, err := loadModules(peer, *modsDir)
		if err != nil {
			fatalf("loading modules: %v", err)
		}
		logger.Info("modules registered", "count", n, "dir", *modsDir)
	}

	// the debug listener comes up before recovery so /readyz answers 503
	// while the WAL replays instead of refusing connections
	var recovering atomic.Bool
	ready := peer.Ready
	if *walDir != "" {
		recovering.Store(true)
		ready = func() error {
			if recovering.Load() {
				return fmt.Errorf("WAL replay in progress")
			}
			return peer.Ready()
		}
	}
	if *debugAddr != "" {
		serveDebug(*debugAddr, reg, ready)
	}
	if *walDir != "" {
		recovered, err := peer.Server.EnableWAL(server.WALConfig{
			Dir:           *walDir,
			SnapshotBytes: int64(*walSnapshotMiB) << 20,
			Metrics:       wal.NewMetrics(reg),
		})
		if err != nil {
			fatalf("wal %s: %v", *walDir, err)
		}
		if recovered {
			logger.Info("recovered durable state", "wal", *walDir, "version", peer.Store.Version())
		} else {
			logger.Info("durability enabled", "wal", *walDir, "version", peer.Store.Version())
		}
		recovering.Store(false)
	}

	mux := http.NewServeMux()
	mux.Handle("/xrpc", peer.HTTPHandler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "XRPC peer %s\n", *self)
		if *of > 0 {
			fmt.Fprintf(w, "shard: %d of %d\n", *shard, *of)
		}
		fmt.Fprintf(w, "documents: %v\n", peer.Store.Names())
	})
	// listen explicitly so -addr :0 (a kernel-chosen port) works and the
	// actual address is logged — cluster tooling parses the "listening
	// on <addr> " part of this line to build routing tables over freshly
	// started peers, so the message keeps that exact shape
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	if *of > 0 {
		logger.Info(fmt.Sprintf("XRPC peer %s (shard %d/%d) listening on %s (POST /xrpc)", *self, *shard, *of, ln.Addr()))
	} else {
		logger.Info(fmt.Sprintf("XRPC peer %s listening on %s (POST /xrpc)", *self, ln.Addr()))
	}
	fatalf("serve: %v", http.Serve(ln, mux))
}

// runProxy serves a streaming scatter-gather coordinator over the
// given shard peers: POST /xrpc scatters a bulk request to every shard
// and streams the shard-order merge back to the client, chunk by
// chunk, holding one scanner window per shard.
func runProxy(addr, peers string, rpcTimeout time.Duration, useGzip bool, resultCacheMiB int,
	debugAddr string, slowQuery time.Duration) {
	shards := strings.Split(peers, ",")
	rt, err := cluster.NewRoutingTable(len(shards))
	if err != nil {
		fatalf("-proxy: %v", err)
	}
	for i, entry := range shards {
		for _, uri := range strings.Split(entry, "|") {
			uri = strings.TrimSpace(uri)
			if uri == "" {
				fatalf("-proxy: shard %d: empty peer URI", i)
			}
			if err := rt.Add(i, uri); err != nil {
				fatalf("-proxy: shard %d: %v", i, err)
			}
		}
	}
	var reg *obs.Registry
	if debugAddr != "" {
		reg = obs.NewRegistry()
	}
	transport := client.NewHTTPTransportTimeout(rpcTimeout)
	transport.Gzip = useGzip
	transport.Metrics = client.NewTransportMetrics(reg)
	co := cluster.NewCoordinator(rt, client.New(transport))
	// a transient burst at a replica is retried in place before it can
	// evict the replica, and an eviction lasts for the proxy's life
	co.Client.Retry = client.DefaultRetryPolicy()
	co.Client.RegisterMetrics(reg)
	co.Metrics = cluster.NewMetrics(reg, rt.NumShards())
	co.SlowLog = obs.NewSlowLog(logger, slowQuery)
	co.OnEvict = func(shard int, uri string, reason error) {
		logger.Warn("replica evicted", "shard", shard, "peer", uri, "err", reason)
	}
	if resultCacheMiB > 0 {
		co.ResultCache = cluster.NewResultCache(int64(resultCacheMiB) << 20)
		co.ResultCache.RegisterMetrics(reg)
		logger.Info("merged-result cache enabled", "mib", resultCacheMiB, "fence", "version vector")
	}

	if debugAddr != "" {
		serveDebug(debugAddr, reg, rt.Validate)
	}

	mux := http.NewServeMux()
	mux.Handle("/xrpc", &cluster.Proxy{Co: co, Gzip: useGzip, Log: logger})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "XRPC scatter-gather proxy over %d shard(s)\n", rt.NumShards())
		for i := 0; i < rt.NumShards(); i++ {
			fmt.Fprintf(w, "shard %d: %s\n", i, strings.Join(rt.Replicas(i), " "))
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("listen %s: %v", addr, err)
	}
	logger.Info(fmt.Sprintf("XRPC proxy over %d shard(s) listening on %s (POST /xrpc)", rt.NumShards(), ln.Addr()))
	fatalf("serve: %v", http.Serve(ln, mux))
}

func loadDocs(peer *core.Peer, dir string, shard, of int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return n, err
		}
		doc := string(text)
		if of > 0 {
			var ranges []cluster.KeyRange
			var locs []cluster.ElemLoc
			doc, ranges, locs, err = cluster.PartitionShardWithMeta(e.Name(), doc, shard, of)
			if err != nil {
				return n, err
			}
			// advertise what this shard contains, so a coordinator can
			// rebuild range metadata from shardInfo instead of trusting
			// a static table; the element-name census rides along so a
			// derived route can prove its container is the only home of
			// the elements it selects
			for _, r := range ranges {
				peer.Server.ShardRanges = append(peer.Server.ShardRanges, r.String())
			}
			for _, l := range locs {
				peer.Server.ShardRanges = append(peer.Server.ShardRanges, l.String())
			}
		}
		if err := peer.LoadDocument(e.Name(), doc); err != nil {
			return n, fmt.Errorf("%s: %w", e.Name(), err)
		}
		n++
	}
	return n, nil
}

func loadModules(peer *core.Peer, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xq") {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return n, err
		}
		if err := peer.RegisterModule(string(text), e.Name()); err != nil {
			return n, fmt.Errorf("%s: %w", e.Name(), err)
		}
		n++
	}
	return n, nil
}
