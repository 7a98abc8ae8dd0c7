// Package benchmark is the repository's one repeatable end-to-end
// benchmark: it assembles the full XRPC system in one process over real
// loopback HTTP — query peer Q → cluster.Proxy → two shard servers — and
// drives four closed-loop workloads through it with one client. See
// README.md in this directory for how to run it and read its output.
package benchmark

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/core"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/planner"
)

// Peer URIs of the system under test. They are fixed names, resolved to
// the kernel-chosen loopback ports by the dial map of each transport, so
// query texts and envelopes — and with them wire_bytes_per_op — do not
// depend on which ports a run happened to get.
const (
	proxyURI    = "xrpc://proxy"
	shardPrefix = "xrpc://shard"
	numShards   = 2
)

// deployment is one of the two system configurations the workloads run
// on.
type deployment struct {
	// docs are the documents partitioned over the shards.
	docs map[string]string
	// qDocs are the documents held by the query peer Q.
	qDocs map[string]string
	// module is the library module registered at Q and at every shard,
	// under the location hint moduleHint.
	module, moduleHint string
	// caches turns on the shard response caches and the coordinator's
	// merged-result cache with these byte budgets (0 = off).
	respCacheBytes, resultCacheBytes int64
	// walRoot, when non-empty, makes the shards durable under it.
	walRoot string
}

// system is the assembled topology: Q → proxy → shards over loopback
// HTTP. Every seam the tracer records at is wrapped here once; with
// tracing off a wrapper costs one atomic load.
type system struct {
	q     *core.Peer
	dep   *cluster.Deployment
	co    *cluster.Coordinator
	execs []*tracedExecutor // one per shard, in shard order
	// qWire and proxyWire meter the two client hops.
	qWire, proxyWire *meteredTransport
	// foreign is a plain SOAP client aimed at the proxy through Q's
	// metered transport — the interoperability driver of update_mix.
	foreign *client.Client
	// proxyAddr is the proxy's loopback listener address.
	proxyAddr string

	servers []*http.Server
	serving sync.WaitGroup // the servers' Serve goroutines
}

// dialMap resolves the fixed peer host names to loopback listeners.
type dialMap map[string]string

func (m dialMap) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	target, ok := m[addr]
	if !ok {
		return nil, fmt.Errorf("benchmark: no listener for %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, target)
}

// newHTTPTransport is client.NewHTTPTransport with the dial map in
// place of DNS: keep-alive connections, no whole-request deadline.
func newHTTPTransport(m dialMap) *client.HTTPTransport {
	return &client.HTTPTransport{
		Client: &http.Client{Transport: &http.Transport{
			DialContext:           m.dial,
			ResponseHeaderTimeout: client.DefaultHTTPTimeout,
			MaxIdleConnsPerHost:   4,
			IdleConnTimeout:       90 * time.Second,
		}},
		IdleTimeout: client.DefaultHTTPTimeout,
	}
}

// hostOf turns "xrpc://name" into the "name:80" the HTTP stack dials.
func hostOf(uri string) string { return uri[len("xrpc://"):] + ":80" }

// serve starts an HTTP server for h on a kernel-chosen loopback port and
// records it for shutdown.
func (sys *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/xrpc", h)
	srv := &http.Server{Handler: mux}
	sys.servers = append(sys.servers, srv)
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		srv.Serve(ln) // returns once close() shuts the server down
	}()
	return ln.Addr().String(), nil
}

// newSystem partitions d's documents over two shard servers, puts a
// planner-equipped coordinator behind a cluster.Proxy in front of them,
// and points a loop-lifting query peer at the proxy — each hop a real
// HTTP exchange over the kernel's loopback.
func newSystem(d *deployment, tr *tracer) (*system, error) {
	sys := &system{}
	reg := modules.NewRegistry()
	if err := reg.Register(d.module, d.moduleHint); err != nil {
		return nil, err
	}
	// Deploy builds the shard servers (partition, load, caches, WAL) and
	// the routing table with the partitioner's range and census metadata;
	// its netsim network is never sent on — the shards are reached over
	// HTTP below
	dep, err := cluster.Deploy(netsim.NewNetwork(0, 0), reg, d.docs, cluster.DeployConfig{
		Shards:         numShards,
		URIPrefix:      shardPrefix,
		RespCacheBytes: d.respCacheBytes,
		WALRoot:        d.walRoot,
	})
	if err != nil {
		return nil, err
	}
	sys.dep = dep

	names := dialMap{}
	for s := 0; s < numShards; s++ {
		srv := dep.Servers[s][0]
		ex := &tracedExecutor{inner: srv.Exec, tr: tr, shard: s}
		srv.Exec = ex
		sys.execs = append(sys.execs, ex)
		addr, err := sys.serve(&tracedHandler{inner: srv, tr: tr, layer: layerServer, shard: s})
		if err != nil {
			sys.close()
			return nil, err
		}
		names[hostOf(dep.Table.Primary(s))] = addr
	}

	sys.proxyWire = &meteredTransport{inner: newHTTPTransport(names), tr: tr, layer: layerProxySend}
	co := cluster.NewCoordinator(dep.Table, client.New(sys.proxyWire))
	co.Planner = planner.New(reg)
	if d.resultCacheBytes > 0 {
		co.ResultCache = cluster.NewResultCache(d.resultCacheBytes)
	}
	sys.co = co
	addr, err := sys.serve(&tracedHandler{inner: &cluster.Proxy{Co: co}, tr: tr, layer: layerProxy, shard: -1})
	if err != nil {
		sys.close()
		return nil, err
	}

	sys.proxyAddr = addr
	sys.qWire = &meteredTransport{inner: newHTTPTransport(dialMap{hostOf(proxyURI): addr}), tr: tr, layer: layerQSend}
	sys.q = core.NewPeer("xrpc://Q", sys.qWire)
	if err := sys.q.RegisterModule(d.module, d.moduleHint); err != nil {
		sys.close()
		return nil, err
	}
	for name, xml := range d.qDocs {
		if err := sys.q.LoadDocument(name, xml); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.foreign = client.New(sys.qWire)
	return sys, nil
}

// close shuts every listener down, waits for its server to finish, and
// closes the shard WALs.
func (sys *system) close() {
	for _, t := range []*meteredTransport{sys.qWire, sys.proxyWire} {
		if t != nil {
			t.inner.(*client.HTTPTransport).Client.CloseIdleConnections()
		}
	}
	for _, srv := range sys.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		cancel()
	}
	sys.serving.Wait()
	sys.dep.Close()
}

// wireBytes is the request+response body bytes sent over every hop so
// far.
func (sys *system) wireBytes() int64 {
	return sys.qWire.bytes.Load() + sys.proxyWire.bytes.Load()
}

// walRootDir creates a fresh WAL root for one set-up. The benchmark may
// write only inside its checkout, so the directory lives under
// .bench_build in the working directory; kind names the filesystem it
// landed on, because fsync cost is part of update_mix's latency.
func walRootDir() (dir, kind string, err error) {
	base := filepath.Join(".bench_build", "xrpcbm-wal")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(base, "run-")
	if err != nil {
		return "", "", err
	}
	return dir, fsKind(dir), nil
}
