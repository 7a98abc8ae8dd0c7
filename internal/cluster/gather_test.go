package cluster

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// planShape is one row family of the differential table: a fixture
// whose reads resolve to one plan shape. The table's other dimensions —
// read API, result cache off / cold / warm / one shard stale — are
// crossed in by runPlanShapeTable.
type planShape struct {
	name   string
	shards []int
	setup  func(t *testing.T, shards int) *shapeFixture
}

type shapeFixture struct {
	// reader builds a coordinator that plans in this shape, with a
	// merged-result cache of cacheBytes (0 = off).
	reader   func(cacheBytes int64) *Coordinator
	requests []*client.BulkRequest
	// strategies[i] is the plan label requests[i] must resolve to — the
	// proof that the row exercises the shape it is named after.
	strategies []string
	// baseline runs br on one unsharded peer, after write if non-nil.
	baseline func(br, write *client.BulkRequest) []byte
	// write is a routed update touching exactly one shard; committing it
	// through writer moves that one shard's fence. Nil when the fixture
	// has no updating function (the stale column is skipped).
	write  *client.BulkRequest
	writer *Coordinator
}

func withCache(co *Coordinator, cacheBytes int64) *Coordinator {
	co.ResultCache = nil
	if cacheBytes > 0 {
		co.ResultCache = NewResultCache(cacheBytes)
	}
	return co
}

func planShapes() []planShape {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)

	// broadcast over auctions.xml: the fixture requests plus randomized
	// bulks (random key subsets, hit and miss, varying call counts)
	auctionShape := planShape{name: "broadcast/auctions", shards: []int{1, 3, 4},
		setup: func(t *testing.T, shards int) *shapeFixture {
			reg := testRegistry(t)
			net := netsim.NewNetwork(0, 0)
			dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions},
				DeployConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			fx := &shapeFixture{
				reader:   func(c int64) *Coordinator { return withCache(dep.Coordinator(), c) },
				requests: []*client.BulkRequest{probeRequest(cfg.Persons), scanRequest()},
				baseline: func(br, _ *client.BulkRequest) []byte { return singlePeerBaseline(t, reg, auctions, br) },
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 12; i++ {
				br := &client.BulkRequest{
					ModuleURI: "functions_b",
					AtHint:    "http://example.org/b.xq",
					Func:      "Q_B3",
					Arity:     1,
				}
				for c := 0; c < 1+rng.Intn(17); c++ {
					// keys beyond cfg.Persons miss every shard: empty sequences
					// must merge identically too
					br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(xmark.PersonID(rng.Intn(cfg.Persons * 2)))}})
				}
				fx.requests = append(fx.requests, br)
			}
			for range fx.requests {
				fx.strategies = append(fx.strategies, "broadcast")
			}
			return fx
		}}

	// persons.xml under three ways of planning getPerson: no route at all,
	// the hand-written route, and the compiler-derived one
	const persons = 17
	personShape := func(name, strategy string, deploy func(*testing.T, *netsim.Network, int) *Deployment,
		reader func(*Deployment, *netsim.Network) *Coordinator) planShape {
		return planShape{name: name, shards: []int{1, 3, 4},
			setup: func(t *testing.T, shards int) *shapeFixture {
				net := netsim.NewNetwork(0, 0)
				dep := deploy(t, net, shards)
				return &shapeFixture{
					reader: func(c int64) *Coordinator { return withCache(reader(dep, net), c) },
					requests: []*client.BulkRequest{
						getPersonRequest("person5"),
						// keys across shards, a repeat, and a key no shard owns
						getPersonRequest("person16", "person0", "person5", "person0", "nosuch", "person9"),
					},
					strategies: []string{strategy, strategy},
					baseline: func(br, write *client.BulkRequest) []byte {
						return singlePersonsBaseline(t, persons, br, write)
					},
					write:  setCityRequest("Staleville", "person5"),
					writer: dep.Coordinator(),
				}
			}}
	}
	registered := func(t *testing.T, net *netsim.Network, shards int) *Deployment {
		return deployPersons(t, net, persons, shards, 1)
	}
	zeroSpec := func(t *testing.T, net *netsim.Network, shards int) *Deployment {
		return deployPersonsZeroSpec(t, net, persons, shards, 0)
	}
	viaDeployment := func(dep *Deployment, _ *netsim.Network) *Coordinator { return dep.Coordinator() }
	routeless := func(dep *Deployment, net *netsim.Network) *Coordinator {
		return NewCoordinator(dep.Table, client.New(net))
	}

	// items.xml, zero specs: a derived range predicate over codepoint-
	// ordered keys. Shards hold k10-14, k15-19, k20-24, k25-29.
	itemShape := planShape{name: "pruned-derived-range", shards: []int{4},
		setup: func(t *testing.T, shards int) *shapeFixture {
			reg := modules.NewRegistry()
			if err := reg.Register(itemsModule, "http://example.org/i.xq"); err != nil {
				t.Fatal(err)
			}
			net := netsim.NewNetwork(0, 0)
			dep, err := Deploy(net, reg, map[string]string{"items.xml": itemsXML(20)},
				DeployConfig{Shards: shards, Replication: 1})
			if err != nil {
				t.Fatal(err)
			}
			write := itemsFromRequest()
			write.Func, write.Arity, write.Updating = "setV", 2, true
			write.Calls = [][]xdm.Sequence{{{xdm.String("k27")}, {xdm.String("changed")}}}
			return &shapeFixture{
				reader: func(c int64) *Coordinator { return withCache(dep.Coordinator(), c) },
				requests: []*client.BulkRequest{
					itemsFromRequest("k20", "k35"), // mixed: one call on two shards, one on none
					itemsFromRequest("k25"),        // range-pruned to the last shard
					itemsFromRequest("k17"),        // range-pruned to three shards
				},
				strategies: []string{"pruned", "routed", "pruned"},
				baseline: func(br, write *client.BulkRequest) []byte {
					return singleDocBaseline(t, reg, "items.xml", itemsXML(20), br, write)
				},
				write:  write,
				writer: dep.Coordinator(),
			}
		}}

	return []planShape{
		auctionShape,
		personShape("broadcast", "broadcast", registered, routeless),
		personShape("routed-registered", "routed", registered, viaDeployment),
		personShape("routed-derived", "routed", zeroSpec, viaDeployment),
		itemShape,
	}
}

// runPlanShapeTable crosses every plan shape with the result cache off,
// cold, warm and — after a commit on one shard — one shard stale, for
// one read API. Every cell must be byte-identical to ScatterBuffered
// (the executable reference over the same plan) and to the single-peer
// baseline.
func runPlanShapeTable(t *testing.T, read func(co *Coordinator, br *client.BulkRequest) ([]byte, error)) {
	for _, shape := range planShapes() {
		for _, shards := range shape.shards {
			for ri := 0; ; ri++ {
				// a write dirties the deployment: a fresh one per request
				fx := shape.setup(t, shards)
				if ri == len(fx.requests) {
					break
				}
				br := fx.requests[ri]
				cell := fmt.Sprintf("%s, %d shards, request %d", shape.name, shards, ri)
				plain, cached := fx.reader(0), fx.reader(1<<20)
				dec := plain.plan(br)
				if dec.strategy != fx.strategies[ri] {
					t.Fatalf("%s: planned %q, want %q", cell, dec.strategy, fx.strategies[ri])
				}
				// only a plan that contacts two or more shards consults the cache
				multi := len(dec.parts) >= 2

				check := func(state string, write *client.BulkRequest) {
					t.Helper()
					want := fx.baseline(br, write)
					ref, err := plain.ScatterBuffered(br)
					if err != nil {
						t.Fatalf("%s, %s: %v", cell, state, err)
					}
					if !bytes.Equal(encodeResults(br, ref), want) {
						t.Fatalf("%s, %s: buffered reference differs from single-peer baseline", cell, state)
					}
					for _, co := range []*Coordinator{plain, cached} {
						got, err := read(co, br)
						if err != nil {
							t.Fatalf("%s, %s: %v", cell, state, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s, %s (cache on: %v): differs from buffered reference and baseline",
								cell, state, co.ResultCache != nil)
						}
					}
				}
				check("cold", nil)
				check("warm", nil)
				st := cached.ResultCache.Stats()
				if multi && (st.Hits != 1 || st.Misses != 1) || !multi && st != (ResultCacheStats{}) {
					t.Fatalf("%s: cache stats after cold+warm = %+v (multi-shard plan: %v)", cell, st, multi)
				}
				if fx.write == nil {
					continue
				}
				if _, err := fx.writer.Update(fx.write); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				check("one shard stale", fx.write)
				if st := cached.ResultCache.Stats(); multi && st.PartialHits != 1 {
					t.Fatalf("%s: cache stats after the commit = %+v, want 1 partial hit", cell, st)
				}
			}
		}
	}
}

// TestScatterMatchesScatterBuffered pins the read pipeline: the
// incremental shard-order merge must produce byte-identical merged
// responses to the collect-then-concat reference, for every plan shape
// and result-cache state (see runPlanShapeTable).
func TestScatterMatchesScatterBuffered(t *testing.T) {
	runPlanShapeTable(t, func(co *Coordinator, br *client.BulkRequest) ([]byte, error) {
		res, err := co.Scatter(br)
		return encodeResults(br, res), err
	})
}

// TestScatterStreamMatchesBufferedEncoding: the fully-streamed variant
// (merged envelope written incrementally to a sink) must emit exactly
// the bytes of encoding the buffered scatter's result, over the same
// table.
func TestScatterStreamMatchesBufferedEncoding(t *testing.T) {
	runPlanShapeTable(t, func(co *Coordinator, br *client.BulkRequest) ([]byte, error) {
		var out bytes.Buffer
		if err := co.ScatterStream(br, &out); err != nil {
			return nil, err
		}
		// the streamed envelope is a well-formed response
		if _, err := soap.DecodeResponse(out.Bytes()); err != nil {
			return nil, fmt.Errorf("ScatterStream output does not decode: %w", err)
		}
		return out.Bytes(), nil
	})
}

// TestScatterStreamPrunedRoute: a pruned plan (per-shard call subsets)
// streams through the same merge and stays identical.
func TestScatterStreamPrunedRoute(t *testing.T) {
	const persons = 17
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, persons, 3, 1)
	co := dep.Coordinator()
	br := getPersonRequest("person16", "person0", "person5", "nosuch", "person9")
	buffered, err := co.ScatterBuffered(br)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := co.ScatterStream(br, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), encodeResults(br, buffered)) {
		t.Fatal("pruned ScatterStream differs from buffered reference")
	}
}

// encodeSOAPRequest renders br as the request envelope a foreign client
// would post.
func encodeSOAPRequest(br *client.BulkRequest) []byte {
	return soap.EncodeRequest(&soap.Request{
		Module: br.ModuleURI, Method: br.Func, Arity: br.Arity,
		Location: br.AtHint, Calls: br.Calls, Updating: br.Updating,
	})
}

// crashAfter replaces shard's primary with a peer that streams the first
// keep(len) bytes of its real response to br, then dies.
func crashAfter(t *testing.T, net *netsim.Network, dep *Deployment, shard int, br *client.BulkRequest, keep func(n int) int) {
	t.Helper()
	full, err := net.Send(dep.Table.Primary(shard), client.XRPCPath, encodeSOAPRequest(br))
	if err != nil {
		t.Fatal(err)
	}
	net.Register(dep.Table.Primary(shard), netsim.StreamHandlerFunc(func(_ string, _ []byte) (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() {
			pw.Write(full[:keep(len(full))])
			pw.CloseWithError(errors.New("shard process crashed"))
		}()
		return pr, nil
	}))
}

// TestScatterStreamShardTruncation: a shard dying mid-envelope must
// surface as that shard's error, not as a silently short merge — on a
// broadcast plan and on a routed one (the single part of a pruned plan
// streams like any other).
func TestScatterStreamShardTruncation(t *testing.T) {
	half := func(n int) int { return n / 2 }
	t.Run("broadcast", func(t *testing.T) {
		net := netsim.NewNetwork(0, 0)
		dep, err := Deploy(net, testRegistry(t), map[string]string{
			"auctions.xml": "<site><closed_auctions><closed_auction><price>1</price></closed_auction><closed_auction><price>2</price></closed_auction></closed_auctions></site>",
		}, DeployConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		// shard 1's peer streams half a valid response, then dies
		crashAfter(t, net, dep, 1, scanRequest(), half)
		_, err = dep.Coordinator().Scatter(scanRequest())
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("err = %v, want a shard 1 failure", err)
		}
	})
	t.Run("routed", func(t *testing.T) {
		net := netsim.NewNetwork(0, 0)
		dep := deployPersons(t, net, 8, 2, 1)
		co := dep.Coordinator()
		br := getPersonRequest("person6") // shard 1 ([4,8)) only
		if dec := co.plan(br); dec.strategy != "routed" || len(dec.parts) != 1 || dec.parts[0].shard != 1 {
			t.Fatalf("plan = %s over %d parts, want routed to shard 1", dec.strategy, len(dec.parts))
		}
		crashAfter(t, net, dep, 1, br, half)
		_, err := co.Scatter(br)
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("Scatter err = %v, want a shard 1 failure", err)
		}
		// streamed, the failure must truncate the envelope, never shorten
		// the result: an error, and no well-formed response in the sink
		var out bytes.Buffer
		err = co.ScatterStream(br, &out)
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("ScatterStream err = %v, want a shard 1 failure", err)
		}
		if _, derr := soap.DecodeResponse(out.Bytes()); derr == nil {
			t.Fatal("ScatterStream left a complete-looking envelope behind a mid-stream failure")
		}
	})
}

// TestProxyStreamsMergedResponse drives the whole pipeline over real
// HTTP: client → proxy → scatter → incremental merge → chunked response
// → streaming client decode.
func TestProxyStreamsMergedResponse(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	br := probeRequest(cfg.Persons)
	want := singlePeerBaseline(t, reg, auctions, br)

	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, reg, map[string]string{"auctions.xml": auctions}, DeployConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(&Proxy{Co: dep.Coordinator()})
	defer hs.Close()

	tr := client.NewHTTPTransport()
	body := soap.EncodeRequest(&soap.Request{
		Module: br.ModuleURI, Method: br.Func, Arity: br.Arity,
		Location: br.AtHint, Calls: br.Calls,
	})
	rc, err := tr.SendStream(hs.URL, client.XRPCPath, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := soap.DecodeResponseStream(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(br, resp.Results), want) {
		t.Fatal("proxied cluster response differs from single-peer baseline")
	}

	// errors before any output arrive as clean fault envelopes
	rc, err = tr.SendStream(hs.URL, client.XRPCPath, soap.EncodeRequest(&soap.Request{
		Module: "no-such-module", Method: "f", Arity: 0, Calls: [][]xdm.Sequence{{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = soap.DecodeResponseStream(rc)
	rc.Close()
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want a SOAP fault envelope", err)
	}
}

// TestProxyAcceptsGzipRequests: the proxy takes requests in and answers
// them as a peer does, so a client with gzip on gets through it the
// answer an unsharded peer gives, and the answer is gzipped exactly when
// the proxy is configured for it and the client accepts it.
func TestProxyAcceptsGzipRequests(t *testing.T) {
	cfg := xmark.PaperConfig(0.05)
	auctions := xmark.GenerateAuctions(cfg)
	reg := testRegistry(t)
	br := probeRequest(cfg.Persons)
	want := singlePeerBaseline(t, reg, auctions, br)

	dep, err := Deploy(netsim.NewNetwork(0, 0), reg, map[string]string{"auctions.xml": auctions}, DeployConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ proxyGzip, clientGzip bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		t.Run(fmt.Sprintf("proxy gzip %v client gzip %v", c.proxyGzip, c.clientGzip), func(t *testing.T) {
			hs := httptest.NewServer(&Proxy{Co: dep.Coordinator(), Gzip: c.proxyGzip})
			defer hs.Close()
			tr, encoding := encodingRecorder()
			tr.Gzip = c.clientGzip
			res, err := client.New(tr).CallBulk(hs.URL, br)
			if err != nil {
				t.Fatalf("request through the proxy: %v", err)
			}
			if !bytes.Equal(encodeResults(br, res), want) {
				t.Fatal("proxied response differs from the single-peer baseline")
			}
			wantEnc := ""
			if c.proxyGzip && c.clientGzip {
				wantEnc = "gzip"
			}
			if *encoding != wantEnc {
				t.Fatalf("response Content-Encoding %q, want %q", *encoding, wantEnc)
			}
		})
	}
}

// encodingRecorder returns an HTTP transport that asks for no
// compression of its own and the place where it notes the
// Content-Encoding of the last response it received.
func encodingRecorder() (*client.HTTPTransport, *string) {
	var enc string
	inner := &http.Transport{DisableCompression: true}
	tr := client.NewHTTPTransport()
	tr.Client = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := inner.RoundTrip(r)
		if err == nil {
			enc = resp.Header.Get("Content-Encoding")
		}
		return resp, err
	})}
	return tr, &enc
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestProxyFaultsLikeAPeer: the proxy answers a failure with the fault
// a peer would give. Over one unsharded peer, a request the peer faults
// faults identically through the proxy, code and reason; a failure the
// proxy raises itself is classed by the peer's rule (an XRPC error is
// the sender's).
func TestProxyFaultsLikeAPeer(t *testing.T) {
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(xmark.Config{Persons: 10, Seed: 11})); err != nil {
		t.Fatal(err)
	}
	reg := personsRegistry(t)
	peer := httptest.NewServer(server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg)))
	defer peer.Close()
	rt, err := NewRoutingTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(0, peer.URL); err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(&Proxy{Co: NewCoordinator(rt, client.New(client.NewHTTPTransport()))})
	defer proxy.Close()

	fault := func(t *testing.T, url string, body []byte) *soap.Fault {
		t.Helper()
		resp, err := http.Post(url+client.XRPCPath, "application/soap+xml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, err = soap.DecodeResponseStream(resp.Body)
		var f *soap.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s answered %v, want a Fault", url, err)
		}
		return f
	}
	for _, c := range []struct {
		name string
		body []byte
		// peerFaults: the peer answers body with a fault of its own,
		// which the proxy's must equal
		peerFaults bool
		code, xrpc string
	}{
		{"unknown module", encodeSOAPRequest(&client.BulkRequest{ModuleURI: "no-such-module", Func: "f", Calls: [][]xdm.Sequence{{}}}),
			true, "env:Sender", "XRPC0007"},
		{"updating function with no route", encodeSOAPRequest(setCityRequest("Oslo", "person1")),
			false, "env:Sender", "XRPC0007"},
		{"malformed envelope", []byte("<env:Envelope><env:Body>"),
			true, "env:Sender", "XRPC0003"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := fault(t, proxy.URL, c.body)
			if got.Code != c.code || !strings.Contains(got.Reason, c.xrpc) {
				t.Fatalf("proxy fault %s %q, want %s naming %s", got.Code, got.Reason, c.code, c.xrpc)
			}
			if c.peerFaults {
				if want := fault(t, peer.URL, c.body); *got != *want {
					t.Fatalf("proxy fault %s %q, the peer's %s %q", got.Code, got.Reason, want.Code, want.Reason)
				}
			}
		})
	}
}

// TestProxyAbortsOnMidStreamFailure: once merged bytes are on the wire
// a shard failure must terminate the connection abnormally, so the
// client sees truncation instead of a complete-looking partial result —
// whether the plan is a broadcast or routed to the one failing shard,
// and whether the answer is plain or gzipped (no gzip trailer may close
// a cut stream).
func TestProxyAbortsOnMidStreamFailure(t *testing.T) {
	nearEnd := func(n int) int { return n - 200 }
	check := func(t *testing.T, co *Coordinator, br *client.BulkRequest) {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("gzip %v", gz), func(t *testing.T) {
				hs := httptest.NewServer(&Proxy{Co: co, Gzip: gz})
				defer hs.Close()
				req, err := http.NewRequest(http.MethodPost, hs.URL+client.XRPCPath, bytes.NewReader(encodeSOAPRequest(br)))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Accept-Encoding", "gzip")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if enc := resp.Header.Get("Content-Encoding"); gz != (enc == "gzip") {
					t.Fatalf("Gzip %v proxy answered with Content-Encoding %q", gz, enc)
				}
				read := func() error {
					if !gz {
						_, err := io.ReadAll(resp.Body)
						return err
					}
					zr, err := gzip.NewReader(resp.Body)
					if err == nil {
						_, err = io.ReadAll(zr)
					}
					return err
				}
				if read() == nil {
					t.Fatal("mid-stream shard failure delivered a clean (truncated) response body")
				}
			})
		}
	}
	t.Run("broadcast", func(t *testing.T) {
		net := netsim.NewNetwork(0, 0)
		big := &strings.Builder{}
		big.WriteString("<site><closed_auctions>")
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(big, "<closed_auction><price>%d</price></closed_auction>", i)
		}
		big.WriteString("</closed_auctions></site>")
		dep, err := Deploy(net, testRegistry(t), map[string]string{"auctions.xml": big.String()}, DeployConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		// shard 0 streams enough of a response that the proxy starts
		// emitting merged output, then crashes
		crashAfter(t, net, dep, 0, scanRequest(), nearEnd)
		check(t, dep.Coordinator(), scanRequest())
	})
	t.Run("routed", func(t *testing.T) {
		net := netsim.NewNetwork(0, 0)
		dep := deployPersons(t, net, 1200, 2, 1)
		co := dep.Coordinator()
		// 400 probes, every one owned by shard 0 ([0,600)): one part,
		// whose response is several encoder chunks long
		var pids []string
		for i := 0; i < 400; i++ {
			pids = append(pids, xmark.PersonID(i))
		}
		br := getPersonRequest(pids...)
		if dec := co.plan(br); dec.strategy != "routed" || len(dec.parts) != 1 || dec.parts[0].shard != 0 {
			t.Fatalf("plan = %s over %d parts, want routed to shard 0", dec.strategy, len(dec.parts))
		}
		crashAfter(t, net, dep, 0, br, nearEnd)
		check(t, co, br)
	})
}

// TestProxyValidationBoundary pins what a proxy that splices shard bytes
// still checks and what it leaves to whoever decodes them. A shard
// stream that cannot be walked — truncated, unbalanced, not well formed,
// a wrapper of unknown name, more results than calls — is rejected by
// the proxy as before: a clean Fault while nothing has been written, a
// connection abort once merged bytes are out. What only building the
// value checks — the lexical form of a typed atomic — reaches the client,
// whose decoder reports it; never a silently shortened result.
func TestProxyValidationBoundary(t *testing.T) {
	good := soap.NewEncoder()
	good.EncodeItem(xdm.String(strings.Repeat("x", 1024)))
	item := string(good.Copy())
	good.Release()
	const filler = 3 * soap.DefaultStreamChunk / 1024 // items that make the proxy flush before the bad one

	for _, c := range []struct {
		name string
		tail string // what follows the good items, through the end of the message
		// what the client's decoder reports when the proxy passes the
		// stream on ("" = the proxy rejects it with this in its Fault)
		atClient, atProxy string
	}{
		{name: "truncated body", tail: `<xrpc:element><a>`, atProxy: "unclosed element"},
		{name: "unbalanced tags", tail: `</xrpc:sequence></x></x></x></x></x></x>`, atProxy: "unbalanced end tag"},
		{name: "not well formed", tail: `<xrpc:element><a b=c/></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`,
			atProxy: "unquoted value"},
		{name: "unknown wrapper", tail: `<xrpc:bogus/></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`,
			atProxy: "unknown sequence item element"},
		{name: "result-count mismatch", tail: `</xrpc:sequence><xrpc:sequence></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`,
			atProxy: "2 results for 1 calls"},
		{name: "less-than in a spliced attribute", tail: `<xrpc:element><a b="<"/></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`,
			atProxy: "unescaped <"},
		{name: "invalid UTF-8 in spliced text", tail: "<xrpc:element><a>\xff</a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>",
			atClient: "invalid UTF-8"},
		{name: "lexically invalid atomic", tail: `<xrpc:atomic-value xsi:type="xs:integer">abc</xrpc:atomic-value></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`,
			atClient: `soap: bad atomic value "abc" as xs:integer`},
	} {
		for _, items := range []int{0, filler} {
			t.Run(fmt.Sprintf("%s after %d items", c.name, items), func(t *testing.T) {
				enc := soap.NewEncoder()
				enc.BeginResponse("m", "scan")
				enc.BeginSequence()
				body := string(enc.Copy()) + strings.Repeat(item, items) + c.tail
				enc.Release()

				net := netsim.NewNetwork(0, 0)
				rt, err := NewRoutingTable(1)
				if err != nil {
					t.Fatal(err)
				}
				net.Register("xrpc://shard0", netsim.HandlerFunc(func(string, []byte) ([]byte, error) {
					return []byte(body), nil
				}))
				if err := rt.Add(0, "xrpc://shard0"); err != nil {
					t.Fatal(err)
				}
				hs := httptest.NewServer(&Proxy{Co: NewCoordinator(rt, client.New(net))})
				defer hs.Close()

				br := &client.BulkRequest{ModuleURI: "m", Func: "scan", Arity: 0, Calls: [][]xdm.Sequence{{}}}
				res, err := client.New(client.NewHTTPTransport()).CallBulk(hs.URL, br)
				if err == nil {
					t.Fatalf("client got %d item(s) and no error from a malformed shard stream", len(res[0]))
				}
				var fault *soap.Fault
				switch {
				case c.atClient != "":
					// passed through whole; the client's decoder rejects it
					if errors.As(err, &fault) || !strings.Contains(err.Error(), c.atClient) {
						t.Fatalf("client err = %v, want its own decoder's %q", err, c.atClient)
					}
				case items == 0:
					// nothing written yet: a clean Fault naming the cause
					if !errors.As(err, &fault) || !strings.Contains(fault.Reason, c.atProxy) {
						t.Fatalf("client err = %v, want a Fault containing %q", err, c.atProxy)
					}
				default:
					// merged bytes already out: the connection is aborted,
					// and the client sees truncation
					if errors.As(err, &fault) || strings.Contains(err.Error(), "bad atomic") {
						t.Fatalf("client err = %v, want an aborted connection", err)
					}
				}
			})
		}
	}
}

// ------------------------------------------------- bounded-memory smoke

// syntheticShard produces a response of approximately size bytes (one
// call, many ~1 KiB string items) through the stream encoder — the
// response never exists as one buffer on the producer side either.
func syntheticShard(size int64) netsim.StreamHandlerFunc {
	return netsim.StreamHandlerFunc(func(_ string, body []byte) (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() {
			item := xdm.String(strings.Repeat("x", 1024))
			enc := soap.NewStreamEncoder(pw, 0)
			enc.BeginResponse("m", "scan")
			enc.BeginSequence()
			size := size
			if bytes.Contains(body, []byte("shardInfo")) {
				// a result-cache fence probe: a constant fence, no scan
				enc.EncodeItem(xdm.String(server.VersionItem(1)))
				enc.EncodeItem(xdm.String(server.GenerationItem(1)))
				size = 0
			}
			for n := int64(0); n < size && enc.Err() == nil; n += 1024 {
				enc.EncodeItem(item)
			}
			enc.EndSequence()
			enc.EndResponse(nil)
			err := enc.Flush()
			enc.Release()
			pw.CloseWithError(err)
		}()
		return pr, nil
	})
}

// heapPeak samples HeapAlloc while f runs and returns the high-water
// mark observed.
func heapPeak(f func()) uint64 {
	runtime.GC()
	stop := make(chan struct{})
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := peak.Load()
			if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
				break
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	sample()
	f()
	sample()
	close(stop)
	<-done
	return peak.Load()
}

// TestScatterStreamBoundedMemory is the GOMEMLIMIT smoke: the
// coordinator scans a synthetic result much larger than any sane heap
// budget for it, and its peak heap must stay flat as the result grows.
// `make memsmoke` runs it under GOMEMLIMIT=64MiB with
// XRPC_MEMSMOKE_BYTES=268435456 (a 256 MiB scan, 4x the cap): if the
// merge buffered anything proportional to the response, the runtime
// would be forced into OOM-adjacent thrash instead of finishing. The
// same assertion holds for every plan shape and with the result cache
// on: a scan pruned by a registered route to one of the four shards
// (which then produces the whole result alone), and the broadcast scan
// through a ResultCache whose budget is far below the result.
func TestScatterStreamBoundedMemory(t *testing.T) {
	total := int64(32 << 20)
	if s := os.Getenv("XRPC_MEMSMOKE_BYTES"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("XRPC_MEMSMOKE_BYTES = %q: %v", s, err)
		}
		total = v
	}
	const shards = 4
	// each shard stream holds one scanner window in coordinator memory:
	// the longest span it holds whole is one item wrapper (a 1 KiB
	// string, under 2 KiB wrapped) and a read returns at most one
	// encoder chunk
	scanner := uint64(xdm.WindowBound(2<<10, soap.DefaultStreamChunk))

	for _, c := range []struct {
		name       string
		pruned     bool
		cacheBytes int64
	}{
		{name: "broadcast"},
		{name: "pruned to one shard", pruned: true},
		{name: "broadcast, small result cache", cacheBytes: 1 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(size int64) (peak uint64, streamed int64) {
				net := netsim.NewNetwork(0, 0)
				rt, err := NewRoutingTable(shards)
				if err != nil {
					t.Fatal(err)
				}
				perShard := size / shards
				if c.pruned {
					perShard = size // the one contacted shard produces it all
				}
				for s := 0; s < shards; s++ {
					uri := fmt.Sprintf("xrpc://shard%d", s)
					net.Register(uri, syntheticShard(perShard))
					if err := rt.Add(s, uri); err != nil {
						t.Fatal(err)
					}
					// shard s holds keys k<s>0..k<s>9 of a keyed container
					if err := rt.SetRanges(s, []KeyRange{{
						Doc: "d.xml", Path: "/r/e", Lo: s * 10, Hi: (s + 1) * 10,
						Keyed: true, KeyAttr: "id",
						MinKey: fmt.Sprintf("k%d0", s), MaxKey: fmt.Sprintf("k%d9", s),
					}}); err != nil {
						t.Fatal(err)
					}
				}
				co := NewCoordinator(rt, client.New(net))
				br := &client.BulkRequest{ModuleURI: "m", Func: "scan", Arity: 0, Calls: [][]xdm.Sequence{{}}}
				if c.pruned {
					co.Route(RouteSpec{ModuleURI: "m", Func: "scan", KeyArg: 0, Doc: "d.xml", Path: "/r/e"})
					br.Arity, br.Calls = 1, [][]xdm.Sequence{{{xdm.String("k25")}}}
					if dec := co.plan(br); dec.strategy != "routed" || len(dec.parts) != 1 {
						t.Fatalf("plan = %s over %d parts, want routed to 1 shard", dec.strategy, len(dec.parts))
					}
				}
				if c.cacheBytes > 0 {
					co.ResultCache = NewResultCache(c.cacheBytes)
				}
				var n int64
				peak = heapPeak(func() {
					cw := &countWriter{n: &n}
					if err := co.ScatterStream(br, cw); err != nil {
						t.Fatal(err)
					}
				})
				if c.cacheBytes > 0 {
					// the cache stage ran (one miss) and stored nothing: the
					// result outgrew the budget, so retaining stopped
					if st := co.ResultCache.Stats(); st.Misses != 1 || st.Entries != 0 {
						t.Fatalf("result cache stats = %+v, want 1 miss and no entry", st)
					}
				}
				return peak, n
			}

			peakSmall, _ := run(total / 4)
			peakFull, streamed := run(total)
			t.Logf("streamed %d MiB merged response; peak heap: %d MiB at quarter size, %d MiB at full size",
				streamed>>20, peakSmall>>20, peakFull>>20)
			if streamed < total {
				t.Fatalf("merged response only %d bytes, want >= %d", streamed, total)
			}
			// flat: quadrupling the response must not move the peak by more
			// than the scanner windows and a generous constant —
			// O(shards × scanner window), not O(result)
			flatBudget := peakSmall + shards*scanner + (16 << 20)
			if peakFull > flatBudget {
				t.Fatalf("peak heap grows with result size: %d at %d bytes vs %d at %d bytes",
					peakFull, total, peakSmall, total/4)
			}
		})
	}
}

// TestScatterStreamAllocBytes: a shard stream is read straight off its
// transport, so a small single-call read allocates per op what its
// decoders, envelopes and the shards' own execution need — no read-ahead
// buffer per shard on top.
func TestScatterStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops inflate allocation")
	}
	net := netsim.NewNetwork(0, 0)
	dep, err := Deploy(net, testRegistry(t), map[string]string{"auctions.xml": "<site><closed_auctions><closed_auction/><closed_auction/><closed_auction/></closed_auctions></site>"},
		DeployConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	co := dep.Coordinator()
	br := scanRequest()
	read := func() {
		if err := co.ScatterStream(br, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the shards' plans and the pools
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B allocated per single-call read over 2 shards", perOp)
	if perOp >= 32<<10 {
		t.Fatalf("a single-call read over 2 shards allocates %d B, want < 32 KiB", perOp)
	}
}

type countWriter struct{ n *int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	*c.n += int64(len(p))
	return len(p), nil
}
