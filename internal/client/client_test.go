package client_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

const filmModule = `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`

func newServer(t *testing.T) *server.Server {
	t.Helper()
	st := store.New()
	if err := st.LoadXML("filmDB.xml", xmark.PaperFilmDB); err != nil {
		t.Fatal(err)
	}
	reg := modules.NewRegistry()
	if err := reg.Register(filmModule, "http://x.example.org/film.xq"); err != nil {
		t.Fatal(err)
	}
	return server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
}

func TestCallSingle(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", newServer(t))
	cl := client.New(net)
	res, err := cl.CallBulk("xrpc://y", &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := res[0]
	if len(seq) != 2 {
		t.Fatalf("films = %d", len(seq))
	}
	if cl.Requests.Load() != 1 || cl.Sent.Load() == 0 || cl.Received.Load() == 0 {
		t.Errorf("stats = %d/%d/%d", cl.Requests.Load(), cl.Sent.Load(), cl.Received.Load())
	}
	peers := cl.Peers()
	if len(peers) != 1 || peers[0] != "xrpc://y" {
		t.Errorf("peers = %v", peers)
	}
}

// TestFanout pins the one fan-out's contract; run it under -race.
func TestFanout(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("f(%d) failed", i) }
	for _, tc := range []struct {
		name       string
		n          int
		fail       []int // indexes whose f fails
		wantFailed int
	}{
		{"none", 0, nil, -1},
		{"one ok", 1, nil, -1},
		{"one failing", 1, []int{0}, 0},
		{"many ok", 8, nil, -1},
		{"many, one failing", 8, []int{5}, 5},
		{"many, two failing: lower reported", 8, []int{6, 2}, 2},
		{"many, first and last failing", 8, []int{7, 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails := map[int]bool{}
			for _, i := range tc.fail {
				fails[i] = true
			}
			ran := make([]atomic.Bool, tc.n)
			failed, err := client.Fanout(tc.n, func(i int) error {
				ran[i].Store(true)
				if fails[i] {
					return boom(i)
				}
				return nil
			})
			if failed != tc.wantFailed {
				t.Errorf("failed = %d, want %d", failed, tc.wantFailed)
			}
			if tc.wantFailed < 0 && err != nil {
				t.Errorf("err = %v, want nil", err)
			}
			if tc.wantFailed >= 0 && (err == nil || err.Error() != boom(tc.wantFailed).Error()) {
				t.Errorf("err = %v, want %v", err, boom(tc.wantFailed))
			}
			// an early failure cancels nothing: every f ran
			for i := range ran {
				if !ran[i].Load() {
					t.Errorf("f(%d) never ran", i)
				}
			}
		})
	}

	// the higher index failing first in time does not change the answer
	failed, err := client.Fanout(4, func(i int) error {
		if i == 1 {
			time.Sleep(5 * time.Millisecond)
		}
		if i == 1 || i == 3 {
			return boom(i)
		}
		return nil
	})
	if failed != 1 || err == nil || err.Error() != boom(1).Error() {
		t.Errorf("late low failure: failed = %d, err = %v; want 1, %v", failed, err, boom(1))
	}

	// n == 1 runs f on the caller's goroutine
	caller := goroutineID()
	var ranOn uint64
	client.Fanout(1, func(int) error { ranOn = goroutineID(); return nil })
	if ranOn != caller {
		t.Errorf("n == 1 ran on goroutine %d, caller is %d", ranOn, caller)
	}
}

// goroutineID parses the current goroutine's id out of its stack header
// ("goroutine 7 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	line := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(line[:strings.IndexByte(line, ' ')], 10, 64)
	return id
}

// The stats counters are mutated by every CallBulk, and Fanout issues
// CallBulk from one goroutine per destination — plus experiments read
// the counters while a dispatch may still be in flight. Run under -race
// (make race / CI) this pins the counters as data-race-free.
func TestStatsRaceUnderParallelDispatch(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	const peers = 8
	var dests []string
	for p := 0; p < peers; p++ {
		dest := "xrpc://y" + strings.Repeat("y", p)
		net.Register(dest, newServer(t))
		dests = append(dests, dest)
	}
	cl := client.New(net)
	done := make(chan struct{})
	go func() { // concurrent reader, as the experiment harnesses do
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = cl.Requests.Load() + cl.Sent.Load() + cl.Received.Load()
		}
	}()
	res := make([][]xdm.Sequence, peers)
	_, err := client.Fanout(peers, func(p int) (err error) {
		res[p], err = cl.CallBulk(dests[p], &client.BulkRequest{
			ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
			Func: "filmsByActor", Arity: 1,
			Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
		})
		return err
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for p := range res {
		if len(res[p]) != 1 || len(res[p][0]) != 2 {
			t.Fatalf("peer %d: results = %v", p, res[p])
		}
	}
	if got := cl.Requests.Load(); got != peers {
		t.Errorf("requests = %d, want %d", got, peers)
	}
	if cl.Sent.Load() == 0 || cl.Received.Load() == 0 {
		t.Errorf("sent/received = %d/%d", cl.Sent.Load(), cl.Received.Load())
	}
}

func TestResultCountMismatchRejected(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://bad", netsim.HandlerFunc(func(_ string, _ []byte) ([]byte, error) {
		// respond with zero result sequences for a one-call request
		return soap.EncodeResponse(&soap.Response{Module: "m", Method: "f"}), nil
	}))
	cl := client.New(net)
	_, err := cl.CallBulk("xrpc://bad", &client.BulkRequest{
		ModuleURI: "m", Func: "f", Arity: 0,
		Calls: [][]xdm.Sequence{{}},
	})
	if err == nil || !strings.Contains(err.Error(), "results") {
		t.Errorf("err = %v", err)
	}
}

func TestDocResolverCachesFetches(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	srv := newServer(t)
	var fetches atomic.Int64
	net.Register("xrpc://y", netsim.StreamHandlerFunc(func(path string, body []byte) (io.ReadCloser, error) {
		fetches.Add(1)
		return srv.HandleXRPC(path, body)
	}))
	r := &client.DocResolver{Client: client.New(net)}
	for i := 0; i < 5; i++ {
		doc, err := r.Doc("xrpc://y/filmDB.xml")
		if err != nil {
			t.Fatal(err)
		}
		if doc.Kind != xdm.DocumentNode {
			t.Fatalf("kind = %v", doc.Kind)
		}
	}
	if fetches.Load() != 1 {
		t.Errorf("fetches = %d, want 1 (fn:doc is stable within a query)", fetches.Load())
	}
}

func TestDocResolverLocalFallback(t *testing.T) {
	st := store.New()
	if err := st.LoadXML("local.xml", "<a/>"); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	defer snap.Release()
	r := &client.DocResolver{Local: snap, Client: client.New(netsim.NewNetwork(0, 0))}
	if _, err := r.Doc("local.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Doc("missing.xml"); err == nil {
		t.Error("expected error for missing local doc")
	}
	r2 := &client.DocResolver{Client: client.New(netsim.NewNetwork(0, 0))}
	if _, err := r2.Doc("anything.xml"); err == nil {
		t.Error("expected error with no local store")
	}
}

func TestHTTPTransportEndToEnd(t *testing.T) {
	srv := newServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := client.New(client.NewHTTPTransport())
	dest := strings.Replace(ts.URL, "http://", "xrpc://", 1)
	res, err := cl.CallBulk(dest, &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 2 {
		t.Fatalf("films over HTTP = %d", len(res[0]))
	}
}

// TestGzipContentCoding proves the optional gzip content-coding is
// transparent: with gzip on both sides, gzip only on the server, or no
// gzip at all, the decoded response is identical — and when both sides
// negotiate, the bytes on the wire are actually compressed.
func TestGzipContentCoding(t *testing.T) {
	srv := newServer(t)
	srv.Gzip = true

	var rawBytes, gzBytes atomic.Int64
	ts := httptest.NewServer(countingMiddleware(srv, &rawBytes, &gzBytes))
	defer ts.Close()
	dest := strings.Replace(ts.URL, "http://", "xrpc://", 1)

	br := func() *client.BulkRequest {
		b := &client.BulkRequest{
			ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
			Func: "filmsByActor", Arity: 1,
		}
		for i := 0; i < 32; i++ {
			b.Calls = append(b.Calls, []xdm.Sequence{{xdm.String("Sean Connery")}})
		}
		return b
	}

	plain := client.New(client.NewHTTPTransport())
	want, err := plain.CallBulk(dest, br())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := soap.EncodeResponse(&soap.Response{Module: "films", Method: "filmsByActor", Results: want})

	gzipTr := client.NewHTTPTransport()
	gzipTr.Gzip = true
	zipped := client.New(gzipTr)
	got, err := zipped.CallBulk(dest, br())
	if err != nil {
		t.Fatal(err)
	}
	gotBytes := soap.EncodeResponse(&soap.Response{Module: "films", Method: "filmsByActor", Results: got})
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("gzip and plain transports decoded different responses")
	}
	if gzBytes.Load() == 0 {
		t.Fatal("gzip transport sent no gzip-encoded request")
	}
	if gzBytes.Load() >= rawBytes.Load() {
		t.Fatalf("gzip request (%d bytes) not smaller than plain (%d bytes)",
			gzBytes.Load(), rawBytes.Load())
	}

	// server with gzip disabled still accepts gzip requests but answers
	// plain; the client handles both
	srv.Gzip = false
	got2, err := zipped.CallBulk(dest, br())
	if err != nil {
		t.Fatal(err)
	}
	got2Bytes := soap.EncodeResponse(&soap.Response{Module: "films", Method: "filmsByActor", Results: got2})
	if string(got2Bytes) != string(wantBytes) {
		t.Fatal("gzip client against non-gzip server decoded a different response")
	}
}

// countingMiddleware records request body sizes by content coding
// before handing the request to the XRPC server.
func countingMiddleware(next http.Handler, raw, gz *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("Content-Encoding") == "gzip" {
			gz.Add(int64(len(body)))
		} else {
			raw.Add(int64(len(body)))
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
	})
}

func TestHTTPTransportBadDest(t *testing.T) {
	cl := client.New(client.NewHTTPTransport())
	_, err := cl.CallBulk("xrpc://127.0.0.1:1", &client.BulkRequest{ // closed port
		ModuleURI: "m", Func: "f", Arity: 0, Calls: [][]xdm.Sequence{{}},
	})
	if err == nil {
		t.Error("expected connection error")
	}
}
