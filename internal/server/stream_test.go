package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
)

var _ netsim.Handler = (*Server)(nil)

// handleBuffered is the buffered reference the answer paths are held
// to: one request's response encoded whole into a pooled encoder.
func handleBuffered(s *Server, body []byte) []byte {
	enc := soap.NewEncoder()
	defer enc.Release()
	s.handleInto(enc, body)
	return enc.Copy()
}

// serve posts body to s through its netsim entry and reads the answer
// to its end.
func serve(s *Server, body []byte) ([]byte, error) {
	rc, err := s.HandleXRPC(client.XRPCPath, body)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// TestHandleXRPCStreamByteIdentical pins both answer paths — the netsim
// handler's stream and the HTTP response — against the buffered
// reference for every outcome a request can have: a response envelope,
// a fault envelope, and the fault a malformed body gets.
func TestHandleXRPCStreamByteIdentical(t *testing.T) {
	_, _, y, _ := newCluster(t)
	hs := httptest.NewServer(y.server)
	defer hs.Close()
	bodies := map[string][]byte{
		"response": soap.EncodeRequest(&soap.Request{
			Module: "films", Method: "filmsByActor", Arity: 1,
			Location: "http://x.example.org/film.xq",
			Calls: [][]xdm.Sequence{
				{{xdm.String("Sean Connery")}},
				{{xdm.String("Julie Andrews")}},
			},
		}),
		"fault":     soap.EncodeRequest(&soap.Request{Module: "no-such-module", Method: "f", Arity: 0}),
		"malformed": []byte("this is not soap"),
	}
	// an answer of several encoder chunks: the netsim handler streams it
	// through its pipe instead of serving it from one chunk
	long := make([][]xdm.Sequence, 512)
	for i := range long {
		long[i] = []xdm.Sequence{{xdm.String("Sean Connery")}}
	}
	bodies["long response"] = soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq", Calls: long,
	})
	overHTTP := func(body []byte) ([]byte, error) {
		resp, err := http.Post(hs.URL+client.XRPCPath, "application/soap+xml", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	for name, body := range bodies {
		want := handleBuffered(y.server, body)
		for path, send := range map[string]func([]byte) ([]byte, error){
			"netsim": func(body []byte) ([]byte, error) { return serve(y.server, body) },
			"http":   overHTTP,
		} {
			got, err := send(body)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s over %s differs from the buffered reference\n got: %s\nwant: %s", name, path, got, want)
			}
		}
		if name == "long response" && len(want) <= soap.DefaultStreamChunk {
			t.Fatalf("the long response is %d bytes, not more than one chunk", len(want))
		}
	}
}

// panicExec is an executor whose every request panics.
type panicExec struct{}

func (panicExec) Execute(*soap.Request, []byte, interp.DocResolver, interp.RPCCaller) ([]xdm.Sequence, *interp.UpdateList, *interp.Stats, error) {
	panic("executor failed")
}

// A request whose handling panics has the panic reach the caller of
// HandleXRPC, which runs it, and leaves no snapshot pinned behind: the
// next commit writes the document in place instead of cloning it for
// a reader that is gone.
func TestPanickingRequestReleasesSnapshot(t *testing.T) {
	st := store.New()
	if err := st.LoadXML("filmDB.xml", filmDBY); err != nil {
		t.Fatal(err)
	}
	srv := New(st, modules.NewRegistry(), panicExec{})
	body := soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	func() {
		defer func() {
			if r := recover(); r != "executor failed" {
				t.Fatalf("recovered %v, want the executor's panic", r)
			}
		}()
		srv.HandleXRPC(client.XRPCPath, body)
		t.Fatal("HandleXRPC returned")
	}()
	if err := st.Commit(nil, func(tx *store.Tx) error {
		tx.Writable("filmDB.xml").Children[0].Name = "movies"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if in, cl := st.Commits(); in != 1 || cl != 0 {
		t.Fatalf("commit paths: in place %d, cloned %d, want 1 and 0: the panicking request kept its snapshot", in, cl)
	}
}

// ReadRequest reads a body whose Content-Length is announced into one
// buffer of that size: no regrowth, no second copy.
func TestReadRequestPresized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops inflate allocation")
	}
	body := bytes.Repeat([]byte("<x/>"), 64<<10)
	const runs = 4
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, client.XRPCPath, bytes.NewReader(body))
	}
	w := httptest.NewRecorder()
	read := func(r *http.Request) []byte {
		got, status := ReadRequest(w, r, 0)
		if status != 0 {
			t.Fatalf("status %d", status)
		}
		return got
	}
	read(reqs[runs])
	var got []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, r := range reqs[:runs] {
		got = read(r)
	}
	runtime.ReadMemStats(&ms1)
	if !bytes.Equal(got, body) {
		t.Fatal("the body read differs from the body sent")
	}
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; per > uint64(len(body))+1<<10 {
		t.Fatalf("reading a %d-byte body allocated %d bytes, want one body-sized buffer", len(body), per)
	}
}

// TestHandleXRPCStreamAbandonedReader: a client that closes the stream
// early must not wedge the encoding goroutine.
func TestHandleXRPCStreamAbandonedReader(t *testing.T) {
	_, _, y, _ := newCluster(t)
	// a bulk request big enough that the response cannot fit in the
	// pipe's unread window
	calls := make([][]xdm.Sequence, 512)
	for i := range calls {
		calls[i] = []xdm.Sequence{{xdm.String("Sean Connery")}}
	}
	body := soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    calls,
	})
	rc, err := y.server.HandleXRPC(client.XRPCPath, body)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatal(err)
	}
	rc.Close() // the encoder goroutine's next pipe write fails and it exits
}

// TestServeHTTPStreamsChunks: the HTTP path must emit the envelope
// incrementally (chunked, flushed per encoder chunk), not as one
// buffered write with a Content-Length.
func TestServeHTTPStreamsChunks(t *testing.T) {
	net, _, y, _ := newCluster(t)
	_ = net
	req := &soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	hs := httptest.NewServer(y.server)
	defer hs.Close()

	for _, gzipOn := range []bool{false, true} {
		y.server.Gzip = gzipOn
		tr := client.NewHTTPTransport()
		tr.Gzip = gzipOn
		rc, err := tr.SendStream(hs.URL, client.XRPCPath, soap.EncodeRequest(req))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gzipOn, err)
		}
		resp, err := soap.DecodeResponseStream(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("gzip=%v: %v", gzipOn, err)
		}
		if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
			t.Fatalf("gzip=%v: results = %+v", gzipOn, resp.Results)
		}
	}
	y.server.Gzip = false

	// the raw protocol surface: no Content-Length, transfer is chunked
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", client.XRPCPath, bytes.NewReader(soap.EncodeRequest(req)))
	y.server.ServeHTTP(w, r)
	if cl := w.Header().Get("Content-Length"); cl != "" {
		t.Fatalf("streamed response carries Content-Length %s", cl)
	}
	if got := w.Body.String(); !strings.Contains(got, "xrpc:response") {
		t.Fatalf("response body = %q", got)
	}
}

// TestServeHTTPGzipChunksAreSyncFlushed: every encoder chunk must be
// independently decodable as it arrives (gzip sync flush), otherwise a
// streaming consumer would stall until the gzip stream closes.
func TestServeHTTPGzipChunksAreSyncFlushed(t *testing.T) {
	net, _, y, _ := newCluster(t)
	_ = net
	y.server.Gzip = true
	defer func() { y.server.Gzip = false }()
	req := soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Julie Andrews")}}},
	})
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", client.XRPCPath, bytes.NewReader(req))
	r.Header.Set("Accept-Encoding", "gzip")
	y.server.ServeHTTP(w, r)
	if w.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("response not gzip-encoded")
	}
	gz, err := gzip.NewReader(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soap.DecodeResponse(out); err != nil {
		t.Fatal(err)
	}
}
