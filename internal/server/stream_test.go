package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/soap"
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
