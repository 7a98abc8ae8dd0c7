package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

func TestHTTPTransportNon2xxIsAnError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service melting down: "+strings.Repeat("x", 2000), http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	out, err := NewHTTPTransport().Send(hs.URL, "/xrpc", []byte("<req/>"))
	if err == nil {
		t.Fatalf("non-2xx response returned as success payload: %q", out)
	}
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) {
		t.Fatalf("want *HTTPError, got %T: %v", err, err)
	}
	if httpErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", httpErr.StatusCode)
	}
	if !strings.Contains(httpErr.Body, "service melting down") {
		t.Fatalf("error body lost the diagnostic: %q", httpErr.Body)
	}
	if len(httpErr.Body) > errBodyLimit {
		t.Fatalf("error body not truncated: %d bytes", len(httpErr.Body))
	}
}

// A transport with Gzip off gets a plain answer from a peer that gzips:
// neither the transport nor net/http beneath it advertises
// Accept-Encoding: gzip, so the peer does not compress. Both the
// transport NewHTTPTransport builds and the zero value's shared pool.
func TestPlainClientGetsPlainAnswers(t *testing.T) {
	srv := newServer(t)
	srv.Gzip = true
	encodings := make(chan string, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		encodings <- w.Header().Get("Content-Encoding")
	}))
	defer hs.Close()
	body := soap.EncodeRequest(&soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	for name, tr := range map[string]*HTTPTransport{
		"NewHTTPTransport": NewHTTPTransport(),
		"zero value":       {},
	} {
		out, err := tr.Send(hs.URL, XRPCPath, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ce := <-encodings; ce != "" {
			t.Errorf("%s: the peer answered with Content-Encoding %q", name, ce)
		}
		resp, err := soap.DecodeResponse(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Results) != 1 || len(resp.Results[0]) != 2 {
			t.Errorf("%s: results = %+v", name, resp.Results)
		}
	}
}

func TestHTTPTransportReusesConnections(t *testing.T) {
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<resp/>"))
	}))
	hs.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	tr := NewHTTPTransport()
	for i := 0; i < 8; i++ {
		if _, err := tr.Send(hs.URL, "/xrpc", []byte("<req/>")); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("8 sequential sends used %d connections, want 1 (keep-alive pool)", got)
	}
}

func TestHTTPTransportConfigurableTimeout(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hs.Close()
	defer close(release) // unblock the handler before hs.Close waits on it

	tr := NewHTTPTransportTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := tr.Send(hs.URL, "/xrpc", []byte("<req/>"))
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not honored: took %v", elapsed)
	}
}

func TestHTTPTransportSchemeRewrite(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/xrpc" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("<resp/>"))
	}))
	defer hs.Close()

	host := strings.TrimPrefix(hs.URL, "http://")
	for _, dest := range []string{hs.URL, "xrpc://" + host, host} {
		out, err := NewHTTPTransport().Send(dest, "/xrpc", []byte("<req/>"))
		if err != nil {
			t.Fatalf("dest %q: %v", dest, err)
		}
		if string(out) != "<resp/>" {
			t.Fatalf("dest %q: response %q", dest, out)
		}
	}
}

// TestRetriableClassification pins the failover contract: transport
// failures and 5xx statuses are worth retrying against another replica,
// SOAP faults and definitive 4xx statuses are not.
func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"connection refused", errors.New("dial tcp: connection refused"), true},
		{"wrapped transport error", fmt.Errorf("xrpc: send: %w", errors.New("timeout")), true},
		{"soap fault", &soap.Fault{Code: "env:Sender", Reason: "bad module"}, false},
		{"wrapped soap fault", fmt.Errorf("shard 1: %w", &soap.Fault{Code: "env:Receiver", Reason: "x"}), false},
		{"http 500", &HTTPError{StatusCode: 500, Status: "500 Internal Server Error"}, true},
		{"http 503", &HTTPError{StatusCode: 503, Status: "503 Service Unavailable"}, true},
		{"http 408 request timeout", &HTTPError{StatusCode: 408, Status: "408 Request Timeout"}, true},
		{"http 429 too many requests", &HTTPError{StatusCode: 429, Status: "429 Too Many Requests"}, true},
		{"http 400", &HTTPError{StatusCode: 400, Status: "400 Bad Request"}, false},
		{"http 404", &HTTPError{StatusCode: 404, Status: "404 Not Found"}, false},
		{"http 413 too large", &HTTPError{StatusCode: 413, Status: "413 Request Entity Too Large"}, false},
		{"wrapped http 404", fmt.Errorf("send: %w", &HTTPError{StatusCode: 404, Status: "404"}), false},
	}
	for _, c := range cases {
		if got := Retriable(c.err); got != c.want {
			t.Errorf("%s: Retriable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHTTPTransportStatusErrorsAreClassified exercises the end-to-end
// path: real HTTP statuses surface as HTTPErrors with the right
// retriability.
func TestHTTPTransportStatusErrorsAreClassified(t *testing.T) {
	for _, c := range []struct {
		code int
		want bool
	}{{502, true}, {404, false}} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "nope", c.code)
		}))
		_, err := NewHTTPTransport().Send(hs.URL, "/xrpc", []byte("<req/>"))
		hs.Close()
		if err == nil {
			t.Fatalf("status %d: expected an error", c.code)
		}
		if got := Retriable(err); got != c.want {
			t.Errorf("status %d: Retriable = %v, want %v", c.code, got, c.want)
		}
	}
}

// Send reads an answer to its end once: a 1 MiB answer streamed in
// chunks (no Content-Length) costs little more than one buffer of its
// size, where regrowing a buffer allocated about three times that, and
// a 1 KiB answer (Content-Length known) allocates no more than it did
// then.
func TestSendReadsBodyOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops inflate allocation")
	}
	big, small := bytes.Repeat([]byte("<x/>"), 256<<10), bytes.Repeat([]byte("<x/>"), 256)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/small" {
			w.Write(small)
			return
		}
		for b := big; len(b) > 0; b = b[64<<10:] {
			w.Write(b[:64<<10])
			w.(http.Flusher).Flush()
		}
	}))
	defer hs.Close()
	tr := NewHTTPTransport()
	send := func(path string, want []byte) {
		out, err := tr.Send(hs.URL, path, []byte("<req/>"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: read %d bytes, want %d", path, len(out), len(want))
		}
	}
	send("/big", big)
	const runs = 4
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		send("/big", big)
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; per > uint64(len(big))*5/4 {
		t.Errorf("a %d-byte streamed answer allocated %d bytes per Send, want at most 1.25x its size", len(big), per)
	}
	if n := testing.AllocsPerRun(50, func() { send("/small", small) }); n > smallSendAllocs {
		t.Errorf("a %d-byte answer took %.0f allocations per Send, want at most %d", len(small), n, smallSendAllocs)
	}
}

// smallSendAllocs is what one Send of a 1 KiB answer allocated, client
// and httptest server together, when Send read the body with
// io.ReadAll.
const smallSendAllocs = 91
