package client_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

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
	for name, tr := range map[string]*client.HTTPTransport{
		"NewHTTPTransport": client.NewHTTPTransport(),
		"zero value":       {},
	} {
		out, err := tr.Send(hs.URL, client.XRPCPath, body)
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
