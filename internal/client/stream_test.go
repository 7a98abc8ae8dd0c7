package client_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

var _ netsim.Transport = (*client.HTTPTransport)(nil)

// collectStreamed walks a StreamedResponse to completion, returning one
// sequence per call.
func collectStreamed(t *testing.T, sr *client.StreamedResponse) []xdm.Sequence {
	t.Helper()
	var out []xdm.Sequence
	for {
		ok, err := sr.NextSequence()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var seq xdm.Sequence
		for {
			it, err := sr.NextItem()
			if err != nil {
				t.Fatal(err)
			}
			if it == nil {
				break
			}
			seq = append(seq, it)
		}
		out = append(out, seq)
	}
	if _, err := sr.Finish(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSendStreamedMatchesSendEncoded pins the streamed send against the
// buffered reference: same request bytes, same results.
func TestSendStreamedMatchesSendEncoded(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", newServer(t))
	br := &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{
			{{xdm.String("Sean Connery")}},
			{{xdm.String("Julie Andrews")}},
			{{xdm.String("Gerard Depardieu")}},
		},
	}
	ref := client.New(net)
	enc := ref.EncodeBulk(br)
	defer enc.Release()
	want, err := ref.SendEncoded("xrpc://y", enc.Bytes(), len(br.Calls))
	if err != nil {
		t.Fatal(err)
	}

	cl := client.New(net)
	sr, err := cl.SendStreamed("xrpc://y", enc.Bytes(), len(br.Calls))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Module() != "films" || sr.Method() != "filmsByActor" {
		t.Fatalf("header = %s/%s", sr.Module(), sr.Method())
	}
	got := collectStreamed(t, sr)
	assertSameResults(t, "SendStreamed", got, want)
	if cl.Requests.Load() != 1 || cl.Sent.Load() != int64(len(enc.Bytes())) {
		t.Errorf("stats = %d requests / %d sent", cl.Requests.Load(), cl.Sent.Load())
	}
	if cl.Received.Load() == 0 {
		t.Error("received bytes not counted")
	}
	if peers := cl.Peers(); len(peers) != 1 || peers[0] != "xrpc://y" {
		t.Errorf("peers = %v", peers)
	}
}

// assertSameResults compares result sets by their canonical SOAP
// encoding, the same oracle the soap differential tests use.
func assertSameResults(t *testing.T, name string, got, want []xdm.Sequence) {
	t.Helper()
	g := soap.EncodeResponse(&soap.Response{Module: "m", Method: "f", Results: got})
	w := soap.EncodeResponse(&soap.Response{Module: "m", Method: "f", Results: want})
	if string(g) != string(w) {
		t.Fatalf("%s: streamed results differ from buffered\nstreamed: %s\nbuffered: %s", name, g, w)
	}
}

func TestSendStreamedResultCountMismatch(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", netsim.HandlerFunc(func(_ string, _ []byte) ([]byte, error) {
		return soap.EncodeResponse(&soap.Response{
			Module: "m", Method: "f",
			Results: []xdm.Sequence{{xdm.Integer(1)}},
		}), nil
	}))
	sr, err := client.New(net).SendStreamed("xrpc://y", []byte("<req/>"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := sr.NextSequence()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if _, err := sr.Finish(); err == nil || !strings.Contains(err.Error(), "1 results for 2 calls") {
		t.Fatalf("Finish err = %v, want result-count mismatch", err)
	}
}

func TestSendStreamedFault(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", netsim.HandlerFunc(func(_ string, _ []byte) ([]byte, error) {
		return soap.EncodeFault(&soap.Fault{Code: "env:Sender", Reason: "no such module"}), nil
	}))
	_, err := client.New(net).SendStreamed("xrpc://y", []byte("<req/>"), 1)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Reason != "no such module" {
		t.Fatalf("err = %v, want the peer's fault", err)
	}
	if client.Retriable(err) {
		t.Error("a SOAP fault must not be classified retriable")
	}
}

// TestSendStreamedDeliversBeforeHandlerFinishes is the point of the
// streamed path: the first result is decodable while the peer is still
// producing later ones.
func TestSendStreamedDeliversBeforeHandlerFinishes(t *testing.T) {
	release := make(chan struct{})
	handlerDone := make(chan struct{})
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", netsim.StreamHandlerFunc(func(_ string, _ []byte) (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() {
			defer close(handlerDone)
			enc := soap.NewStreamEncoder(pw, 1) // flush every write
			enc.BeginResponse("m", "f")
			enc.BeginSequence()
			enc.EncodeItem(xdm.String("first"))
			enc.EndSequence()
			enc.Flush()
			<-release // second result held back until the test saw the first
			enc.BeginSequence()
			enc.EncodeItem(xdm.String("second"))
			enc.EndSequence()
			enc.EndResponse(nil)
			enc.Flush()
			enc.Release()
			pw.Close()
		}()
		return pr, nil
	}))

	sr, err := client.New(net).SendStreamed("xrpc://y", []byte("<req/>"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sr.NextSequence(); !ok || err != nil {
		t.Fatalf("NextSequence = %v, %v", ok, err)
	}
	it, err := sr.NextItem()
	if err != nil {
		t.Fatal(err)
	}
	if got := it.(xdm.String); got != "first" {
		t.Fatalf("first item = %q", got)
	}
	select {
	case <-handlerDone:
		t.Fatal("handler finished before the first item was consumed: response was buffered, not streamed")
	default:
	}
	close(release)
	if it, err := sr.NextItem(); it != nil || err != nil {
		t.Fatalf("end of first sequence = %v, %v", it, err)
	}
	if ok, _ := sr.NextSequence(); !ok {
		t.Fatal("second sequence missing")
	}
	if it, _ := sr.NextItem(); it.(xdm.String) != "second" {
		t.Fatalf("second item = %v", it)
	}
	if _, err := sr.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedResponseCloseReleasesProducer: abandoning a stream
// mid-response must unblock and terminate the producing handler rather
// than leave it wedged on a pipe nobody reads.
func TestStreamedResponseCloseReleasesProducer(t *testing.T) {
	writerErr := make(chan error, 1)
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", netsim.StreamHandlerFunc(func(_ string, _ []byte) (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() {
			enc := soap.NewStreamEncoder(pw, 1)
			enc.BeginResponse("m", "f")
			for i := 0; enc.Err() == nil && i < 1<<20; i++ {
				enc.BeginSequence()
				enc.EncodeItem(xdm.String(fmt.Sprintf("row %d of a very long response", i)))
				enc.EndSequence()
			}
			writerErr <- enc.Err()
			enc.Release()
			pw.Close()
		}()
		return pr, nil
	}))
	sr, err := client.New(net).SendStreamed("xrpc://y", []byte("<req/>"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sr.NextSequence(); !ok || err != nil {
		t.Fatalf("NextSequence = %v, %v", ok, err)
	}
	sr.Close()
	select {
	case err := <-writerErr:
		if err == nil {
			t.Fatal("producer ran to completion against a closed stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still wedged 5s after the stream was abandoned")
	}
}

// TestHTTPTransportIdleDeadlineAborts: a peer that goes silent
// mid-body trips the per-read idle deadline.
func TestHTTPTransportIdleDeadlineAborts(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 4096)))
		w.(http.Flusher).Flush()
		<-release // stall mid-body
	}))
	defer hs.Close()
	defer close(release) // unblock the handler before hs.Close waits on it

	tr := client.NewHTTPTransportTimeout(100 * time.Millisecond)
	rc, err := tr.SendStream(hs.URL, "/xrpc", []byte("<req/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = io.ReadAll(rc)
	if err == nil {
		t.Fatal("expected the stalled response to abort")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want an idle-deadline error", err)
	}
}

// TestHTTPTransportSlowButFlowingResponseSurvives pins the timeout
// semantics this package moved to: a response that takes longer than
// the timeout end-to-end but never stalls between bytes completes. The
// old whole-request http.Client.Timeout killed exactly this case.
func TestHTTPTransportSlowButFlowingResponseSurvives(t *testing.T) {
	const chunks = 6
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := w.(http.Flusher)
		for i := 0; i < chunks; i++ {
			w.Write([]byte("chunk;"))
			f.Flush()
			time.Sleep(50 * time.Millisecond) // flowing: well under the idle deadline
		}
	}))
	defer hs.Close()

	// total transfer ~300ms, deadline 150ms: a whole-request timeout fails
	tr := client.NewHTTPTransportTimeout(150 * time.Millisecond)
	out, err := tr.Send(hs.URL, "/xrpc", []byte("<req/>"))
	if err != nil {
		t.Fatalf("flowing response aborted: %v", err)
	}
	if got := strings.Count(string(out), "chunk;"); got != chunks {
		t.Fatalf("received %d chunks, want %d", got, chunks)
	}
}
