package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

var _ Transport = (*Network)(nil)

// A HandlerFunc builds its whole response; SendStream serves it as a
// stream like any other peer's.
func TestSendStreamBufferedHandlerFallback(t *testing.T) {
	net := NewNetwork(0, 0)
	net.Register("xrpc://a", HandlerFunc(func(path string, body []byte) ([]byte, error) {
		return []byte("echo:" + path + ":" + string(body)), nil
	}))
	rc, err := net.SendStream("xrpc://a", "/xrpc", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:/xrpc:hi" {
		t.Fatalf("stream payload = %q", out)
	}
	if got := net.Stats.BytesReceived.Load(); got != int64(len(out)) {
		t.Errorf("BytesReceived = %d, want %d", got, len(out))
	}
	if got := net.Stats.Requests.Load(); got != 1 {
		t.Errorf("Requests = %d, want 1", got)
	}
}

func TestSendStreamNativeStreamHandler(t *testing.T) {
	net := NewNetwork(0, 0)
	// a streaming peer producing through a pipe: bytes must reach the
	// consumer before the handler "finishes"
	net.Register("xrpc://a", StreamHandlerFunc(func(_ string, _ []byte) (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() {
			for i := 0; i < 3; i++ {
				fmt.Fprintf(pw, "part%d;", i)
			}
			pw.Close()
		}()
		return pr, nil
	}))
	rc, err := net.SendStream("xrpc://a", "/xrpc", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "part0;part1;part2;" {
		t.Fatalf("streamed payload = %q", out)
	}
	// the same peer is reachable via the buffered path too
	buf, err := net.Send("xrpc://a", "/xrpc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, out) {
		t.Fatalf("buffered Send = %q, streamed = %q", buf, out)
	}
}

func TestSendStreamErrorsSkipStats(t *testing.T) {
	boom := errors.New("peer exploded")
	net := NewNetwork(0, 0)
	net.Register("xrpc://a", StreamHandlerFunc(func(_ string, _ []byte) (io.ReadCloser, error) {
		return nil, boom
	}))
	if _, err := net.SendStream("xrpc://a", "/xrpc", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, err := net.SendStream("xrpc://nope", "/xrpc", nil); err == nil {
		t.Fatal("unregistered peer did not error")
	}
	if got := net.Stats.Requests.Load(); got != 0 {
		t.Errorf("failed opens counted as requests: %d", got)
	}
}

func TestSendStreamPacesPerRead(t *testing.T) {
	var slept atomic.Int64
	net := NewNetwork(3*time.Millisecond, 1000) // 1000 B/s
	net.Sleep = func(d time.Duration) { slept.Add(int64(d)) }
	net.Register("xrpc://a", HandlerFunc(func(_ string, _ []byte) ([]byte, error) {
		return bytes.Repeat([]byte("x"), 500), nil
	}))
	rc, err := net.SendStream("xrpc://a", "/xrpc", bytes.Repeat([]byte("q"), 250))
	if err != nil {
		t.Fatal(err)
	}
	// opening pays RTT + request transfer: 3ms + 250/1000 s
	atOpen := time.Duration(slept.Load())
	if want := 3*time.Millisecond + 250*time.Millisecond; atOpen != want {
		t.Fatalf("delay at open = %v, want %v", atOpen, want)
	}
	if _, err := io.ReadAll(rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	// draining pays the response transfer: 500/1000 s, spread over reads
	total := time.Duration(slept.Load())
	if want := atOpen + 500*time.Millisecond; total != want {
		t.Fatalf("delay after drain = %v, want %v", total, want)
	}
	// Send drains the same stream, so it charges the same delay
	slept.Store(0)
	if _, err := net.Send("xrpc://a", "/xrpc", bytes.Repeat([]byte("q"), 250)); err != nil {
		t.Fatal(err)
	}
	if buffered := time.Duration(slept.Load()); buffered != total {
		t.Fatalf("buffered delay %v != streamed delay %v", buffered, total)
	}
}

func TestSendStreamPerPeerStats(t *testing.T) {
	net := NewNetwork(0, 0)
	net.Register("xrpc://a", HandlerFunc(func(_ string, body []byte) ([]byte, error) {
		return append(body, body...), nil
	}))
	rc, err := net.SendStream("xrpc://a", "/xrpc", []byte("12345"))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(rc)
	rc.Close()
	reqs, sent, recv := net.PeerStats("xrpc://a")
	if reqs != 1 || sent != 5 || recv != 10 {
		t.Fatalf("peer stats = %d/%d/%d, want 1/5/10", reqs, sent, recv)
	}
}
