package client_test

import (
	"errors"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

func retryCall(cl *client.Client) (xdm.Sequence, error) {
	res, err := cl.CallBulk("xrpc://y", &client.BulkRequest{
		ModuleURI: "films", AtHint: "http://x.example.org/film.xq",
		Func: "filmsByActor", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestRetryAbsorbsTransientBurst(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", newServer(t))
	net.FailNext("xrpc://y", 2)

	cl := client.New(net)
	var slept []time.Duration
	cl.Retry = &client.RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 8 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)

	seq, err := retryCall(cl)
	if err != nil {
		t.Fatalf("burst not absorbed: %v", err)
	}
	if len(seq) != 2 {
		t.Fatalf("films = %d", len(seq))
	}
	if got := cl.Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := reg.MustGather("xrpc_client_retries_total"); got != 2 {
		t.Errorf("xrpc_client_retries_total = %v, want 2", got)
	}
	if cl.Requests.Load() != 3 {
		t.Errorf("requests = %d, want 3 (1 try + 2 retries)", cl.Requests.Load())
	}
	// full jitter: each sleep is positive and bounded by the cap
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2", slept)
	}
	for i, d := range slept {
		if d <= 0 || d > 8*time.Millisecond {
			t.Errorf("sleep %d = %v, want in (0, 8ms]", i, d)
		}
	}
}

func TestRetryGivesUpPastMax(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", newServer(t))
	net.FailNext("xrpc://y", 5)

	cl := client.New(net)
	cl.Retry = &client.RetryPolicy{Max: 2, Base: time.Microsecond, Sleep: func(time.Duration) {}}
	_, err := retryCall(cl)
	var inj *netsim.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want the injected fault after retries exhausted", err)
	}
	if got := cl.Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestRetrySkipsDefinitiveFailures(t *testing.T) {
	// a SOAP fault is a definitive answer from the peer: retrying the
	// same bytes can only repeat it
	net := netsim.NewNetwork(0, 0)
	calls := 0
	net.Register("xrpc://y", netsim.HandlerFunc(func(_ string, _ []byte) ([]byte, error) {
		calls++
		return soap.EncodeFault(&soap.Fault{Code: "XPTY0004", Reason: "type error"}), nil
	}))
	cl := client.New(net)
	cl.Retry = &client.RetryPolicy{Max: 3, Sleep: func(time.Duration) {}}
	if _, err := retryCall(cl); err == nil {
		t.Fatal("fault did not surface")
	}
	if calls != 1 {
		t.Errorf("peer called %d times, want 1 (no retry on faults)", calls)
	}
	if cl.Retries.Load() != 0 {
		t.Errorf("retries = %d, want 0", cl.Retries.Load())
	}
}

func TestNoPolicyMeansSingleAttempt(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	net.Register("xrpc://y", newServer(t))
	net.FailNext("xrpc://y", 1)
	cl := client.New(net)
	if _, err := retryCall(cl); err == nil {
		t.Fatal("transient failure did not surface without a retry policy")
	}
}
