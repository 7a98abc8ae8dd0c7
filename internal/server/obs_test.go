package server

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// TestInstrumentationAddsNoAllocs pins the cost of attaching metrics and
// a (non-firing) slow-query log to the buffered request path: the
// instrumented server must allocate no more per request than the bare
// one. The nil-safe instruments make the uninstrumented path free; this
// guards the instrumented fast path — atomic counters, pre-resolved
// label series, and a threshold gate that keeps slow-log attribute
// building off fast requests.
func TestInstrumentationAddsNoAllocs(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	y := newPeer(t, "xrpc://y.example.org", filmDBY, net)
	req := &soap.Request{
		Module: "films", Method: "filmsByActor", Arity: 1,
		Location: "http://x.example.org/film.xq",
		Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
	}
	body := soap.EncodeRequest(req)
	run := func() float64 {
		return testing.AllocsPerRun(50, func() {
			resp := handleBuffered(y.server, body)
			if strings.Contains(string(resp), "Fault") {
				t.Fatalf("faulted: %s", resp)
			}
		})
	}
	base := run()

	reg := obs.NewRegistry()
	y.server.Metrics = NewMetrics(reg)
	y.server.RegisterCacheMetrics(reg)
	y.server.SlowLog = obs.NewSlowLog(
		slog.New(slog.NewTextHandler(io.Discard, nil)), time.Hour)
	// warm the per-method counter series so its one-time registration
	// does not count against the steady state
	handleBuffered(y.server, body)
	instr := run()
	if instr-base >= 1 {
		t.Fatalf("instrumentation added allocations: %.1f -> %.1f per request", base, instr)
	}
	if n := reg.MustGather("xrpc_server_requests_total", obs.Label{Key: "method", Value: "filmsByActor"}); n < 51 {
		t.Fatalf("requests counter = %v, want >= 51", n)
	}
}
