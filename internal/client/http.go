package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
)

// DefaultHTTPTimeout bounds the phases of one XRPC exchange: connection
// establishment, waiting for response headers, and each read of the
// response body. It is deliberately NOT a whole-request deadline — a
// streamed bulk response is allowed to take arbitrarily long end to end
// as long as bytes keep flowing.
const DefaultHTTPTimeout = 30 * time.Second

// HTTPTransport sends XRPC messages over real HTTP (SOAP over HTTP
// POST, as the paper's protocol specifies). Destination URIs use the
// xrpc:// scheme and are rewritten to http://host[:port]; a destination
// that already has an http:// scheme is used as-is.
type HTTPTransport struct {
	// Client is the underlying HTTP client. NewHTTPTransport installs a
	// tuned, shared http.Transport; a nil Client falls back to one
	// lazily via the package-level default. The client must not set
	// http.Client.Timeout: that deadline covers the whole exchange
	// including body streaming, which would cut long streamed responses
	// off mid-flight. Connect and header deadlines belong on the
	// http.Transport; body progress is bounded by IdleTimeout.
	Client *http.Client
	// IdleTimeout bounds each individual Read of the response body: the
	// request is aborted if the peer stalls for longer than this between
	// bytes. Zero means reads are unbounded (for a zero-value transport
	// with no Client, DefaultHTTPTimeout applies).
	IdleTimeout time.Duration
	// Gzip enables gzip content-coding (off by default): request bodies
	// are compressed with Content-Encoding: gzip, and Accept-Encoding:
	// gzip advertises that the response may be compressed too. The
	// decoded response is identical either way; servers that do not
	// understand gzip requests will fault, so enable it only against
	// peers that negotiate (server.Server always accepts gzip requests).
	Gzip bool
	// Metrics, when set, records per-phase timeout causes, HTTP errors
	// and the gzip compression ratio. Nil disables recording.
	Metrics *TransportMetrics
}

// TransportMetrics is the HTTP transport's registry view: where time
// went when a send failed (connect/header vs. mid-body stall), and what
// gzip buys (raw vs. compressed request bytes — the ratio is the
// quotient of the two counters).
type TransportMetrics struct {
	Timeouts   *obs.CounterVec // phase: "connect_or_header" | "idle_read"
	HTTPErrors *obs.CounterVec // class: "4xx" | "5xx"
	GzipRaw    *obs.Counter    // request bytes before compression
	GzipOut    *obs.Counter    // request bytes actually sent
}

// NewTransportMetrics registers the transport instrument family.
func NewTransportMetrics(reg *obs.Registry, labels ...obs.Label) *TransportMetrics {
	if reg == nil {
		return nil
	}
	return &TransportMetrics{
		Timeouts: reg.NewCounterVec("xrpc_http_timeouts_total",
			"Sends aborted by a deadline, by phase.", "phase", labels...),
		HTTPErrors: reg.NewCounterVec("xrpc_http_errors_total",
			"Non-2xx HTTP responses, by class.", "class", labels...),
		GzipRaw: reg.NewCounter("xrpc_http_gzip_raw_bytes_total",
			"Request bytes before gzip compression.", labels...),
		GzipOut: reg.NewCounter("xrpc_http_gzip_sent_bytes_total",
			"Request bytes on the wire after gzip compression.", labels...),
	}
}

// sharedTransport is the fallback connection pool for transports built
// without NewHTTPTransport, so even zero-value HTTPTransports reuse
// connections instead of building a client per call path.
var sharedTransport = newPooledTransport(DefaultHTTPTimeout)

// newPooledTransport returns an http.Transport tuned for scatter-gather
// fan-out: keep-alives on, and enough idle connections per host that a
// coordinator repeatedly hitting the same N shard peers never
// re-handshakes in steady state. The timeout bounds connection
// establishment and the wait for response headers (0 = unbounded);
// response-body reads are bounded separately, per read, by
// HTTPTransport.IdleTimeout.
func newPooledTransport(timeout time.Duration) *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: timeout}).DialContext,
		ResponseHeaderTimeout: timeout,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		// a plain client gets plain answers: net/http would otherwise
		// advertise Accept-Encoding: gzip itself and inflate behind
		// HTTPTransport.Gzip's back
		DisableCompression: true,
	}
}

// NewHTTPTransport creates a transport with the default timeout.
func NewHTTPTransport() *HTTPTransport {
	return NewHTTPTransportTimeout(DefaultHTTPTimeout)
}

// NewHTTPTransportTimeout creates a transport whose per-phase deadlines
// — connect, response headers, and each response-body read — are the
// given duration (0 = no deadlines). Unlike a whole-request timeout,
// this never aborts a response that is still making progress, however
// large; it aborts one that has stalled. Each transport owns one pooled
// http.Transport, reused across all sends.
func NewHTTPTransportTimeout(timeout time.Duration) *HTTPTransport {
	return &HTTPTransport{
		Client:      &http.Client{Transport: newPooledTransport(timeout)},
		IdleTimeout: timeout,
	}
}

// HTTPError reports a non-2xx HTTP response. It is a transport-level
// failure (the peer's XRPC endpoint did not answer: XRPC errors travel
// as SOAP faults inside 200 responses), so cluster coordinators treat
// it as grounds for replica failover.
type HTTPError struct {
	StatusCode int
	Status     string
	// Body is the response body, truncated to a diagnostic-sized
	// prefix.
	Body string
}

// Error implements error.
func (e *HTTPError) Error() string {
	if e.Body == "" {
		return fmt.Sprintf("xrpc http: %s", e.Status)
	}
	return fmt.Sprintf("xrpc http: %s: %s", e.Status, e.Body)
}

// Retriable classifies the status: 5xx (and the two transient 4xx codes,
// request-timeout and too-many-requests) mean the peer or an
// intermediary failed and another replica may well succeed; any other
// 4xx means the peer deterministically rejected the request, so
// retrying it — at this replica or the next — can only repeat the
// rejection.
func (e *HTTPError) Retriable() bool {
	switch e.StatusCode {
	case http.StatusRequestTimeout, http.StatusTooManyRequests:
		return true
	}
	return e.StatusCode >= 500
}

// Retriable classifies an error from a send for failover purposes: true
// when retrying against another replica of the same data might succeed
// (connection refused, timeout, 5xx — the peer did not process the
// request), false when the failure is definitive (a SOAP fault or a
// definitive 4xx status — every replica holds the same shard and would
// answer the same way). Unknown error types default to retriable, the
// conservative choice for availability.
func Retriable(err error) bool {
	var fault *soap.Fault
	if errors.As(err, &fault) {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Retriable()
	}
	return true
}

// errBodyLimit bounds how much of a failed response body travels in an
// HTTPError.
const errBodyLimit = 512

// Send implements netsim.Transport over HTTP: the response body read to
// its end by netsim.ReadBody, in one buffer of the size the peer
// announced, or copied once out of pooled chunks when it announced none
// (a streamed answer). Non-2xx responses are errors carrying the status
// and a truncated body — never a success payload.
func (t *HTTPTransport) Send(dest, path string, body []byte) ([]byte, error) {
	sb, err := t.open(dest, path, body)
	if err != nil {
		return nil, err
	}
	out, err := netsim.ReadBody(sb, sb.size)
	sb.Close()
	if err != nil {
		return nil, fmt.Errorf("xrpc http: reading response: %w", err)
	}
	return out, nil
}

// SendStream implements netsim.Transport over HTTP: the response
// body is returned as a stream, decompressed if the peer answered with
// gzip. The caller must Close the reader; reading it to EOF first lets
// the keep-alive connection return to the pool. Each read is bounded by
// IdleTimeout — a stalled peer aborts the request, a slow-but-flowing
// response does not.
func (t *HTTPTransport) SendStream(dest, path string, body []byte) (io.ReadCloser, error) {
	sb, err := t.open(dest, path, body)
	if err != nil {
		return nil, err
	}
	return sb, nil
}

// open posts body and returns the 2xx response's body as a stream.
func (t *HTTPTransport) open(dest, path string, body []byte) (*streamBody, error) {
	url := dest
	if strings.HasPrefix(url, "xrpc://") {
		url = "http://" + strings.TrimPrefix(url, "xrpc://")
	}
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + path
	cl := t.Client
	idle := t.IdleTimeout
	if cl == nil {
		cl = &http.Client{Transport: sharedTransport}
		if idle == 0 {
			idle = DefaultHTTPTimeout
		}
	}
	sendBody := body
	if t.Gzip {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		zw.Write(body)
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("xrpc http: gzip request: %w", err)
		}
		sendBody = zbuf.Bytes()
		if t.Metrics != nil {
			t.Metrics.GzipRaw.Add(int64(len(body)))
			t.Metrics.GzipOut.Add(int64(len(sendBody)))
		}
	}
	// The context exists so the idle watchdog can abort a stalled
	// transfer mid-body; it is released when the stream is closed.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(sendBody))
	if err != nil {
		cancel()
		return nil, fmt.Errorf("xrpc http: %w", err)
	}
	req.Header.Set("Content-Type", "application/soap+xml; charset=utf-8")
	if t.Gzip {
		req.Header.Set("Content-Encoding", "gzip")
		// setting Accept-Encoding ourselves disables the transport's
		// transparent decompression, so a gzip response is handled
		// explicitly below
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := cl.Do(req)
	if err != nil {
		cancel()
		if t.Metrics != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Metrics.Timeouts.With("connect_or_header").Inc()
			}
		}
		return nil, fmt.Errorf("xrpc http: %w", err)
	}
	respBody, size := io.ReadCloser(resp.Body), resp.ContentLength
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("xrpc http: gzip response: %w", err)
		}
		respBody, size = gz, -1
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		trunc, _ := io.ReadAll(io.LimitReader(respBody, errBodyLimit))
		// drain the remainder so the keep-alive connection returns to
		// the pool instead of being torn down
		io.Copy(io.Discard, resp.Body)
		if respBody != resp.Body {
			respBody.Close()
		}
		resp.Body.Close()
		cancel()
		if t.Metrics != nil {
			class := "4xx"
			if resp.StatusCode >= 500 {
				class = "5xx"
			}
			t.Metrics.HTTPErrors.With(class).Inc()
		}
		return nil, &HTTPError{
			StatusCode: resp.StatusCode,
			Status:     resp.Status,
			Body:       strings.TrimSpace(string(trunc)),
		}
	}
	return &streamBody{body: respBody, raw: resp.Body, size: size, cancel: cancel, idle: idle, metrics: t.Metrics}, nil
}

// streamBody is an HTTP response body with a per-read idle watchdog:
// the timer is armed only while a Read is in flight, so time the
// consumer spends processing between reads does not count against the
// deadline. The stream has one timer, made by its first Read and
// re-armed by every later one.
type streamBody struct {
	body     io.ReadCloser // decoded stream (gzip reader or raw body)
	raw      io.ReadCloser // the underlying resp.Body
	size     int64         // the decoded body's length, -1 if unknown
	cancel   context.CancelFunc
	idle     time.Duration
	timer    *time.Timer
	timedOut atomic.Bool
	metrics  *TransportMetrics
}

func (b *streamBody) Read(p []byte) (int, error) {
	if b.idle > 0 {
		if b.timer == nil {
			b.timer = time.AfterFunc(b.idle, func() {
				b.timedOut.Store(true)
				b.cancel()
			})
		} else {
			b.timer.Reset(b.idle)
		}
	}
	n, err := b.body.Read(p)
	if b.timer != nil {
		b.timer.Stop()
	}
	if err != nil && err != io.EOF && b.timedOut.Load() {
		if b.metrics != nil {
			b.metrics.Timeouts.With("idle_read").Inc()
		}
		err = fmt.Errorf("xrpc http: response stalled longer than %v: %w", b.idle, err)
	}
	return n, err
}

// Close releases the stream. The body is closed before the context is
// canceled: after a full read to EOF the transport has already handed
// the connection back to the pool, and canceling first would tear it
// down instead.
func (b *streamBody) Close() error {
	err := b.body.Close()
	if b.raw != b.body {
		b.raw.Close()
	}
	b.cancel()
	return err
}
