package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file extends the kernel-level fault registry to the transport
// layer: a deterministic network-chaos http.RoundTripper the proxy torture
// suite wraps around its HTTP client. The same scheduling discipline as
// the kernel hooks (skip After hits, fire every Every-th, at most Count
// times) applies per rule, so "the third pair request to replica B gets a
// 503 burst of five" is reproducible, and a disarmed Chaos is a plain
// pass-through.

// TransportClass enumerates the network fault classes the chaos transport
// injects.
type TransportClass int

// Transport fault classes.
const (
	// ClassLatency delays the request, then forwards it unchanged.
	ClassLatency TransportClass = iota
	// ClassReset fails the round trip with a connection-reset error
	// (errors.Is(err, syscall.ECONNRESET) holds), without contacting the
	// backend.
	ClassReset
	// ClassTruncate forwards the request but cuts the response body in
	// half, so the client sees an unexpected EOF mid-decode — the gray
	// failure where the TCP connection works and the payload does not.
	ClassTruncate
	// ClassStatus answers with a synthesized HTTP error status (Status
	// field, default 503) without contacting the backend.
	ClassStatus
	// ClassBlackhole never answers: the round trip blocks until the
	// request's context fires and returns its error — the pathological
	// peer that accepts connections and goes silent.
	ClassBlackhole
)

// String implements fmt.Stringer for logs and test failures.
func (c TransportClass) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassReset:
		return "reset"
	case ClassTruncate:
		return "truncate"
	case ClassStatus:
		return "status"
	case ClassBlackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// ErrConnReset is the typed error ClassReset surfaces. It wraps
// syscall.ECONNRESET so callers classifying transport failures with
// errors.Is see exactly what a real peer reset would produce.
var ErrConnReset = fmt.Errorf("faultinject: %w", syscall.ECONNRESET)

// TransportFault is one scheduled network fault: what to inject (Class,
// plus Latency/Status details) and when (the After/Every/Count schedule,
// counted per rule over the requests matching it).
type TransportFault struct {
	// Class selects the fault behaviour.
	Class TransportClass
	// Latency is slept (honoring the request context) before the fault
	// acts; with ClassLatency it is the whole fault.
	Latency time.Duration
	// Status is the synthesized status code for ClassStatus (default 503).
	Status int
	// RetryAfter, when > 0, sets a Retry-After header (seconds) on the
	// synthesized ClassStatus response, so budget/propagation logic can
	// be exercised.
	RetryAfter int
	// After skips the first After matching requests before firing.
	After int64
	// Every fires on every Every-th eligible request (default 1).
	Every int64
	// Count caps the number of fires (0 = unlimited): a Count-limited
	// burst is how tests script a fault window that ends.
	Count int64
}

// transportRule is one armed fault plus its match predicate and counters.
type transportRule struct {
	host     string // exact req.URL.Host match; "" matches every host
	path     string // req.URL.Path prefix match; "" matches every path
	f        TransportFault
	sched    Schedule
	disarmed atomic.Bool
}

// matches reports whether the rule applies to the request at all (the
// schedule then decides whether it fires).
func (r *transportRule) matches(req *http.Request) bool {
	if r.disarmed.Load() {
		return false
	}
	if r.host != "" && req.URL.Host != r.host {
		return false
	}
	if r.path != "" && !strings.HasPrefix(req.URL.Path, r.path) {
		return false
	}
	return true
}

// Chaos is a deterministic network-chaos http.RoundTripper: rules armed
// per (host, path-prefix) inject latency, connection resets, truncated
// bodies, synthesized 5xx bursts, or blackholes into matching requests on
// their schedules. The first armed rule whose schedule fires wins; with
// no firing rule the request passes through to the base transport
// untouched. Safe for concurrent use; rules are fixed once armed (tests
// arm a script up front, run traffic, then inspect counters).
type Chaos struct {
	base  http.RoundTripper
	mu    sync.Mutex
	rules []*transportRule
}

// NewChaos wraps base (nil means http.DefaultTransport).
func NewChaos(base http.RoundTripper) *Chaos {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Chaos{base: base}
}

// Arm installs one fault rule for requests whose URL host equals host
// ("" = any) and whose path starts with path ("" = any). Returns the rule
// index for Fired.
func (c *Chaos) Arm(host, path string, f TransportFault) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules = append(c.rules, &transportRule{host: host, path: path, f: f,
		sched: Schedule{After: f.After, Every: f.Every, Count: f.Count}})
	return len(c.rules) - 1
}

// Disarm ends rule i's fault window: the rule stops matching (and so
// stops firing) from the next request on. Counters are preserved for
// inspection. Torture scripts use this to script "the fault clears at
// this point in the test" without predicting exact request counts.
func (c *Chaos) Disarm(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.rules) {
		return
	}
	c.rules[i].disarmed.Store(true)
}

// Fired reports how many times rule i (as returned by Arm) has fired.
func (c *Chaos) Fired(i int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.rules) {
		return 0
	}
	return c.rules[i].sched.Fires()
}

// RoundTrip implements http.RoundTripper.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	rules := c.rules
	c.mu.Unlock()
	for _, r := range rules {
		if !r.matches(req) || !r.sched.Due() {
			continue
		}
		return c.inject(r.f, req)
	}
	return c.base.RoundTrip(req)
}

// inject applies one fired fault to the request.
func (c *Chaos) inject(f TransportFault, req *http.Request) (*http.Response, error) {
	if f.Latency > 0 {
		t := time.NewTimer(f.Latency)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	switch f.Class {
	case ClassLatency:
		return c.base.RoundTrip(req)
	case ClassReset:
		return nil, ErrConnReset
	case ClassTruncate:
		resp, err := c.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateBody(resp)
	case ClassStatus:
		status := f.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := fmt.Sprintf(`{"error":{"code":"chaos","message":"injected %d"}}`, status)
		resp := &http.Response{
			Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
			StatusCode:    status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		resp.Header.Set("Content-Type", "application/json")
		if f.RetryAfter > 0 {
			resp.Header.Set("Retry-After", strconv.Itoa(f.RetryAfter))
		}
		return resp, nil
	case ClassBlackhole:
		<-req.Context().Done()
		return nil, req.Context().Err()
	default:
		return c.base.RoundTrip(req)
	}
}

// truncateBody reads the real response and hands back its first half with
// the original Content-Length intact, so the client hits an unexpected
// EOF exactly as it would on a connection dropped mid-body.
func truncateBody(resp *http.Response) (*http.Response, error) {
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := full[:len(full)/2]
	resp.Body = io.NopCloser(&brokenReader{r: bytes.NewReader(cut)})
	return resp, nil
}

// brokenReader yields its payload then fails with ErrUnexpectedEOF
// instead of a clean io.EOF, the way a torn connection does.
type brokenReader struct{ r *bytes.Reader }

func (b *brokenReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
