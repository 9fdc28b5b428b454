// Package serve is the HTTP protocol rdserver and rdproxy share, so both
// tiers speak it from one place: the JSON error envelope and replies,
// method routing with a JSON 405, the admission gate (an immediate 429
// with a jittered Retry-After, and the per-request timeout), the /healthz
// and /readyz probes, the panic recoverer, request parsing with its
// 400-vs-422 split, and the process lifecycle (signal-driven drain and
// SIGHUP reload). Each binary keeps only its endpoint logic.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"landmarkrd/internal/debugsrv"
	"landmarkrd/internal/obs"
)

// Retry-After jitter band for 429 responses, in whole seconds. Randomizing
// the hint inside [RetryAfterMin, RetryAfterMax] keeps a herd of rejected
// clients from re-arriving in the same instant.
const (
	RetryAfterMin = 1
	RetryAfterMax = 3
)

// Kit holds the protocol state one process shares across its handlers.
type Kit struct {
	// Logger receives protocol complaints (failed reply writes, reload
	// outcomes, shutdown). Tests swap it to capture output.
	Logger *log.Logger

	role    string        // names the process in the 429 message
	panics  *obs.Counter  // counts handler panics the recoverer answered
	timeout time.Duration // per-request budget; 0 disables

	// slots bounds in-flight requests: a slot is taken without blocking,
	// and a request that finds none free is rejected with 429 rather than
	// queued — the caller's deadline is better spent retrying elsewhere.
	slots chan struct{}

	// rng feeds the Retry-After jitter; guarded by rngMu.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds the kit for a process whose 429 reads "<role> at capacity",
// admitting at most maxInflight (> 0) concurrent requests, each under
// timeout (0 disables). seed drives the Retry-After jitter.
func New(role string, logger *log.Logger, panics *obs.Counter, maxInflight int, timeout time.Duration, seed uint64) *Kit {
	return &Kit{
		Logger:  logger,
		role:    role,
		panics:  panics,
		timeout: timeout,
		slots:   make(chan struct{}, maxInflight),
		rng:     rand.New(rand.NewSource(int64(seed))),
	}
}

// ErrorBody is the structured error envelope every non-2xx response uses.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Envelope builds the error envelope for code and msg.
func Envelope(code, msg string) ErrorBody {
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = msg
	return body
}

// WriteError emits the structured JSON error envelope. An encode failure
// after the status line is already on the wire cannot be reported to the
// client, but it must not vanish either — the logger gets it (a
// half-written envelope is a client-visible protocol violation worth an
// operator's attention).
func (k *Kit) WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(Envelope(code, msg)); err != nil {
		k.Logger.Printf("writing %d %s error envelope: %v", status, code, err)
	}
}

// WriteJSON emits v as an indented JSON 200 reply, logging an encode or
// write failure the way WriteError does.
func (k *Kit) WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		k.Logger.Printf("writing JSON reply: %v", err)
	}
}

// Route registers h for method on path with a Go 1.22 method pattern ("GET"
// also matches HEAD), plus a bare-path fallback that answers every other
// method with the JSON 405 envelope and an Allow header.
func (k *Kit) Route(mux *http.ServeMux, method, path string, h http.Handler) {
	allow := method
	if method == http.MethodGet {
		allow = "GET, HEAD"
	}
	mux.Handle(method+" "+path, h)
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		k.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
	})
}

// NewMux returns a mux serving the probes and the expvar page, so the
// query port alone is enough to scrape stats. /healthz answers 200 while
// the process can serve HTTP at all; /readyz answers 200 only while
// notReady returns an empty code, and otherwise a 503 envelope with the
// code and message it returns, telling the load balancer to route new
// traffic elsewhere without killing the process.
func (k *Kit) NewMux(notReady func() (code, msg string)) *http.ServeMux {
	mux := http.NewServeMux()
	k.Route(mux, http.MethodGet, "/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	k.Route(mux, http.MethodGet, "/readyz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if code, msg := notReady(); code != "" {
			k.WriteError(w, http.StatusServiceUnavailable, code, msg)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}))
	k.Route(mux, http.MethodGet, "/debug/vars", expvar.Handler())
	return mux
}

// Recover is the outermost middleware: a panic that escapes a handler is
// counted and answered with a structured 500 instead of killing the
// connection.
func (k *Kit) Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				k.panics.Inc()
				k.WriteError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Admit wraps h with the admission gate: saturation is answered at once
// with 429 and a jittered Retry-After; an admitted request runs under a
// context that cancels when the client disconnects or the per-request
// timeout elapses, which the kernels observe mid-solve.
func (k *Kit) Admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !k.TryAcquire() {
			w.Header().Set("Retry-After", strconv.Itoa(k.RetryAfter()))
			k.WriteError(w, http.StatusTooManyRequests, "saturated", k.role+" at capacity")
			return
		}
		defer k.Release()
		if k.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), k.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// TryAcquire takes an admission slot without blocking and reports whether
// it got one; Release returns it.
func (k *Kit) TryAcquire() bool {
	select {
	case k.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire.
func (k *Kit) Release() { <-k.slots }

// InFlight returns the number of admission slots taken and their total.
func (k *Kit) InFlight() (taken, total int) { return len(k.slots), cap(k.slots) }

// RetryAfter draws a Retry-After hint, in seconds, from the jitter band.
func (k *Kit) RetryAfter() int {
	k.rngMu.Lock()
	defer k.rngMu.Unlock()
	return RetryAfterMin + k.rng.Intn(RetryAfterMax-RetryAfterMin+1)
}

// DecodeBody decodes the JSON request body into v, capped at limit bytes.
// On failure it answers the request itself — 413 body_too_large past the
// cap, 400 bad_request for anything else — and returns false.
func (k *Kit) DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			k.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		k.WriteError(w, http.StatusBadRequest, "bad_request", "bad JSON body: "+err.Error())
		return false
	}
	return true
}

// Pair is one (s, t) query of a /v1/batch body.
type Pair struct {
	S int `json:"s"`
	T int `json:"t"`
}

// DecodePairs reads a /v1/batch body ({"pairs":[{"s":0,"t":1},...]}),
// capped at limit bytes, and checks every vertex against a graph of n
// vertices. On failure it answers the request itself (see DecodeBody and
// WriteRequestError; an empty batch is a 400) and returns false.
func (k *Kit) DecodePairs(w http.ResponseWriter, r *http.Request, limit int64, n int) ([]Pair, bool) {
	var req struct {
		Pairs []Pair `json:"pairs"`
	}
	if !k.DecodeBody(w, r, limit, &req) {
		return nil, false
	}
	if len(req.Pairs) == 0 {
		k.WriteError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return nil, false
	}
	for i, p := range req.Pairs {
		if err := ValidVertex(n, p.S); err != nil {
			k.WriteRequestError(w, fmt.Errorf("pairs[%d].s: %w", i, err))
			return nil, false
		}
		if err := ValidVertex(n, p.T); err != nil {
			k.WriteRequestError(w, fmt.Errorf("pairs[%d].t: %w", i, err))
			return nil, false
		}
	}
	return req.Pairs, true
}

// ErrOutOfRange marks vertex-id validation failures: the request is
// well-formed but semantically unanswerable, which maps to 422 rather
// than 400.
var ErrOutOfRange = errors.New("vertex out of range")

// WriteRequestError maps request parsing and validation failures:
// syntactically broken input is a 400; well-formed input naming an
// impossible vertex is a 422 with the same structured body.
func (k *Kit) WriteRequestError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOutOfRange) {
		k.WriteError(w, http.StatusUnprocessableEntity, "vertex_out_of_range", err.Error())
		return
	}
	k.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// ValidVertex checks v against a graph of n vertices.
func ValidVertex(n, v int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("%w: vertex %d not in [0, %d)", ErrOutOfRange, v, n)
	}
	return nil
}

// IntParam parses the integer query parameter name.
func IntParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", name, err)
	}
	return v, nil
}

// PairParams parses the s and t query parameters and checks both against
// a graph of n vertices.
func PairParams(r *http.Request, n int) (s, t int, err error) {
	if s, err = IntParam(r, "s"); err != nil {
		return 0, 0, err
	}
	if t, err = IntParam(r, "t"); err != nil {
		return 0, 0, err
	}
	if err = ValidVertex(n, s); err != nil {
		return 0, 0, err
	}
	if err = ValidVertex(n, t); err != nil {
		return 0, 0, err
	}
	return s, t, nil
}

// WatchReload calls reload for every signal on ch (SIGHUP in production;
// tests feed the channel directly), logging the outcome. It returns when
// ch is closed.
func (k *Kit) WatchReload(ch <-chan os.Signal, reload func() error) {
	for range ch {
		k.Logger.Printf("SIGHUP, reloading")
		if err := reload(); err != nil {
			k.Logger.Printf("reload failed, keeping the current state: %v", err)
		}
	}
}

// Run serves h on addr until SIGINT or SIGTERM, then stops accepting new
// requests and drains the in-flight ones for at most drain before it
// returns. Along the way it serves expvar and pprof on debugAddr (when
// set), calls reload on every SIGHUP, and runs each loop in its own
// goroutine until shutdown begins. quiesce, when non-nil, runs after the
// drain and before the debug server stops.
func (k *Kit) Run(addr string, h http.Handler, drain time.Duration, debugAddr string,
	reload func() error, quiesce func(), loops ...func(context.Context)) error {
	dbg, err := debugsrv.Start(debugAddr)
	if err != nil {
		return err
	}
	if a := dbg.Addr(); a != "" {
		k.Logger.Printf("debug endpoint on http://%s/debug/vars", a)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go k.WatchReload(hup, reload)
	for _, loop := range loops {
		go loop(ctx)
	}

	srv := &http.Server{Addr: addr, Handler: h}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		k.Logger.Printf("shutting down, draining in-flight queries")
		drainCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		if quiesce != nil {
			quiesce()
		}
		if dbgErr := dbg.Shutdown(drainCtx); err == nil {
			err = dbgErr
		}
		shutdownErr <- err
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}
