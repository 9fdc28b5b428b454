package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/breaker"
	"landmarkrd/internal/cluster"
	"landmarkrd/internal/rcache"
	"landmarkrd/internal/retry"
	"landmarkrd/internal/serve"
)

const (
	// maxBatchBody caps a /v1/batch request body.
	maxBatchBody = 1 << 20
	// batchLanes bounds the pairs of one batch in flight at once.
	batchLanes = 8
)

// proxyConfig is the coordinator's configuration, mirroring rdserver's
// plain-struct style so tests can build proxies directly.
type proxyConfig struct {
	replicas    []string      // replica base URLs, e.g. http://host:8080
	portfolioK  int           // fleet portfolio size (ignored when a snapshot is loaded)
	indexMode   string        // portfolio column builder: exact, mc, or sketch
	snapshot    string        // portfolio snapshot path shared with the replicas
	seed        uint64        // portfolio build seed
	cacheSize   int           // result cache entries; 0 disables
	timeout     time.Duration // per-request budget; 0 disables
	maxInflight int           // concurrent query cap; 0 means 64
	healthInt   time.Duration // replica /readyz poll interval; 0 means 2s
	vnodes      int           // ring virtual nodes per replica (0 = default)

	// Resilience layer (DESIGN.md §14).
	hedgeAfter     time.Duration // fire a hedged request at the next owner after this delay (0 disables)
	attemptTimeout time.Duration // per-attempt downstream cap so slow/blackholed shards fail over (0 = none)
	retryBudget    int           // failover/hedge token-bucket capacity (0 = unlimited)
	retryRatio     float64       // budget tokens deposited per admitted query (0 = none)
	breakerWindow  time.Duration // per-replica breaker failure-rate window (0 disables breakers)
	healthHyst     int           // consecutive contrary probes before a replica flips up/down (0 = 1)
	now            func() time.Time
}

func (c *proxyConfig) validate() error {
	if len(c.replicas) == 0 {
		return fmt.Errorf("rdproxy: -replicas is required")
	}
	seen := make(map[string]bool, len(c.replicas))
	for _, r := range c.replicas {
		u, err := url.Parse(r)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("rdproxy: replica %q is not an absolute URL", r)
		}
		if seen[r] {
			return fmt.Errorf("rdproxy: replica %q listed twice", r)
		}
		seen[r] = true
	}
	if c.timeout < 0 {
		return fmt.Errorf("rdproxy: -timeout must be >= 0, got %v", c.timeout)
	}
	if c.maxInflight < 0 {
		return fmt.Errorf("rdproxy: -max-inflight must be >= 0, got %d", c.maxInflight)
	}
	if c.cacheSize < 0 {
		return fmt.Errorf("rdproxy: -cache must be >= 0, got %d", c.cacheSize)
	}
	if c.healthInt < 0 {
		return fmt.Errorf("rdproxy: -health-interval must be >= 0, got %v", c.healthInt)
	}
	if c.hedgeAfter < 0 {
		return fmt.Errorf("rdproxy: -hedge-after must be >= 0, got %v", c.hedgeAfter)
	}
	if c.attemptTimeout < 0 {
		return fmt.Errorf("rdproxy: -attempt-timeout must be >= 0, got %v", c.attemptTimeout)
	}
	if c.retryBudget < 0 {
		return fmt.Errorf("rdproxy: -retry-budget must be >= 0, got %d", c.retryBudget)
	}
	if c.retryRatio < 0 || c.retryRatio > 1 {
		return fmt.Errorf("rdproxy: -retry-budget-ratio must be in [0, 1], got %v", c.retryRatio)
	}
	if c.breakerWindow < 0 {
		return fmt.Errorf("rdproxy: -breaker-window must be >= 0, got %v", c.breakerWindow)
	}
	if c.healthHyst < 0 {
		return fmt.Errorf("rdproxy: -health-hysteresis must be >= 0, got %d", c.healthHyst)
	}
	return nil
}

// proxyState is one immutable routing generation: the graph version, the
// fleet portfolio whose cost law scores pair affinity, and the ring router
// assigning its landmark positions to replicas. A SIGHUP rollout builds a
// fresh state and swaps the pointer — queries in flight keep the one they
// started with, and the new fingerprint retires every cached answer of the
// old generation by construction.
type proxyState struct {
	g      *landmarkrd.Graph
	pf     *landmarkrd.PortfolioIndex
	router *cluster.Router
	fp     uint64
}

// replica is one backend rdserver plus its health bit, flipped by the
// /readyz poll loop, and its circuit breaker, tripped by the owner-walk's
// own attempt outcomes. An unhealthy replica is skipped during routing (a
// skip counts as a failover) until enough consecutive polls see it ready
// again; a replica whose breaker is open is skipped the same way until
// the breaker's half-open probes close it.
type replica struct {
	name    string
	healthy atomic.Bool
	breaker *breaker.Breaker // nil when -breaker-window is 0
	// streak counts consecutive probe results contradicting the current
	// health bit; the bit flips only at the hysteresis threshold, so one
	// blip cannot evict a shard owner. Touched only by the (single
	// goroutine) health sweep.
	streak int
}

// proxyServer fans pair queries out over a fleet of rdserver replicas,
// each serving a shard (subset of landmark positions) of one fleet-wide
// portfolio. A query goes to the replica whose owned landmark minimizes
// the routed cost r(s,ℓ)+r(t,ℓ); a down or saturated shard fails over to
// the next-cheapest owner, then along the hash ring.
type proxyServer struct {
	// Kit speaks the HTTP protocol rdserver shares: error envelopes, method
	// routing, the admission gate, probes, the recoverer and the lifecycle.
	*serve.Kit

	cfg     proxyConfig
	metrics *landmarkrd.Metrics
	client  *http.Client

	state    atomic.Pointer[proxyState]
	replicas []*replica

	cache  *rcache.Cache
	budget *retry.Budget // nil = unlimited failover/hedge budget

	// reloadMu serializes SIGHUP rollouts; graphPath is re-read under it.
	reloadMu  sync.Mutex
	graphPath string

	ready atomic.Bool
}

func newProxyServer(graphPath string, cfg proxyConfig) (*proxyServer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	p := &proxyServer{
		cfg:       cfg,
		metrics:   &landmarkrd.Metrics{},
		graphPath: graphPath,
	}
	inflight := cfg.maxInflight
	if inflight <= 0 {
		inflight = 64
	}
	p.Kit = serve.New("coordinator", log.New(os.Stderr, "rdproxy: ", 0), &p.metrics.Panics,
		inflight, cfg.timeout, cfg.seed)
	timeout := cfg.timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	p.client = &http.Client{Timeout: timeout}
	p.budget = retry.NewBudget(cfg.retryBudget, cfg.retryRatio)
	for _, name := range cfg.replicas {
		r := &replica{name: name}
		r.healthy.Store(true) // optimistic until the first poll says otherwise
		if cfg.breakerWindow > 0 {
			r.breaker = breaker.New(breaker.Options{
				Window:      cfg.breakerWindow,
				OpenTimeout: cfg.breakerWindow,
				Now:         cfg.now,
				OnOpen:      p.metrics.BreakerOpens.Inc,
				OnProbe:     p.metrics.BreakerHalfOpenProbes.Inc,
			})
		}
		p.replicas = append(p.replicas, r)
	}
	if cfg.cacheSize > 0 {
		p.cache = rcache.New(cfg.cacheSize, p.metrics)
	}
	st, err := p.buildState()
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	p.ready.Store(true)
	return p, nil
}

// buildState loads the graph and resolves the fleet portfolio (snapshot
// first, else a fresh build), then wires the consistent-hash router with
// the portfolio's cost law as the affinity score.
func (p *proxyServer) buildState() (*proxyState, error) {
	g, _, err := landmarkrd.LoadEdgeList(p.graphPath)
	if err != nil {
		return nil, fmt.Errorf("rdproxy: loading graph: %w", err)
	}
	var pf *landmarkrd.PortfolioIndex
	if p.cfg.snapshot != "" {
		pf, err = landmarkrd.LoadPortfolioIndex(p.cfg.snapshot, g)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("rdproxy: portfolio snapshot %s: %w", p.cfg.snapshot, err)
		}
	}
	if pf == nil {
		mode, ok := map[string]landmarkrd.DiagMode{
			"exact": landmarkrd.DiagExactCG, "mc": landmarkrd.DiagMC, "sketch": landmarkrd.DiagSketch,
		}[p.cfg.indexMode]
		if !ok {
			return nil, fmt.Errorf("rdproxy: need -snapshot or -index-mode exact|mc|sketch to resolve the fleet portfolio (got %q)", p.cfg.indexMode)
		}
		k := p.cfg.portfolioK
		if k <= 0 {
			k = len(p.cfg.replicas)
		}
		pf, err = landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
			K: k, Mode: mode, Seed: p.cfg.seed, Metrics: p.metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("rdproxy: building fleet portfolio: %w", err)
		}
	}
	router, err := cluster.NewRouter(p.cfg.replicas, pf.K(), p.cfg.vnodes,
		func(j, s, t int) float64 { return pf.RouteCost(j, s, t) })
	if err != nil {
		return nil, err
	}
	return &proxyState{g: g, pf: pf, router: router, fp: g.Fingerprint()}, nil
}

// reload is the SIGHUP rollout: re-read the graph (and snapshot, if
// configured) and publish a fresh routing state. The graph fingerprint is
// the fleet-wide version — when it changes, every cached answer of the old
// version stops being looked up. On failure the old state stays current.
func (p *proxyServer) reload() error {
	p.reloadMu.Lock()
	defer p.reloadMu.Unlock()
	p.ready.Store(false)
	defer p.ready.Store(true)
	st, err := p.buildState()
	if err != nil {
		return err
	}
	old := p.state.Swap(st)
	if old != nil && old.fp != st.fp {
		p.Logger.Printf("rolled out graph version %#x (was %#x)", st.fp, old.fp)
	}
	return nil
}

// healthSweep polls every replica's /readyz once, synchronously. The
// health loop calls it on a ticker; tests call it directly after flipping
// a stub replica's readiness. Probe results pass through the hysteresis
// filter: a replica flips up/down only after -health-hysteresis
// consecutive contrary probes, so one dropped poll cannot evict a shard
// owner and one lucky poll cannot resurrect a flapping one.
func (p *proxyServer) healthSweep(ctx context.Context) {
	for _, r := range p.replicas {
		up := func() bool {
			reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, r.name+"/readyz", nil)
			if err != nil {
				return false
			}
			resp, err := p.client.Do(req)
			if err != nil {
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}()
		p.observeHealth(r, up)
	}
}

// observeHealth applies one probe result to r with hysteresis: the health
// bit flips only after healthHyst consecutive observations contradicting
// it; a probe agreeing with the current state resets the streak.
func (p *proxyServer) observeHealth(r *replica, up bool) {
	if up == r.healthy.Load() {
		r.streak = 0
		return
	}
	r.streak++
	need := p.cfg.healthHyst
	if need <= 0 {
		need = 1
	}
	if r.streak >= need {
		r.healthy.Store(up)
		r.streak = 0
		dir := "down"
		if up {
			dir = "up"
		}
		p.Logger.Printf("replica %s marked %s after %d consecutive probes", r.name, dir, need)
	}
}

// healthLoop drives healthSweep until ctx is done.
func (p *proxyServer) healthLoop(ctx context.Context) {
	interval := p.cfg.healthInt
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p.healthSweep(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.healthSweep(ctx)
		}
	}
}

func (p *proxyServer) replicaByName(name string) *replica {
	for _, r := range p.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// healthyCount returns how many replicas the last sweep saw ready.
func (p *proxyServer) healthyCount() int {
	n := 0
	for _, r := range p.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}

// pairReply is the subset of a replica's /v1/pair response the proxy
// relays, plus the proxy's own routing fields.
type pairReply struct {
	S          int      `json:"s"`
	T          int      `json:"t"`
	Value      float64  `json:"value"`
	Converged  bool     `json:"converged"`
	Degraded   bool     `json:"degraded,omitempty"`
	ErrorBound *float64 `json:"error_bound,omitempty"`
	Landmark   int      `json:"landmark"`
	Replica    string   `json:"replica,omitempty"`
	Cache      string   `json:"cache,omitempty"`
	Failovers  int      `json:"failovers,omitempty"`
}

// errAllShardsDown reports that every routed replica was down, saturated,
// or failing.
var errAllShardsDown = errors.New("rdproxy: no replica could answer")

// errRetryBudgetExhausted reports that the global retry budget denied
// further failover/hedge attempts: the query fails fast rather than
// multiplying offered load.
var errRetryBudgetExhausted = errors.New("rdproxy: retry budget exhausted")

// errDeadlineBudget reports that the remaining request deadline was too
// small for another downstream attempt, so the owner-walk stopped early.
var errDeadlineBudget = errors.New("rdproxy: remaining deadline too small for another attempt")

// errHedgeLost is the cancellation cause attached to uncapped attempts
// still running when the walk returns.
var errHedgeLost = errors.New("rdproxy: hedged attempt lost the race")

// errAttemptTimeout is the cancellation cause of the per-attempt timeout.
var errAttemptTimeout = errors.New("rdproxy: per-attempt timeout")

// minAttempt is the remaining request deadline the owner walk needs to
// start another downstream attempt; with less left it stops with a 504
// instead of launching a doomed request.
const minAttempt = 2 * time.Millisecond

// replicaError is a replica's non-200 answer to a forwarded pair query.
type replicaError struct {
	status     int
	body       string
	retryAfter int // parsed Retry-After seconds, 0 if absent
}

func (e *replicaError) Error() string {
	return fmt.Sprintf("replica answered %d: %s", e.status, e.body)
}

// unavailableError decorates a terminal routing failure with the largest
// Retry-After any downstream replica suggested, so the client's backoff
// hint survives the fan-out.
type unavailableError struct {
	cause      error
	retryAfter int
}

func (e *unavailableError) Error() string { return e.cause.Error() }
func (e *unavailableError) Unwrap() error { return e.cause }

// forward sends one pair query to a single replica and parses the reply;
// a non-200 answer comes back as a *replicaError.
func (p *proxyServer) forward(ctx context.Context, base string, s, t int) (pairReply, error) {
	u := fmt.Sprintf("%s/v1/pair?s=%d&t=%d", base, s, t)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return pairReply{}, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return pairReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return pairReply{}, &replicaError{status: resp.StatusCode, body: string(body), retryAfter: ra}
	}
	var out pairReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return pairReply{}, fmt.Errorf("replica %s: bad response body: %w", base, err)
	}
	return out, nil
}

// attemptOutcome is how one downstream attempt ended. The driver sets
// timedOut, lost and clientErr from the contexts it made, so no verdict
// depends on how net/http wraps a cancellation.
type attemptOutcome struct {
	target cluster.Target
	hedged bool // launched by the hedge timer, not a failover
	reply  pairReply
	err    error
	// timedOut: the per-attempt timeout cut it; lost: it was still
	// running when its walk returned.
	timedOut, lost bool
	clientErr      error // the client's context error when it ended, if any
}

// verdict is what one attempt outcome means for its replica's breaker
// (drop: no verdict; otherwise a success or a failure) and for the owner
// walk, which either fails over to the next owner or ends with the outcome.
type verdict struct{ ok, drop, failover bool }

// classify is the one outcome table the attempt's breaker and the walk
// both read; the first matching row wins:
//
//	outcome                               breaker  walk
//	answered 200                          ok       ends with the answer
//	still running when its walk returned  drop     (already over)
//	cut by -attempt-timeout               fail     fails over unless the client left
//	ended after the client left           drop     ends with the client's error
//	5xx or transport error                fail     fails over
//	429: the replica shed load            drop     fails over
//	other 4xx: the request was bad        ok       ends with the error
func classify(o attemptOutcome) verdict {
	var re *replicaError
	switch {
	case o.err == nil:
		return verdict{ok: true}
	case o.lost:
		return verdict{drop: true}
	case o.timedOut:
		return verdict{failover: o.clientErr == nil}
	case o.clientErr != nil:
		return verdict{drop: true}
	case !errors.As(o.err, &re) || re.status >= 500:
		return verdict{failover: true}
	case re.status == http.StatusTooManyRequests:
		return verdict{drop: true, failover: true}
	}
	return verdict{ok: true}
}

// record applies the verdict to b (nil when breakers are off).
func (v verdict) record(b *breaker.Breaker) {
	switch {
	case b == nil:
	case v.drop:
		b.Drop()
	default:
		b.Record(v.ok)
	}
}

// event is what the walk hears: an attempt's outcome, the hedge timer
// firing, or the client leaving (gone holds its context error).
type event struct {
	out   attemptOutcome
	hedge bool
	gone  error
}

// actionKind is what the walk asks of its driver.
type actionKind int8

const (
	actLaunch   actionKind = iota // start an attempt at target
	actArmHedge                   // start the hedge timer
	actFinish                     // return reply, err to the client
)

type action struct {
	kind   actionKind
	target cluster.Target // actLaunch
	hedged bool           // actLaunch
	reply  pairReply      // actFinish
	err    error          // actFinish
}

// walk is one pair's owner walk as a step machine over the cost-ordered
// owner list. It owns no goroutine, timer or HTTP client: advance and step
// read the admission checks (health, breaker, retry budget, deadline on
// cfg.now) and return actions for a driver to carry out, so routePair's
// select loop and a simulator on a virtual clock run the same walk.
//
//   - Unready replicas and replicas whose breaker is open are skipped
//     (one ShardFailovers each, no downstream load).
//   - Every launch after the first withdraws a retry-budget token; an
//     empty bucket stops the walk, so downstream attempts never exceed
//     queries plus deposited tokens.
//   - A launch needs minAttempt of deadline left, else the walk stops
//     with a 504.
//   - While an attempt is out and an owner remains, the hedge timer is
//     armed; its firing launches one hedged attempt at the next owner.
//   - The largest downstream Retry-After rides the terminal error.
type walk struct {
	p        *proxyServer
	s, t     int
	targets  []cluster.Target
	deadline time.Time // the client's; zero when it has none

	next, launched, pending, failovers int
	hedgeArmed                         bool
	// blocked is why the latest admission launched nothing:
	// errRetryBudgetExhausted, errDeadlineBudget or nil.
	blocked, lastErr error
	maxRetryAfter    int
	buf              [2]action // backs the actions one call returns
}

// step advances the walk by one event.
func (w *walk) step(ev event) []action {
	switch {
	case ev.gone != nil:
		return append(w.buf[:0], action{kind: actFinish, err: ev.gone})
	case ev.hedge:
		w.hedgeArmed = false
		return w.advance(true)
	}
	w.pending--
	o := ev.out
	switch v := classify(o); {
	case o.err == nil:
		w.p.metrics.ShardRouted.Inc()
		if o.hedged {
			w.p.metrics.HedgeWins.Inc()
		}
		o.reply.Replica, o.reply.Failovers = o.target.Member, w.failovers
		return append(w.buf[:0], action{kind: actFinish, reply: o.reply})
	case !v.failover:
		return append(w.buf[:0], action{kind: actFinish, err: cmp.Or(o.clientErr, o.err)})
	}
	w.failovers++
	w.p.metrics.ShardFailovers.Inc()
	w.lastErr = o.err
	var re *replicaError
	if errors.As(o.err, &re) && re.retryAfter > w.maxRetryAfter {
		w.maxRetryAfter = re.retryAfter
	}
	return w.advance(false)
}

// advance launches the next owner that passes admission; unready
// replicas and open breakers are skipped, while a short deadline or an
// empty budget blocks the walk. It then finishes the walk if nothing is
// out, or arms the hedge timer if it is off and an owner is left to race.
// The walk starts with advance(false).
func (w *walk) advance(hedged bool) []action {
	acts := w.buf[:0]
	w.blocked = nil
owners:
	for ; w.next < len(w.targets); w.next++ {
		tg := w.targets[w.next]
		r := w.p.replicaByName(tg.Member)
		switch {
		case r == nil || !r.healthy.Load():
		case !w.deadline.IsZero() && w.deadline.Sub(w.p.cfg.now()) < minAttempt:
			w.blocked = errDeadlineBudget
			break owners
		case r.breaker != nil && !r.breaker.Allow():
		case w.launched > 0 && !w.p.budget.Withdraw():
			w.p.metrics.RetryBudgetExhausted.Inc()
			verdict{drop: true}.record(r.breaker) // hand back a half-open probe slot
			w.blocked = errRetryBudgetExhausted
			break owners
		default:
			if hedged {
				w.p.metrics.HedgedRequests.Inc()
			}
			w.next++
			w.launched++
			w.pending++
			acts = append(acts, action{kind: actLaunch, target: tg, hedged: hedged})
			break owners
		}
		w.failovers++
		w.p.metrics.ShardFailovers.Inc()
	}
	switch {
	case w.pending == 0:
		return append(acts, action{kind: actFinish, err: w.failure()})
	case w.p.cfg.hedgeAfter > 0 && !w.hedgeArmed && w.next < len(w.targets) && w.blocked == nil:
		w.hedgeArmed = true
		acts = append(acts, action{kind: actArmHedge})
	}
	return acts
}

// failure is the walk's terminal error when no owner answered.
func (w *walk) failure() error {
	err := cmp.Or(w.blocked, errAllShardsDown)
	switch {
	case err == errDeadlineBudget:
		w.p.Logger.Printf("pair (%d,%d): stopping failover after %d/%d attempts, %v of deadline left (last: %v)",
			w.s, w.t, w.launched, len(w.targets), w.deadline.Sub(w.p.cfg.now()).Round(time.Millisecond), w.lastErr)
		return err
	case w.lastErr != nil:
		err = fmt.Errorf("%w (last: %v)", err, w.lastErr)
	}
	return &unavailableError{cause: err, retryAfter: w.maxRetryAfter}
}

// routePair runs the owner walk for (s,t) on goroutines and real hedge
// timers. Without -attempt-timeout an attempt runs under the walk's own
// context, cancelled with errHedgeLost when the walk returns. With it, an
// attempt is detached from the client and bounded only by its timeout, so
// one abandoned because the race was decided (or the client left) still
// records a genuine breaker verdict: success if the replica was merely
// slower than the winner, failure if it never answered by the cap.
// Reaping such losers at once would leave a blackholed cheapest owner with
// no verdicts at all, since every race against it is over long before its
// timeout. The timeout is relative because context deadlines live on the
// wall clock, which an injected test clock cannot drive.
func (p *proxyServer) routePair(ctx context.Context, st *proxyState, s, t int) (pairReply, error) {
	p.budget.Deposit()
	w := &walk{p: p, s: s, t: t, targets: st.router.Route(st.fp, s, t)}
	w.deadline, _ = ctx.Deadline()
	wctx, reap := context.WithCancelCause(ctx)
	defer reap(errHedgeLost)
	// One slot per owner, the most attempts a walk launches, so an attempt
	// that ends after its walk returned never blocks.
	results := make(chan attemptOutcome, len(w.targets))
	var hedgeC <-chan time.Time
	for acts := w.advance(false); ; {
		for _, a := range acts {
			switch a.kind {
			case actLaunch:
				go p.attempt(ctx, wctx, a, s, t, results)
			case actArmHedge:
				// The walk re-arms only after a firing, so each timer
				// fires at most once; at most one per owner is stopped here.
				hedge := time.NewTimer(p.cfg.hedgeAfter)
				defer hedge.Stop()
				hedgeC = hedge.C
			case actFinish:
				return a.reply, a.err
			}
		}
		select {
		case o := <-results:
			// The client may have left after the attempt ended.
			o.clientErr = cmp.Or(o.clientErr, ctx.Err())
			acts = w.step(event{out: o})
		case <-hedgeC:
			acts = w.step(event{hedge: true})
		case <-ctx.Done():
			acts = w.step(event{gone: ctx.Err()})
		}
	}
}

// attempt runs one launched attempt, records its breaker verdict (also
// when its walk has already returned) and delivers its outcome.
func (p *proxyServer) attempt(ctx, wctx context.Context, a action, s, t int, results chan<- attemptOutcome) {
	actx, release := wctx, context.CancelFunc(func() {})
	if p.cfg.attemptTimeout > 0 {
		actx, release = context.WithTimeoutCause(context.WithoutCancel(ctx), p.cfg.attemptTimeout, errAttemptTimeout)
	}
	defer release()
	reply, err := p.forward(actx, a.target.Member, s, t)
	cause := context.Cause(actx)
	o := attemptOutcome{target: a.target, hedged: a.hedged, reply: reply, err: err,
		timedOut: errors.Is(cause, errAttemptTimeout), lost: errors.Is(cause, errHedgeLost), clientErr: ctx.Err()}
	classify(o).record(p.replicaByName(a.target.Member).breaker)
	results <- o
}

// solvePair answers one pair through the cache (when configured) and the
// routed fan-out. Keys carry the current state's graph fingerprint, so a
// rollout retires stale entries wholesale. Only converged, non-degraded
// replies are stored or shared; a waiter on any other reply routes its own.
func (p *proxyServer) solvePair(ctx context.Context, st *proxyState, s, t int) (pairReply, error) {
	if p.cache == nil {
		return p.routePair(ctx, st, s, t)
	}
	key := rcache.NewKey(st.fp, s, t)
	var full pairReply
	var have bool
	v, out, err := p.cache.Do(ctx, key, func() (float64, bool, error) {
		reply, err := p.routePair(ctx, st, s, t)
		if err != nil {
			return 0, false, err
		}
		full, have = reply, true
		return reply.Value, reply.Converged && !reply.Degraded, nil
	})
	switch {
	case err != nil:
		return pairReply{}, err
	case have:
		full.Cache = out.String()
		return full, nil
	}
	return pairReply{S: s, T: t, Value: v, Converged: true, Cache: out.String()}, nil
}

// routes builds the coordinator mux on the same kit as rdserver: probes,
// expvar, the query endpoints behind the admission gate, the JSON 405 and
// the recoverer.
func (p *proxyServer) routes() http.Handler {
	mux := p.NewMux(func() (string, string) {
		// Ready only when the routing state is loaded, no rollout is
		// mid-flight, and at least one replica is healthy — a fully dark
		// fleet should be pulled from the load balancer.
		switch {
		case !p.ready.Load():
			return "not_ready", "rollout in progress"
		case p.healthyCount() == 0:
			return "no_replicas", "no healthy replica"
		}
		return "", ""
	})
	p.Route(mux, http.MethodGet, "/v1/pair", p.Admit(p.handlePair))
	p.Route(mux, http.MethodPost, "/v1/batch", p.Admit(p.handleBatch))
	return p.Recover(mux)
}

func (p *proxyServer) handlePair(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	s, t, err := serve.PairParams(r, st.g.N())
	if err != nil {
		p.WriteRequestError(w, err)
		return
	}
	reply, err := p.solvePair(r.Context(), st, s, t)
	if err != nil {
		p.writeProxyError(w, err)
		return
	}
	reply.S, reply.T = s, t
	p.WriteJSON(w, struct {
		pairReply
		Epoch uint64 `json:"graph_version"`
	}{pairReply: reply, Epoch: st.fp})
}

func (p *proxyServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	pairs, ok := p.DecodePairs(w, r, maxBatchBody, st.g.N())
	if !ok {
		return
	}
	// Fan the batch out over at most batchLanes goroutines; each pair
	// routes (and caches) independently, so one saturated shard only slows
	// its own pairs. A lane is taken before its goroutine starts, so a large
	// batch never parks one goroutine per pair; once the request context is
	// done no further pair starts, and each unstarted pair reports the
	// context's error.
	ctx := r.Context()
	results := make([]pairReply, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	lanes := make(chan struct{}, batchLanes)
	for i, q := range pairs {
		select {
		case lanes <- struct{}{}:
			if ctx.Err() == nil {
				wg.Add(1)
				go func(i, s, t int) {
					defer func() { <-lanes; wg.Done() }()
					reply, err := p.solvePair(ctx, st, s, t)
					reply.S, reply.T = s, t
					results[i], errs[i] = reply, err
				}(i, q.S, q.T)
				continue
			}
			<-lanes
		case <-ctx.Done():
		}
		errs[i] = ctx.Err()
	}
	wg.Wait()
	// Partial failure stays partial: a pair whose owners were all down (or
	// whose failover budget ran out) becomes its own error envelope in
	// place, and the pairs with healthy owners still get answers. The batch
	// as a whole fails only on request-level problems (bad JSON, bad
	// vertices), checked above.
	entries := make([]any, len(pairs))
	failed, retryAfter := 0, 0
	for i, q := range pairs {
		if errs[i] == nil {
			entries[i] = results[i]
			continue
		}
		failed++
		retryAfter = max(retryAfter, downstreamRetryAfter(errs[i]))
		_, code := proxyErrorStatus(errs[i])
		entries[i] = batchEntryError{S: q.S, T: q.T, ErrorBody: serve.Envelope(code, errs[i].Error())}
	}
	if failed > 0 {
		p.Logger.Printf("batch: %d/%d pairs failed, returning per-pair envelopes", failed, len(pairs))
	}
	setRetryAfter(w, retryAfter)
	p.WriteJSON(w, struct {
		GraphVersion uint64 `json:"graph_version"`
		Results      []any  `json:"results"`
	}{GraphVersion: st.fp, Results: entries})
}

// batchEntryError is the per-pair error envelope inside a batch reply:
// the pair's coordinates plus the same {code, message} error object the
// top-level JSON errors use.
type batchEntryError struct {
	S int `json:"s"`
	T int `json:"t"`
	serve.ErrorBody
}

// proxyErrorStatus maps a fan-out failure to its HTTP status and error
// code: an exhausted retry budget or owner list is a 503 (the fleet, not
// the request, is the problem), deadline expiry — the client's or the
// failover loop's own attempt budget — a 504, a relayed replica 4xx keeps
// its status, anything else a 502. Shared by the single-pair error path
// and the per-pair batch envelopes.
func proxyErrorStatus(err error) (int, string) {
	var re *replicaError
	switch {
	case errors.Is(err, errRetryBudgetExhausted):
		return http.StatusServiceUnavailable, "retry_budget_exhausted"
	case errors.Is(err, errDeadlineBudget):
		return http.StatusGatewayTimeout, "deadline_budget_exhausted"
	case errors.Is(err, errAllShardsDown):
		return http.StatusServiceUnavailable, "no_replicas"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "canceled"
	case errors.As(err, &re):
		return re.status, "replica_error"
	default:
		return http.StatusBadGateway, "upstream"
	}
}

// downstreamRetryAfter is the largest Retry-After any replica suggested
// during a failed walk, or 0.
func downstreamRetryAfter(err error) int {
	var ue *unavailableError
	if errors.As(err, &ue) {
		return ue.retryAfter
	}
	return 0
}

// setRetryAfter sets the Retry-After header when there is a hint.
func setRetryAfter(w http.ResponseWriter, secs int) {
	if secs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// writeProxyError writes a terminal routing failure. Its Retry-After is
// the largest downstream hint, else, for the fail-fast budget 503, which
// must always carry one, the jittered band the admission gate uses.
func (p *proxyServer) writeProxyError(w http.ResponseWriter, err error) {
	status, code := proxyErrorStatus(err)
	ra := downstreamRetryAfter(err)
	if ra == 0 && errors.Is(err, errRetryBudgetExhausted) {
		ra = p.RetryAfter()
	}
	setRetryAfter(w, ra)
	p.WriteError(w, status, code, err.Error())
}
