package main

import (
	"container/heap"
	"context"
	"errors"
	"io"
	"log"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/breaker"
	"landmarkrd/internal/faultinject"
)

// The owner-walk simulator drives the production walk (advance, step,
// classify, the real breakers and retry budget of a real proxyServer)
// from a discrete-event loop on a virtual clock: no HTTP, no goroutines,
// no wall-clock timer. Scripted replicas decide each attempt's fate with
// faultinject schedules, and the driver mirrors routePair's: uncapped
// attempts end when their walk returns or the client leaves, capped ones
// run on to their own timeout and still record a breaker verdict.

// simFate is what a scripted replica does with one attempt.
type simFate int

const (
	fateOK        simFate = iota // answers after a short latency
	fateSlow                     // answers, but only after the hedge delay
	fateShed                     // 429 with Retry-After
	fateFail                     // 503
	fateBlackhole                // never answers
)

// simRule is one scripted behaviour; the first due rule decides a fate.
type simRule struct {
	fate  simFate
	sched *faultinject.Schedule
}

type simReplica struct {
	rules     []simRule
	shedsOnly bool // its only faults are 429s and slowness
	blackhole bool // every attempt is blackholed
	fails     int  // breaker failures recorded against it
	launches  []time.Duration
	openedAt  time.Duration // first time its breaker opened; -1 = never
}

func (r *simReplica) decide() simFate {
	for _, rule := range r.rules {
		if rule.sched.Due() {
			return rule.fate
		}
	}
	return fateOK
}

type simPair struct {
	s, t  int
	exact float64
}

type simQuery struct {
	pair     simPair
	w        *walk
	gone     bool // the client's deadline passed
	done     bool
	uncapped []*simAttempt // attempts reaped when the walk returns
	oks      map[string]bool
	reply    pairReply
	err      error
}

type simAttempt struct {
	q     *simQuery
	a     action
	fate  simFate
	ended bool
}

type simEvent struct {
	at  time.Duration
	seq int
	fn  func()
}

type simQueue []simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// sim is one seeded schedule: a proxy, its scripted replicas and the
// virtual clock they share.
type sim struct {
	rng      *rand.Rand
	p        *proxyServer
	clock    *fakeClock
	now      time.Duration
	events   simQueue
	seq      int
	replicas map[string]*simReplica
	attempts []*simAttempt
	// okMarkedFail counts attempts the replica answered that were charged
	// a breaker failure; shedFailovers counts 429s the walk failed over on.
	okMarkedFail, shedFailovers int
}

func (m *sim) at(d time.Duration, fn func()) {
	m.seq++
	heap.Push(&m.events, simEvent{at: m.now + d, seq: m.seq, fn: fn})
}

func (m *sim) run() {
	for m.events.Len() > 0 {
		e := heap.Pop(&m.events).(simEvent)
		m.clock.Advance(e.at - m.now)
		m.now = e.at
		e.fn()
	}
}

// arrive starts one query exactly as routePair does.
func (m *sim) arrive(q *simQuery, timeout time.Duration) {
	st := m.p.state.Load()
	m.p.budget.Deposit()
	q.w = &walk{p: m.p, s: q.pair.s, t: q.pair.t, targets: st.router.Route(st.fp, q.pair.s, q.pair.t)}
	if timeout > 0 {
		q.w.deadline = m.clock.Now().Add(timeout)
		m.at(timeout, func() {
			q.gone = true
			if !q.done {
				m.apply(q, q.w.step(event{gone: context.DeadlineExceeded}))
			}
			m.reap(q)
		})
	}
	m.apply(q, q.w.advance(false))
}

// apply carries out the walk's actions.
func (m *sim) apply(q *simQuery, acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actLaunch:
			m.launch(q, a)
		case actArmHedge:
			m.at(m.p.cfg.hedgeAfter, func() {
				if !q.done {
					m.apply(q, q.w.step(event{hedge: true}))
				}
			})
		case actFinish:
			q.done, q.reply, q.err = true, a.reply, a.err
			m.reap(q)
		}
	}
}

// reap ends a query's uncapped attempts, as cancelling the walk's context
// does once the walk returns or the client leaves.
func (m *sim) reap(q *simQuery) {
	for _, at := range q.uncapped {
		m.end(at, false, true)
	}
}

func (m *sim) launch(q *simQuery, a action) {
	r := m.replicas[a.target.Member]
	at := &simAttempt{q: q, a: a, fate: r.decide()}
	m.attempts = append(m.attempts, at)
	r.launches = append(r.launches, m.now)
	latency := time.Duration(500+m.rng.Intn(4500)) * time.Microsecond
	if at.fate == fateSlow {
		latency = time.Duration(45_000+m.rng.Intn(50_000)) * time.Microsecond
	}
	if m.p.cfg.attemptTimeout == 0 {
		q.uncapped = append(q.uncapped, at)
	}
	if at.fate != fateBlackhole {
		m.at(latency, func() { m.end(at, false, false) })
		return
	}
	// A blackholed attempt ends at its cap or at the HTTP client's own
	// timeout, whichever comes first.
	limit, capped := m.p.client.Timeout, false
	if c := m.p.cfg.attemptTimeout; c > 0 && c < limit {
		limit, capped = c, true
	}
	m.at(limit, func() { m.end(at, capped, false) })
}

// end finishes one attempt: by its cap, by cancellation, or with the
// replica's scripted answer. Like the attempt goroutine, it records the
// breaker verdict whether or not the walk still listens.
func (m *sim) end(at *simAttempt, timedOut, cancelled bool) {
	if at.ended {
		return
	}
	at.ended = true
	q := at.q
	o := attemptOutcome{target: at.a.target, hedged: at.a.hedged, timedOut: timedOut}
	switch {
	case timedOut:
		o.err = context.DeadlineExceeded
	case cancelled:
		o.err, o.lost = context.Canceled, !q.gone
	case at.fate == fateShed:
		o.err = &replicaError{status: 429, retryAfter: 1 + m.rng.Intn(3)}
	case at.fate == fateFail:
		o.err = &replicaError{status: 503}
	case at.fate == fateBlackhole:
		o.err = errClientTimeout
	default:
		o.reply = pairReply{S: q.pair.s, T: q.pair.t, Value: q.pair.exact, Converged: true}
		q.oks[at.a.target.Member] = true
	}
	if q.gone {
		o.clientErr = context.DeadlineExceeded
	}
	v := classify(o)
	r := m.replicas[at.a.target.Member]
	br := m.p.replicaByName(at.a.target.Member).breaker
	v.record(br)
	if !v.ok && !v.drop {
		r.fails++
		if at.fate == fateOK || at.fate == fateSlow {
			m.okMarkedFail++
		}
		if br != nil && r.openedAt < 0 && br.State() == breaker.Open {
			r.openedAt = m.now
		}
	}
	if !q.done {
		if at.fate == fateShed && v.failover {
			m.shedFailovers++
		}
		m.apply(q, q.w.step(event{out: o}))
	}
}

// errClientTimeout stands for the transport error net/http returns when
// its Client.Timeout cuts a request.
var errClientTimeout = errors.New("net/http: request canceled (Client.Timeout exceeded)")

// simTotals counts what the schedules exercised, so no property holds
// vacuously.
type simTotals struct {
	answers, hedgeWins, budgetStops, deadlineStops, shedFailovers, shedOnly, blackholeChecks int
}

// TestOwnerWalkSimulation runs 1,000 seeded schedules of 60 queries each
// and checks, per schedule: downstream attempts <= queries + budget
// tokens; no attempt a replica answered (so no race loser that was only
// slower) is charged a breaker failure; a replica that only sheds never
// opens its breaker; a blackholed owner under attemptTimeout trips its
// breaker within one window; every answer is the single-process answer
// bit for bit. The CI chaos job runs it with -race -count=2.
func TestOwnerWalkSimulation(t *testing.T) {
	const (
		schedules = 1000
		queries   = 60
		window    = 2 * time.Second
	)
	g := loadTestGraph(t)
	pf, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{
		K: 6, Mode: landmarkrd.DiagExactCG, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "fleet.snap")
	if err := landmarkrd.SavePortfolioIndex(pf, snap); err != nil {
		t.Fatal(err)
	}
	names := []string{"http://sim-a:1", "http://sim-b:1", "http://sim-c:1"}
	rng := rand.New(rand.NewSource(1))
	pairs := make([]simPair, 16)
	for i := range pairs {
		s, tt := rng.Intn(g.N()), rng.Intn(g.N())
		for tt == s {
			tt = rng.Intn(g.N())
		}
		v, err := landmarkrd.Exact(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = simPair{s: s, t: tt, exact: v}
	}

	var tot simTotals
	for seed := int64(1); seed <= schedules; seed++ {
		runSchedule(t, seed, snap, names, pairs, queries, window, &tot)
		if t.Failed() {
			t.Fatalf("schedule %d failed", seed)
		}
	}
	t.Logf("%d schedules: %+v", schedules, tot)
	for name, n := range map[string]int{
		"answers": tot.answers, "hedge wins": tot.hedgeWins, "budget stops": tot.budgetStops,
		"deadline stops": tot.deadlineStops, "shed failovers": tot.shedFailovers,
		"shed-only replicas": tot.shedOnly, "blackhole trip checks": tot.blackholeChecks,
	} {
		if n == 0 {
			t.Errorf("no schedule exercised %s", name)
		}
	}
}

func runSchedule(t *testing.T, seed int64, snap string, names []string, pairs []simPair,
	queries int, window time.Duration, tot *simTotals) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(ds ...time.Duration) time.Duration { return ds[rng.Intn(len(ds))] }
	clock := newFakeClock()
	timeout := pick(0, 6*time.Millisecond, 21*time.Millisecond, 150*time.Millisecond, time.Second)
	cfg := proxyConfig{
		replicas:       names,
		portfolioK:     6,
		snapshot:       snap,
		seed:           7,
		hedgeAfter:     pick(0, 20*time.Millisecond, 40*time.Millisecond),
		attemptTimeout: pick(0, 100*time.Millisecond, 200*time.Millisecond),
		retryBudget:    []int{0, 3, 20}[rng.Intn(3)],
		retryRatio:     []float64{0, 0.1}[rng.Intn(2)],
		breakerWindow:  pick(0, window, window),
		timeout:        timeout,
		now:            clock.Now,
	}
	p, err := newProxyServer(corpusGraph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Logger = log.New(io.Discard, "", 0)
	m := &sim{rng: rng, p: p, clock: clock, replicas: map[string]*simReplica{}}
	sched := func(after, every, count int) *faultinject.Schedule {
		return &faultinject.Schedule{After: int64(after), Every: int64(every), Count: int64(count)}
	}
	for i, name := range names {
		r := &simReplica{openedAt: -1}
		switch role := rng.Intn(8); role {
		case 0, 1: // healthy
			r.shedsOnly = true
		case 2:
			r.shedsOnly = true
			r.rules = []simRule{{fateShed, sched(rng.Intn(4), 1+rng.Intn(2), []int{0, 10}[rng.Intn(2)])}}
		case 3:
			r.shedsOnly = true
			r.rules = []simRule{
				{fateShed, sched(rng.Intn(3), 2, 0)},
				{fateSlow, sched(0, 1+rng.Intn(3), 0)},
			}
		case 4:
			r.rules = []simRule{{fateFail, sched(rng.Intn(4), 1+rng.Intn(3), []int{0, 8}[rng.Intn(2)])}}
		case 5:
			r.blackhole = true
			r.rules = []simRule{{fateBlackhole, sched(0, 1, 0)}}
		case 6:
			r.rules = []simRule{
				{fateBlackhole, sched(rng.Intn(5), 3, 6)},
				{fateFail, sched(1, 4, 0)},
				{fateShed, sched(0, 5, 0)},
			}
		case 7:
			p.replicas[i].healthy.Store(false)
		}
		m.replicas[name] = r
	}

	qs := make([]*simQuery, queries)
	var arrival time.Duration
	for i := range qs {
		q := &simQuery{pair: pairs[rng.Intn(len(pairs))], oks: map[string]bool{}}
		qs[i] = q
		m.at(arrival, func() { m.arrive(q, timeout) })
		arrival += time.Duration(rng.ExpFloat64() * float64(10*time.Millisecond))
	}
	m.run()

	// Every attempt ended once, so every breaker Allow was balanced.
	for _, at := range m.attempts {
		if !at.ended {
			t.Fatalf("seed %d: an attempt at %s never ended", seed, at.a.target.Member)
		}
	}
	// Downstream attempts <= queries + budget tokens.
	if cfg.retryBudget > 0 {
		bound := queries + cfg.retryBudget + int(math.Floor(cfg.retryRatio*float64(queries)))
		if len(m.attempts) > bound {
			t.Errorf("seed %d: %d downstream attempts for %d queries, the budget bounds them at %d",
				seed, len(m.attempts), queries, bound)
		}
	}
	// A loser that was only slower never records a breaker failure.
	if m.okMarkedFail > 0 {
		t.Errorf("seed %d: %d attempts the replica answered were charged breaker failures", seed, m.okMarkedFail)
	}
	for i, name := range names {
		r := m.replicas[name]
		br := p.replicas[i].breaker
		// A replica that only sheds (or is slow) never opens its breaker.
		if r.shedsOnly && p.replicas[i].healthy.Load() {
			tot.shedOnly++
			if r.fails > 0 {
				t.Errorf("seed %d: shed-only replica %s recorded %d breaker failures", seed, name, r.fails)
			}
			if br != nil && br.State() != breaker.Closed {
				t.Errorf("seed %d: shed-only replica %s has its breaker %v", seed, name, br.State())
			}
		}
		// A blackholed owner under attemptTimeout (shorter than the
		// request timeout, or the client gives up first) trips its breaker
		// within one window once enough attempts reach it.
		capped := cfg.attemptTimeout > 0 && (timeout == 0 || cfg.attemptTimeout < timeout)
		if r.blackhole && br != nil && capped && len(r.launches) > 0 {
			first, inWindow := r.launches[0], 0
			for _, l := range r.launches {
				if l-first <= window/2 {
					inWindow++
				}
			}
			if inWindow >= 5 {
				tot.blackholeChecks++
				if r.openedAt < 0 || r.openedAt-first > window+cfg.attemptTimeout {
					t.Errorf("seed %d: blackholed %s got %d attempts in half a window from %v but its breaker opened at %v",
						seed, name, inWindow, first, r.openedAt)
				}
			}
		}
	}
	// Every answer is the single-process answer, bit for bit, from a
	// replica that answered this query.
	for i, q := range qs {
		switch {
		case !q.done:
			t.Fatalf("seed %d: query %d never finished", seed, i)
		case q.err != nil:
			if errors.Is(q.err, errDeadlineBudget) {
				tot.deadlineStops++
			}
			continue
		case math.Float64bits(q.reply.Value) != math.Float64bits(q.pair.exact) ||
			q.reply.S != q.pair.s || q.reply.T != q.pair.t:
			t.Errorf("seed %d: query %d answered %+v, want (%d,%d) = %v", seed, i, q.reply, q.pair.s, q.pair.t, q.pair.exact)
		case !q.oks[q.reply.Replica]:
			t.Errorf("seed %d: query %d credited to %s, which never answered it", seed, i, q.reply.Replica)
		}
		tot.answers++
	}
	tot.shedFailovers += m.shedFailovers
	tot.hedgeWins += int(p.metrics.HedgeWins.Load())
	tot.budgetStops += int(p.metrics.RetryBudgetExhausted.Load())
}
