package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// BiPushOptions controls the bidirectional estimator.
type BiPushOptions struct {
	// PushTheta is the degree-normalized residual threshold of the
	// deterministic phase (default 1e-2). Looser than a standalone Push:
	// Monte Carlo removes the remaining bias.
	PushTheta float64
	// Walks is the number of residual-correction walks per correction
	// side (default 500): two sides for PairContext, one for
	// PairDiagContext. A negative value disables the Monte Carlo correction
	// entirely, degenerating BiPush to plain Push (useful for ablations).
	Walks int
	// MaxSteps truncates each correction walk (default as in AbWalk).
	MaxSteps int
	// MaxOps bounds the push phase.
	MaxOps int64
}

func (o *BiPushOptions) withDefaults(n int) BiPushOptions {
	out := *o
	if out.PushTheta <= 0 {
		out.PushTheta = 1e-2
	}
	if out.Walks == 0 {
		out.Walks = 500
	} else if out.Walks < 0 {
		out.Walks = 0
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = 100 * n
		if out.MaxSteps < 100000 {
			out.MaxSteps = 100000
		}
	}
	return out
}

// BiPushEstimator combines a cheap grounded push with absorbed walks
// started from the residual distribution. The push invariant
//
//	τ(s,x) = est(x) + Σ_u res(u)·τ(u,x)
//
// makes the correction term an expectation over u ~ res/‖res‖₁ of
// ‖res‖₁·τ(u,x), so sampling absorbed walks from the residuals yields an
// unbiased final estimate whose variance is damped by the (small) ‖res‖₁.
//
// PairContext runs one push-and-correct side per endpoint.
// PairDiagContext is the index-assisted form: given the exact landmark
// diagonal it runs a single side and uses the known diagonal entry as a
// control variate (see THEORY.md, "Index-assisted BiPush").
type BiPushEstimator struct {
	pusher  *Pusher
	sampler *walk.Sampler
	opts    BiPushOptions
	rng     *randx.RNG
	metrics *obs.Metrics

	// Warm-path scratch, reused across queries: the residual CDF and the
	// visit tally with its callback, bound once so the walk loop never
	// builds a closure.
	cum   []float64
	tally visitTally
	visit func(u int)
}

// NewBiPushEstimator builds a bidirectional estimator with landmark v.
func NewBiPushEstimator(g *graph.Graph, landmark int, opts BiPushOptions, rng *randx.RNG) (*BiPushEstimator, error) {
	p, err := NewPusher(g, landmark)
	if err != nil {
		return nil, err
	}
	e := &BiPushEstimator{
		pusher:  p,
		sampler: walk.NewSampler(g),
		opts:    opts,
		rng:     rng,
		metrics: &obs.Metrics{},
	}
	e.visit = e.tally.count
	return e, nil
}

// Landmark returns the landmark vertex.
func (e *BiPushEstimator) Landmark() int { return e.pusher.landmark }

// Metrics returns the estimator's metrics sink.
func (e *BiPushEstimator) Metrics() *obs.Metrics { return e.metrics }

// SetMetrics redirects recording to m (e.g. a sink shared across a pool of
// estimators). Call before issuing queries, not concurrently with them.
func (e *BiPushEstimator) SetMetrics(m *obs.Metrics) { e.metrics = m }

// Reseed resets the estimator's random stream, making subsequent queries a
// deterministic function of rng regardless of prior use.
func (e *BiPushEstimator) Reseed(rng *randx.RNG) { e.rng = rng }

// visitTally counts one correction walk's visits to the two tracked
// vertices a and b, and folds each finished walk into running totals and
// the Welford co-moments of the per-walk counts.
type visitTally struct {
	a, b   int
	ca, cb int // visits of the walk in progress

	walks      int
	sumA, sumB float64 // visits summed over finished walks
	meanA      float64 // Welford running mean of the per-walk counts
	meanB      float64
	m2A        float64 // Σ (ca − meanA)²
	cAB        float64 // Σ (ca − meanA)(cb − meanB)
}

func (v *visitTally) reset(a, b int) { *v = visitTally{a: a, b: b} }

func (v *visitTally) count(u int) {
	switch u {
	case v.a:
		v.ca++
	case v.b:
		v.cb++
	}
}

// endWalk folds the finished walk's counts into the totals and moments.
func (v *visitTally) endWalk() {
	a, b := float64(v.ca), float64(v.cb)
	v.sumA += a
	v.sumB += b
	v.walks++
	da := a - v.meanA
	v.meanA += da / float64(v.walks)
	v.meanB += (b - v.meanB) / float64(v.walks)
	v.m2A += da * (a - v.meanA)
	v.cAB += da * (b - v.meanB)
	v.ca, v.cb = 0, 0
}

// sideResult carries one push-and-correct side's outcome.
type sideResult struct {
	tauA, tauB float64 // corrected τ(src, a) and τ(src, b)
	// m2A and cAB are the per-walk visit-count co-moments of a and b
	// (zero without correction walks).
	m2A, cAB  float64
	stats     PushStats
	walks     int
	steps     int64
	hits      int // correction walks absorbed at the landmark
	truncated bool
}

// runSide pushes from src and corrects τ(src, a) and τ(src, b) by walks.
// ctx cancellation aborts either phase with a cancel.Error; the partial
// stats gathered so far are returned alongside the error so the caller can
// record them.
func (e *BiPushEstimator) runSide(ctx context.Context, src, a, b int, o BiPushOptions) (sideResult, error) {
	res := sideResult{}
	stats, err := e.pusher.RunContext(ctx, src, PushOptions{Theta: o.PushTheta, MaxOps: o.MaxOps})
	res.stats = stats
	if err != nil {
		return res, err
	}
	res.tauA = e.pusher.Estimate(a)
	res.tauB = e.pusher.Estimate(b)

	nodes, values := e.pusher.Residuals()
	if len(nodes) == 0 || o.Walks == 0 {
		return res, nil
	}
	// Build the cumulative residual distribution for sampling.
	if cap(e.cum) < len(values) {
		e.cum = make([]float64, len(values))
	}
	cum := e.cum[:len(values)]
	total := 0.0
	for i, v := range values {
		total += v
		cum[i] = total
	}
	if total <= 0 {
		return res, nil
	}
	tally := &e.tally
	tally.reset(a, b)
	v := e.pusher.landmark
	// Fault hook, fired once per residual-correction walk; nil unless armed.
	fi := faultinject.At(faultinject.SiteWalkLoop)
	for i := 0; i < o.Walks; i++ {
		if err := fi.Fire(); err != nil {
			res.walks = i
			return res, err
		}
		target := e.rng.Float64() * total
		idx := sort.SearchFloat64s(cum, target)
		if idx >= len(nodes) {
			idx = len(nodes) - 1
		}
		u := int(nodes[idx])
		st, abs, err := e.sampler.AbsorbedVisitsContext(ctx, u, v, o.MaxSteps, e.rng, e.visit)
		res.steps += int64(st)
		if err != nil {
			res.walks = i
			return res, err
		}
		tally.endWalk()
		if abs {
			res.hits++
		} else {
			res.truncated = true
		}
	}
	res.walks = o.Walks
	scale := total / float64(o.Walks)
	res.tauA += tally.sumA * scale
	res.tauB += tally.sumB * scale
	res.m2A, res.cAB = tally.m2A, tally.cAB
	return res, nil
}

// Pair estimates r(s,t) bidirectionally.
func (e *BiPushEstimator) Pair(s, t int) (Estimate, error) {
	return e.PairContext(context.Background(), s, t)
}

// PairContext is Pair with cancellation: the push phases poll ctx every
// few thousand edge relaxations and the correction walks every few thousand
// steps, aborting with a cancel.Error once the context is done. The partial
// push/walk work is recorded in the metrics as a canceled observation. With
// a non-cancellable ctx the RNG stream and the estimate are byte-identical
// to Pair.
func (e *BiPushEstimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	return e.PairDiagContext(ctx, s, t, nil)
}

// PairDiagContext is PairContext given the exact landmark diagonal,
// diag[u] = r(u, v) = L_v⁻¹[u,u] for the estimator's landmark v (an exact
// index or portfolio column). Only one side runs: a push from x, the
// endpoint with the smaller diag entry (by the cost law its walks are the
// cheaper ones), and Walks absorbed walks from its residuals, each
// recording a_i = ‖res‖₁·visits_i(x)/d_x and b_i = ‖res‖₁·visits_i(y)/d_y
// for the other endpoint y. With L̂xx = est(x)/d_x + ā and
// L̂xy = est(y)/d_y + b̄ the answer is
//
//	r̂ = max(0, diag[y] + L̂xx − 2·L̂xy − β̂·(L̂xx − diag[x])),
//	β̂ = 1 − 2·ĉov(a,b)/v̂ar(a)   (β̂ = 1 when v̂ar(a) = 0),
//
// the exact diag[x] serving as a control variate for the Monte Carlo
// diagonal: far pairs get β̂ ≈ 1 (the plain index formula), close pairs
// keep the a–b correlation the two-sided estimator exploits. Estimate.Walks
// counts one side's walks. A nil diag is PairContext. Cancellation behaves
// as in PairContext.
func (e *BiPushEstimator) PairDiagContext(ctx context.Context, s, t int, diag []float64) (Estimate, error) {
	start := time.Now()
	g := e.pusher.g
	if err := validateQuery(g, e.pusher.landmark, s, t); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return Estimate{}, err
	}
	if s == t {
		return Estimate{Converged: true}, nil
	}
	if diag != nil && len(diag) != g.N() {
		e.metrics.ObserveQuery(obs.QueryObservation{Err: true})
		return Estimate{}, fmt.Errorf("core: landmark diagonal has %d entries, graph has %d vertices", len(diag), g.N())
	}
	o := e.opts.withDefaults(g.N())

	if err := cancel.Check(ctx); err != nil {
		e.metrics.ObserveQuery(obs.QueryObservation{Duration: time.Since(start), Canceled: true})
		return Estimate{}, err
	}
	var sides [2]sideResult
	n := 0
	run := func(src, a, b int) error {
		var err error
		sides[n], err = e.runSide(ctx, src, a, b, o)
		n++
		return err
	}
	var val float64
	if diag == nil {
		if err := run(s, s, t); err != nil {
			return Estimate{}, e.observeAbort(start, sides[:n], err)
		}
		if err := run(t, s, t); err != nil {
			return Estimate{}, e.observeAbort(start, sides[:n], err)
		}
		fromS, fromT := sides[0], sides[1]
		ds, dt := g.WeightedDegree(s), g.WeightedDegree(t)
		val = fromS.tauA/ds + fromT.tauB/dt - fromS.tauB/dt - fromT.tauA/ds
	} else {
		x, y := s, t
		if diag[t] < diag[s] {
			x, y = t, s
		}
		if err := run(x, x, y); err != nil {
			return Estimate{}, e.observeAbort(start, sides[:n], err)
		}
		dx, dy := g.WeightedDegree(x), g.WeightedDegree(y)
		val = sides[0].diagValue(sides[0].beta(dx, dy), diag[x], diag[y], dx, dy)
	}
	// As in AbWalk: the Monte Carlo residual correction can push a
	// near-zero resistance slightly negative; clamp to the feasible range.
	if val < 0 {
		val = 0
	}
	est := Estimate{Value: val, Converged: true}
	var pushes int64
	for _, side := range sides[:n] {
		est.Walks += side.walks
		est.WalkSteps += side.steps
		est.PushOps += side.stats.Ops
		est.LandmarkHits += side.hits
		est.ResidualL1 += side.stats.ResidualL1
		est.Converged = est.Converged && side.stats.Converged && !side.truncated
		pushes += side.stats.Pushes
	}
	est.Duration = time.Since(start)
	ob := est.observation()
	ob.Pushes = pushes
	e.metrics.ObserveQuery(ob)
	return est, nil
}

// beta is the control-variate coefficient β̂ = 1 − 2·ĉov(a,b)/v̂ar(a) of
// a side run at x with a = x, b = y, where a = ‖res‖₁·ca/d_x and
// b = ‖res‖₁·cb/d_y (so the ratio is d_x/d_y times that of the visit
// counts); 1 when v̂ar(a) = 0.
func (side sideResult) beta(degX, degY float64) float64 {
	if side.m2A <= 0 {
		return 1
	}
	return 1 - 2*(degX/degY)*side.cAB/side.m2A
}

// diagValue is the unclamped index-assisted answer of a side run at x with
// a = x, b = y, given the exact diagonal entries diagX = L_v⁻¹[x,x] and
// diagY = L_v⁻¹[y,y]: diagY + L̂xx − 2·L̂xy − β·(L̂xx − diagX).
func (side sideResult) diagValue(beta, diagX, diagY, degX, degY float64) float64 {
	lxx, lxy := side.tauA/degX, side.tauB/degY
	return diagY + lxx - 2*lxy - beta*(lxx-diagX)
}

// observeAbort records a query aborted mid-side with the partial work of
// the sides run so far, and returns err.
func (e *BiPushEstimator) observeAbort(start time.Time, sides []sideResult, err error) error {
	ob := obs.QueryObservation{Duration: time.Since(start)}
	for _, side := range sides {
		ob.PushOps += side.stats.Ops
		ob.Pushes += side.stats.Pushes
		ob.Walks += int64(side.walks)
		ob.WalkSteps += side.steps
	}
	if errors.Is(err, cancel.ErrCanceled) {
		ob.Canceled = true
	} else {
		ob.Err = true
	}
	e.metrics.ObserveQuery(ob)
	return err
}
