package landmarkrd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/core"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/guard"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/retry"
)

// PairQuery is one (s, t) query in a batch.
type PairQuery struct {
	S, T int
}

// PairResult is the outcome of one batch query, in input order.
type PairResult struct {
	PairQuery
	Estimate Estimate
	Err      error
	// Degraded marks an answer produced by the low-cost fallback tier
	// (deadline pressure or explicit load shedding). A degraded estimate
	// carries a conservative absolute error bound in Estimate.ErrBound.
	Degraded bool
	// Attempts is how many times the query ran: 1 normally, more when
	// transient failures were retried.
	Attempts int
}

// ConflictPolicy selects how batch queries touching the landmark are
// answered.
type ConflictPolicy int

const (
	// ConflictExact answers landmark-touching queries with the exact CG
	// solver. This is the zero value: a zero BatchOptions never fails a
	// query just because it happened to hit the landmark.
	ConflictExact ConflictPolicy = iota
	// ConflictError fails the individual query with ErrLandmarkConflict
	// (reported in its PairResult.Err; the batch itself still succeeds).
	ConflictError
)

// String implements fmt.Stringer.
func (p ConflictPolicy) String() string {
	switch p {
	case ConflictExact:
		return "exact"
	case ConflictError:
		return "error"
	default:
		return fmt.Sprintf("conflictpolicy(%d)", int(p))
	}
}

// BatchOptions configures Pairs and NewBatchEngine. The zero value is
// usable: landmark selected by strategy, GOMAXPROCS workers, and
// landmark-touching queries answered exactly.
type BatchOptions struct {
	// Options configures each worker's estimator.
	Options Options
	// Workers is the number of parallel workers (default GOMAXPROCS).
	// Worker w handles queries w, w+Workers, w+2·Workers, ..., but every
	// query draws from its own random stream derived from Options.Seed
	// and the query position, so batch results are byte-identical at any
	// worker count.
	Workers int
	// Landmark pins the landmark vertex when PinLandmark is true (0 is a
	// valid vertex, hence the explicit flag). Setting Landmark to a
	// nonzero vertex while leaving PinLandmark false is rejected with an
	// error rather than silently ignored.
	Landmark    int
	PinLandmark bool
	// Portfolio routes every query through a K-landmark portfolio built on
	// the same graph: each query tries landmarks in ascending cost-law
	// order (PortfolioIndex.Route), skipping any that collide with an
	// endpoint, so landmark-conflict fallbacks to the exact solver only
	// happen when every member conflicts. Mutually exclusive with
	// PinLandmark. The engine keeps one estimator pool per landmark;
	// results stay byte-identical across worker counts.
	Portfolio *PortfolioIndex
	// OnConflict selects how queries touching the landmark are answered.
	// The zero value, ConflictExact, falls back to the exact solver.
	OnConflict ConflictPolicy
	// Metrics, when non-nil, is the shared observability sink for the
	// batch: every worker estimator records into it, and the engine
	// counts estimator builds and exact fallbacks there. When nil the
	// engine allocates its own (readable via BatchEngine.Stats).
	Metrics *Metrics
	// MaxAttempts is the per-query attempt budget for transient failures
	// (default 1 = no retries). The first attempt draws from exactly the
	// stream the no-retry path uses, so enabling retries cannot change the
	// answer of a query that succeeds first try; retried attempts resample
	// from a salted stream, with jittered exponential backoff between them
	// (counted in Stats().Retries).
	MaxAttempts int
	// Retriable classifies an error as transient, i.e. worth another
	// attempt. When nil, only injected test faults are considered
	// transient; cancellation and validation errors are never retried
	// regardless.
	Retriable func(error) bool
	// DegradeBelow enables deadline-aware degradation: a query that starts
	// with less than this much context deadline remaining is answered by
	// the degraded Monte Carlo tier — a low-walk absorbed-walk estimate
	// with a conservative error bound — and marked Degraded, instead of
	// starting exact/CG work it cannot finish. Zero disables the check.
	DegradeBelow time.Duration
	// DegradedWalks is the degraded tier's per-endpoint walk budget
	// (default 128).
	DegradedWalks int
}

// BatchEngine answers repeated batches of resistance queries over one
// graph. Construction does the per-graph work once — landmark selection
// (which may rank vertices by an expensive strategy), the weighted-sampling
// index, validation — and a sync.Pool recycles per-worker estimators with
// their O(n) scratch buffers across Pairs calls, so a steady stream of
// batches pays for estimator construction only on pool misses. The shared
// Metrics sink proves the amortization: Stats().EstimatorBuilds stays flat
// across repeated calls while Queries grows.
//
// The engine is safe for concurrent use; individual pooled estimators are
// not shared between in-flight workers.
type BatchEngine struct {
	g         *Graph
	method    Method
	opts      BatchOptions
	landmark  int
	portfolio *PortfolioIndex
	seed      uint64
	// pools[j] recycles estimators for portfolio position j; without a
	// portfolio there is a single pool at position 0.
	pools   []sync.Pool
	degPool sync.Pool // degraded-tier AbWalk estimators
	metrics *Metrics
}

// NewBatchEngine validates opts, selects the landmark, and prepares the
// shared immutable state every pooled estimator reads.
func NewBatchEngine(g *Graph, m Method, opts BatchOptions) (*BatchEngine, error) {
	if err := requireGraph(g); err != nil {
		return nil, err
	}
	if opts.Landmark != 0 && !opts.PinLandmark {
		return nil, fmt.Errorf("landmarkrd: BatchOptions.Landmark = %d without PinLandmark; set PinLandmark (or leave Landmark zero to select by strategy)", opts.Landmark)
	}
	seed := opts.Options.Seed
	if seed == 0 {
		seed = 1
	}
	landmark := -1
	pools := 1
	switch {
	case opts.Portfolio != nil:
		if opts.PinLandmark {
			return nil, fmt.Errorf("landmarkrd: BatchOptions.Portfolio and PinLandmark are mutually exclusive")
		}
		if opts.Portfolio.G != g {
			return nil, fmt.Errorf("landmarkrd: BatchOptions.Portfolio was built on a different graph")
		}
		landmark = opts.Portfolio.Primary()
		pools = opts.Portfolio.K()
	case opts.PinLandmark:
		landmark = opts.Landmark
		if err := g.ValidateVertex(landmark); err != nil {
			return nil, fmt.Errorf("landmarkrd: batch landmark: %w", err)
		}
	default:
		v, err := core.SelectLandmark(g, opts.Options.Strategy, randx.New(seed))
		if err != nil {
			return nil, err
		}
		landmark = v
	}
	// The weighted-sampling index must exist before concurrent reads.
	g.EnsureSamplingIndex()
	metrics := opts.Metrics
	if metrics == nil {
		metrics = &Metrics{}
	}
	return &BatchEngine{
		g:         g,
		method:    m,
		opts:      opts,
		landmark:  landmark,
		portfolio: opts.Portfolio,
		seed:      seed,
		pools:     make([]sync.Pool, pools),
		metrics:   metrics,
	}, nil
}

// Landmark returns the landmark vertex every batch query uses; with a
// portfolio it is the primary (first-selected) landmark, and individual
// queries may route elsewhere.
func (e *BatchEngine) Landmark() int { return e.landmark }

// Graph returns the graph the engine was built on.
func (e *BatchEngine) Graph() *Graph { return e.g }

// Portfolio returns the portfolio the engine routes through, or nil.
func (e *BatchEngine) Portfolio() *PortfolioIndex { return e.portfolio }

// Stats snapshots the engine's shared metrics: queries, push ops, walk
// steps, estimator builds (pool misses), exact fallbacks, and latency/work
// histograms aggregated over every worker.
func (e *BatchEngine) Stats() Stats { return e.metrics.Snapshot() }

// landmarkAt returns the landmark vertex of portfolio position j (always
// the engine landmark without a portfolio).
func (e *BatchEngine) landmarkAt(j int) int {
	if e.portfolio != nil {
		return e.portfolio.Landmarks[j]
	}
	return e.landmark
}

// acquire returns a pooled estimator for portfolio position j or builds
// one on a pool miss.
func (e *BatchEngine) acquire(j int) (*Estimator, error) {
	if v := e.pools[j].Get(); v != nil {
		return v.(*Estimator), nil
	}
	est, err := NewEstimatorAt(e.g, e.method, e.landmarkAt(j), e.opts.Options)
	if err != nil {
		return nil, err
	}
	est.SetMetrics(e.metrics)
	e.metrics.EstimatorBuilds.Inc()
	return est, nil
}

// acquireDegraded returns a pooled degraded-tier estimator (a low-walk
// AbWalk sampler) or builds one on a pool miss.
func (e *BatchEngine) acquireDegraded() (*core.AbWalkEstimator, error) {
	if v := e.degPool.Get(); v != nil {
		return v.(*core.AbWalkEstimator), nil
	}
	walks := e.opts.DegradedWalks
	if walks <= 0 {
		walks = 128
	}
	deg, err := core.NewAbWalkEstimator(e.g, e.landmark, core.AbWalkOptions{
		Walks:    walks,
		MaxSteps: e.opts.Options.MaxSteps,
	}, randx.New(e.seed))
	if err != nil {
		return nil, err
	}
	deg.SetMetrics(e.metrics)
	e.metrics.EstimatorBuilds.Inc()
	return deg, nil
}

// defaultRetriable is the transient-error classification used when
// BatchOptions.Retriable is nil: only injected test faults qualify.
func defaultRetriable(err error) bool { return errors.Is(err, faultinject.ErrInjected) }

// fatalError marks an error that must fail the whole batch (estimator
// construction failure, mid-query cancellation), as opposed to a per-query
// error recorded in that query's PairResult.
type fatalError struct{ error }

func (f fatalError) Unwrap() error { return f.error }

// batchWorker holds one worker's pooled estimator with panic-poisoning: an
// estimator that panicked mid-query may hold arbitrarily corrupt internal
// state, so it is dropped on the floor instead of being returned to the
// pool, and the next query builds (or pool-Gets) a fresh one.
type batchWorker struct {
	e    *BatchEngine
	ests []*Estimator // one slot per portfolio position (one without)
}

// estimator returns the worker's estimator for portfolio position j,
// acquiring one if needed.
func (w *batchWorker) estimator(j int) (*Estimator, error) {
	if w.ests == nil {
		w.ests = make([]*Estimator, len(w.e.pools))
	}
	if w.ests[j] == nil {
		est, err := w.e.acquire(j)
		if err != nil {
			return nil, err
		}
		w.ests[j] = est
	}
	return w.ests[j], nil
}

// poison discards position j's estimator without returning it to the pool.
func (w *batchWorker) poison(j int) {
	if w.ests != nil {
		w.ests[j] = nil
	}
}

// close returns the healthy estimators to their pools.
func (w *batchWorker) close() {
	for j, est := range w.ests {
		if est != nil {
			w.e.pools[j].Put(est)
			w.ests[j] = nil
		}
	}
}

// attempt runs one full-fidelity attempt of query q with the given seed.
// With a portfolio it routes the query through routePair (cheapest
// landmark first, falling back across the members on conflict, exact
// columns handed to BiPush); without one it always uses the engine
// landmark. When every member conflicts the OnConflict policy decides
// (ConflictExact answers with the exact solver).
func (e *BatchEngine) attempt(ctx context.Context, w *batchWorker, q PairQuery, seed uint64) (Estimate, error) {
	if e.portfolio == nil {
		return e.attemptAt(ctx, w, 0, nil, q, seed)
	}
	return routePair(e.portfolio, e.metrics, q.S, q.T, func(j int, diag []float64) (Estimate, error) {
		return e.attemptAt(ctx, w, j, diag, q, seed)
	})
}

// attemptAt runs one attempt of query q against portfolio position j
// (diag: its exact column, or nil), recovering a panicking estimator into
// a typed internal error.
func (e *BatchEngine) attemptAt(ctx context.Context, w *batchWorker, j int, diag []float64, q PairQuery, seed uint64) (Estimate, error) {
	est, err := w.estimator(j)
	if err != nil {
		return Estimate{}, fatalError{err}
	}
	// Per-query streams keep the answer to query i a pure function of
	// (seed, i) — independent of which worker ran it and of the worker
	// count.
	est.Reseed(seed)
	var res Estimate
	err = guard.Run(func() error {
		var perr error
		res, perr = est.pairDiagContext(ctx, q.S, q.T, diag)
		return perr
	})
	if errors.Is(err, guard.ErrInternal) {
		w.poison(j)
		e.metrics.Panics.Inc()
		return Estimate{}, err
	}
	return res, err
}

// attemptDegraded runs one degraded-tier attempt: a low-walk Monte Carlo
// estimate whose ErrBound is set to four CI half-widths plus a truncation
// allowance — conservative enough that the true resistance lies within
// Value ± ErrBound with overwhelming probability.
func (e *BatchEngine) attemptDegraded(ctx context.Context, q PairQuery, seed uint64) (Estimate, error) {
	deg, err := e.acquireDegraded()
	if err != nil {
		return Estimate{}, fatalError{err}
	}
	var res Estimate
	var half float64
	err = guard.Run(func() error {
		deg.Reseed(randx.New(seed ^ 0xabcdef))
		var derr error
		res, half, derr = deg.PairWithCIContext(ctx, q.S, q.T)
		return derr
	})
	if err != nil {
		if errors.Is(err, guard.ErrInternal) {
			// Poisoned: drop instead of pooling.
			e.metrics.Panics.Inc()
		} else {
			e.degPool.Put(deg)
		}
		return Estimate{}, err
	}
	e.degPool.Put(deg)
	res.ErrBound = 4 * half
	if res.Walks > 0 && res.LandmarkHits < res.Walks {
		// Truncated walks bias the estimate low by at most their share of
		// the total mass; widen the bound by that fraction of the value.
		res.ErrBound += res.Value * float64(res.Walks-res.LandmarkHits) / float64(res.Walks)
	}
	return res, nil
}

// runQuery answers query i into out, applying (in order) the retry budget
// for transient failures, the degraded tier when degrade is set, and the
// landmark-conflict fallback. It returns a non-nil error only for
// batch-fatal conditions (cancellation, estimator construction failure).
func (e *BatchEngine) runQuery(ctx context.Context, w *batchWorker, fi *faultinject.Hook, i int, q PairQuery, degrade bool, out *PairResult) error {
	qseed := e.seed + uint64(i+1)*0x9e3779b97f4a7c15
	maxAttempts := e.opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	retriable := e.opts.Retriable
	if retriable == nil {
		retriable = defaultRetriable
	}
	var jitter func() float64
	if maxAttempts > 1 {
		// The backoff jitter draws from its own per-query stream so retry
		// timing never perturbs the estimator's sampling stream.
		jitter = randx.New(qseed ^ 0x94d049bb133111eb).Float64
	}
	var res Estimate
	degraded := false
	attempts, err := retry.Do(ctx, retry.Policy{MaxAttempts: maxAttempts}, jitter, retriable,
		func() { e.metrics.Retries.Inc() },
		func(attempt int) error {
			seed := qseed
			if attempt > 1 {
				// Salted stream per retry: resampling with fresh randomness
				// is the point of retrying a Monte Carlo estimator.
				seed = qseed + uint64(attempt-1)*0x6a09e667f3bcc909
			}
			// Guard the fire itself: an injected panic at this site must
			// surface as ErrInternal, not kill the worker goroutine.
			if ferr := guard.Run(fi.Fire); ferr != nil {
				if errors.Is(ferr, guard.ErrInternal) {
					e.metrics.Panics.Inc()
				}
				return ferr
			}
			var aerr error
			if degrade {
				res, aerr = e.attemptDegraded(ctx, q, seed)
				degraded = aerr == nil
			} else {
				res, aerr = e.attempt(ctx, w, q, seed)
			}
			return aerr
		})
	out.Attempts = attempts
	var fatal fatalError
	if errors.As(err, &fatal) {
		return fatal.error
	}
	if errors.Is(err, ErrCanceled) {
		// A mid-query abort fails the whole batch, not just this query:
		// the caller's deadline has passed.
		return err
	}
	// Landmark conflicts under ConflictExact are NOT resolved here: the
	// worker leaves the conflict error in the result and pairs() answers
	// all of them afterwards in one grouped multi-RHS exact solve (see
	// resolveConflictsExact). Sentinels may arrive wrapped, so downstream
	// matching uses errors.Is rather than ==.
	if degraded && err == nil {
		out.Degraded = true
		e.metrics.Degraded.Inc()
	}
	out.Estimate = res
	out.Err = err
	return nil
}

// Pairs answers a batch of queries in parallel. Worker w deterministically
// handles queries w, w+workers, ..., and each query i reseeds its
// estimator to a stream derived from Options.Seed and i alone, so the
// results are byte-identical across calls, across engines, across worker
// counts, and identical to the one-shot Pairs function — whether or not
// the pool had warm estimators.
func (e *BatchEngine) Pairs(queries []PairQuery) ([]PairResult, error) {
	return e.PairsContext(context.Background(), queries)
}

// PairsContext is Pairs with cancellation: every worker polls ctx between
// queries and each query's kernels poll it internally, so once the context
// is done the whole batch aborts within microseconds and the call returns
// a nil slice and an error matching ErrCanceled (and the context cause —
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout). With
// a non-cancellable ctx the results are byte-identical to Pairs.
func (e *BatchEngine) PairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return e.pairs(ctx, queries, false)
}

// DegradedPairsContext answers every query with the degraded Monte Carlo
// tier regardless of the deadline — the load-shedding entry point the
// server uses when admission pressure is high. Every successful result is
// marked Degraded and carries its error bound in Estimate.ErrBound.
func (e *BatchEngine) DegradedPairsContext(ctx context.Context, queries []PairQuery) ([]PairResult, error) {
	return e.pairs(ctx, queries, true)
}

func (e *BatchEngine) pairs(ctx context.Context, queries []PairQuery, forceDegraded bool) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	done := cancel.Done(ctx)
	var deadline time.Time
	hasDeadline := false
	if ctx != nil {
		deadline, hasDeadline = ctx.Deadline()
	}
	// Fault hook, fired once per query attempt; nil unless armed.
	fi := faultinject.At(faultinject.SiteBatchQuery)
	results := make([]PairResult, len(queries))
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			bw := &batchWorker{e: e}
			defer bw.close()
			if e.portfolio == nil && !forceDegraded {
				// Acquire the worker's estimator up front rather than on its
				// first query. Lazy acquisition lets a fast-finishing sibling
				// return its estimator to the pool before a late-starting
				// worker's first Get, making the build count (and the "one
				// build per worker per cold batch" invariant) depend on
				// goroutine scheduling. Portfolio engines stay lazy: they
				// only build the positions routing actually touches.
				if _, err := bw.estimator(0); err != nil {
					errs[worker] = err
					return
				}
			}
			for i := worker; i < len(queries); i += workers {
				if done != nil {
					select {
					case <-done:
						errs[worker] = cancel.Wrap(ctx.Err())
						return
					default:
					}
				}
				q := queries[i]
				results[i].PairQuery = q
				degrade := forceDegraded ||
					(e.opts.DegradeBelow > 0 && hasDeadline && time.Until(deadline) < e.opts.DegradeBelow)
				if err := e.runQuery(ctx, bw, fi, i, q, degrade, &results[i]); err != nil {
					errs[worker] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if e.opts.OnConflict == ConflictExact {
		if err := e.resolveConflictsExact(ctx, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// resolveConflictsExact answers every pending landmark-conflict result with
// the exact CG solver, grouping queries that share a grounding vertex into
// one multi-RHS block solve (one operator sweep per iteration for the whole
// group) instead of one independent solve per query. Each answer is
// bit-for-bit what the inline ExactContext fallback would have produced:
// the grounding vertex, right-hand side, tolerance, and CG recurrence are
// identical per pair. Groups are processed in first-appearance order, so
// the pass is deterministic. It returns a non-nil error only for
// batch-fatal conditions (cancellation).
func (e *BatchEngine) resolveConflictsExact(ctx context.Context, results []PairResult) error {
	groups := make(map[int][]int)
	var order []int
	for i := range results {
		if results[i].Err == nil || !errors.Is(results[i].Err, ErrLandmarkConflict) {
			continue
		}
		v := lap.GroundVertex(e.g, results[i].S, results[i].T)
		if _, ok := groups[v]; !ok {
			order = append(order, v)
		}
		groups[v] = append(groups[v], i)
	}
	for _, v := range order {
		idxs := groups[v]
		pairs := make([][2]int, len(idxs))
		for k, i := range idxs {
			pairs[k] = [2]int{results[i].S, results[i].T}
		}
		values, perrs, err := lap.ResistanceBatchCG(ctx, e.g, v, pairs, 0)
		if err != nil {
			if errors.Is(err, ErrCanceled) {
				// A mid-solve abort fails the whole batch: the caller's
				// deadline has passed.
				return err
			}
			// The whole group failed (disconnected graph, injected fault):
			// surface the error on each pending query with a zero estimate.
			for _, i := range idxs {
				results[i].Estimate, results[i].Err = Estimate{}, err
				results[i].Degraded = false
				e.metrics.FallbackErrors.Inc()
			}
			continue
		}
		for k, i := range idxs {
			if perrs[k] != nil {
				results[i].Estimate, results[i].Err = Estimate{}, perrs[k]
				results[i].Degraded = false
				e.metrics.FallbackErrors.Inc()
				continue
			}
			results[i].Estimate = Estimate{Value: values[k], Converged: true}
			results[i].Err = nil
			results[i].Degraded = false // the conflict fallback answered exactly
			e.metrics.ExactFallbacks.Inc()
		}
	}
	return nil
}

// AdaptiveBatchOptions configures AdaptivePairs.
type AdaptiveBatchOptions struct {
	// TotalWalks is the batch-wide walk-pair budget shared across all
	// queries (default 2000 per query — the fixed-budget estimator's
	// per-pair default, now allocated where the variance is).
	TotalWalks int
	// PilotWalks is the per-query pilot round size (default 64).
	PilotWalks int
}

// AdaptivePairs answers a batch of queries with the adaptive Monte Carlo
// allocator: a pilot round measures every pair's per-walk variance, then
// the remaining walk budget goes to the hard (high-variance) pairs so all
// pairs finish at approximately equal 95% error bands (reported in
// Estimate.ErrBound). Easy pairs stop at the pilot instead of spending the
// same budget as hard ones. Results are byte-identical for a fixed engine
// seed at any worker count. Landmark-conflict queries follow the engine's
// OnConflict policy (grouped exact solves under ConflictExact).
func (e *BatchEngine) AdaptivePairs(queries []PairQuery, opts AdaptiveBatchOptions) ([]PairResult, error) {
	return e.AdaptivePairsContext(context.Background(), queries, opts)
}

// AdaptivePairsContext is AdaptivePairs with cancellation: once ctx is done
// the walk loops abort and the call returns a nil slice and an error
// matching ErrCanceled.
func (e *BatchEngine) AdaptivePairsContext(ctx context.Context, queries []PairQuery, opts AdaptiveBatchOptions) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	pairs := make([]core.AdaptivePair, len(queries))
	for i, q := range queries {
		pairs[i] = core.AdaptivePair{S: q.S, T: q.T}
	}
	ares, err := core.AdaptiveBatch(ctx, e.g, e.landmark, pairs, core.AdaptiveOptions{
		TotalWalks: opts.TotalWalks,
		PilotWalks: opts.PilotWalks,
		MaxSteps:   e.opts.Options.MaxSteps,
		Workers:    e.opts.Workers,
		Metrics:    e.metrics,
	}, e.seed)
	if err != nil {
		return nil, err
	}
	results := make([]PairResult, len(queries))
	for i, r := range ares {
		results[i] = PairResult{
			PairQuery: queries[i],
			Estimate:  r.Estimate,
			Err:       r.Err,
			Attempts:  1,
		}
	}
	if e.opts.OnConflict == ConflictExact {
		if err := e.resolveConflictsExact(ctx, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Pairs answers one batch of resistance queries in parallel. It is the
// one-shot form of BatchEngine.Pairs: workloads issuing repeated batches
// over the same graph should build a BatchEngine once and reuse it, which
// amortizes landmark selection and estimator scratch buffers.
func Pairs(g *Graph, m Method, queries []PairQuery, opts BatchOptions) ([]PairResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	engine, err := NewBatchEngine(g, m, opts)
	if err != nil {
		return nil, err
	}
	return engine.Pairs(queries)
}
