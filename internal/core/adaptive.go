package core

import (
	"context"
	"errors"
	"math"
	"time"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/faultinject"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/walk"
)

// AdaptivePair is one (s, t) query in an adaptive Monte Carlo batch.
type AdaptivePair struct {
	S, T int
}

// AdaptiveOptions configures AdaptiveBatch.
type AdaptiveOptions struct {
	// TotalWalks is the batch-wide walk-pair budget (default
	// 2000·len(pairs), matching the fixed-budget estimator's per-pair
	// default). One walk-pair is one absorbed walk from s plus one from t.
	TotalWalks int
	// PilotWalks is the per-pair pilot round size (default 64, clamped so
	// the pilot never exceeds the total budget).
	PilotWalks int
	// MaxSteps truncates each walk (default 100·n, as in AbWalkOptions).
	MaxSteps int
	// Workers shards pairs across a worker pool (default GOMAXPROCS).
	// Results are byte-identical for a fixed seed at any worker count:
	// every pair samples from its own random stream and the budget
	// allocation depends only on the (deterministic) pilot statistics.
	Workers int
	// Metrics, when non-nil, receives one ObserveQuery per pair.
	Metrics *obs.Metrics
}

// AdaptiveResult is one pair's outcome: the estimate, the 95%
// normal-approximation half-width the allocation equalized, and a per-pair
// error (landmark conflict, invalid vertex, sampling fault).
type AdaptiveResult struct {
	Estimate Estimate
	ErrBound float64
	Err      error
}

// adaptivePairState is the accumulator a pair carries across the pilot and
// top-up rounds. Its rng stream is private to the pair, so which worker
// samples it — and in which round — cannot change the estimate.
type adaptivePairState struct {
	s, t     int
	ds, dt   float64
	rng      *randx.RNG
	sum      float64
	sumSq    float64
	walks    int // walk-pairs sampled so far
	extra    int // top-up allocation
	steps    int64
	hits     int
	elapsed  time.Duration
	err      error
	inactive bool // validation failed or s == t; sampled by neither round
}

// AdaptiveBatch estimates r(s,t) for a batch of pairs with a shared walk
// budget allocated GEER-style: a pilot round measures every pair's per-walk
// variance, then the remaining budget is split proportionally to those
// variances (Neyman allocation), concentrating samples on hard pairs so all
// pairs end at (approximately) equal a-priori 95% error bands — easy pairs
// stop at the pilot instead of burning the same budget as hard ones.
//
// Per-pair failures (landmark conflict, invalid vertices) land in that
// pair's AdaptiveResult.Err; the batch error is reserved for cancellation.
// Every estimate is an unbiased sample mean of the same per-walk statistic
// the fixed-budget estimator uses, and for a fixed seed the results are
// byte-identical at any worker count.
func AdaptiveBatch(ctx context.Context, g *graph.Graph, landmark int, pairs []AdaptivePair, opts AdaptiveOptions, seed uint64) ([]AdaptiveResult, error) {
	results := make([]AdaptiveResult, len(pairs))
	if len(pairs) == 0 {
		return results, nil
	}
	if err := g.ValidateVertex(landmark); err != nil {
		return nil, err
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100 * g.N()
		if maxSteps < 100000 {
			maxSteps = 100000
		}
	}
	total := opts.TotalWalks
	if total <= 0 {
		total = 2000 * len(pairs)
	}
	pilot := opts.PilotWalks
	if pilot <= 0 {
		pilot = 64
	}
	if pilot*len(pairs) > total {
		pilot = total / len(pairs)
		if pilot < 1 {
			pilot = 1
		}
	}

	states := make([]*adaptivePairState, len(pairs))
	for i, pr := range pairs {
		st := &adaptivePairState{
			s: pr.S, t: pr.T,
			rng: randx.New(seed + uint64(i+1)*0x9e3779b97f4a7c15),
		}
		states[i] = st
		if err := validateQuery(g, landmark, pr.S, pr.T); err != nil {
			st.err = err
			st.inactive = true
			continue
		}
		if pr.S == pr.T {
			st.inactive = true // results[i] stays the zero estimate, Converged below
			continue
		}
		st.ds, st.dt = g.WeightedDegree(pr.S), g.WeightedDegree(pr.T)
	}

	g.EnsureSamplingIndex()
	workers := indexWorkers(opts.Workers, len(pairs))

	// samplePhase runs count(i) additional walk-pairs for every live pair,
	// sharded across workers. A canceled pair poisons the whole batch; any
	// other sampling failure is recorded on the pair alone.
	samplePhase := func(count func(i int) int) error {
		return runIndexWorkers(workers, opts.Metrics, func(worker int, _ *obs.Metrics) error {
			sampler := walk.NewSampler(g)
			fi := faultinject.At(faultinject.SiteWalkLoop)
			for i := worker; i < len(states); i += workers {
				st := states[i]
				if st.inactive || st.err != nil {
					continue
				}
				n := count(i)
				if n <= 0 {
					continue
				}
				t0 := time.Now()
				err := sampleWalkPairs(ctx, sampler, fi, g, landmark, st, n, maxSteps)
				st.elapsed += time.Since(t0)
				if err != nil {
					if errors.Is(err, cancel.ErrCanceled) {
						return err // batch-fatal
					}
					st.err = err
				}
			}
			return nil
		})
	}

	// Pilot round: equal footing, enough walks for a usable variance
	// estimate.
	if err := samplePhase(func(int) int { return pilot }); err != nil {
		return nil, err
	}

	// Neyman allocation of the remaining budget: extra_i ∝ σ̂_i², which
	// equalizes the a-priori half-widths 1.96·σ̂_i/√n_i across pairs.
	live := 0
	for _, st := range states {
		if !st.inactive && st.err == nil {
			live++
		}
	}
	if extra := total - pilot*live; extra > 0 && live > 0 {
		allocateByVariance(states, extra)
		if err := samplePhase(func(i int) int { return states[i].extra }); err != nil {
			return nil, err
		}
	}

	for i, st := range states {
		if st.err != nil {
			results[i].Err = st.err
			opts.Metrics.ObserveQuery(obs.QueryObservation{Err: true})
			continue
		}
		if st.inactive { // s == t
			results[i].Estimate = Estimate{Converged: true}
			continue
		}
		nr := float64(st.walks)
		mean := st.sum / nr
		variance := math.Max(0, st.sumSq/nr-mean*mean)
		half := 1.96 * math.Sqrt(variance/nr)
		if mean < 0 {
			mean = 0 // resistance cannot be negative; clamp sampling noise
		}
		est := Estimate{
			Value:        mean,
			ErrBound:     half,
			Walks:        2 * st.walks,
			WalkSteps:    st.steps,
			LandmarkHits: st.hits,
			Duration:     st.elapsed,
			Converged:    st.hits == 2*st.walks,
		}
		results[i].Estimate = est
		results[i].ErrBound = half
		opts.Metrics.ObserveQuery(est.observation())
	}
	return results, nil
}

// sampleWalkPairs draws n walk-pairs for st, extending its running moments.
// The per-walk statistic is exactly PairWithCIContext's combined visit-count
// expression, so a pilot+top-up totalling k walk-pairs reproduces a k-walk
// fixed-budget estimate bit for bit.
func sampleWalkPairs(ctx context.Context, sampler *walk.Sampler, fi *faultinject.Hook, g *graph.Graph, landmark int, st *adaptivePairState, n, maxSteps int) error {
	for i := 0; i < n; i++ {
		if err := fi.Fire(); err != nil {
			return err
		}
		var vSS, vST, vTT, vTS float64
		steps, abs, err := sampler.AbsorbedVisitsContext(ctx, st.s, landmark, maxSteps, st.rng, func(u int) {
			switch u {
			case st.s:
				vSS++
			case st.t:
				vST++
			}
		})
		st.steps += int64(steps)
		if err != nil {
			return err
		}
		if abs {
			st.hits++
		}
		steps, abs, err = sampler.AbsorbedVisitsContext(ctx, st.t, landmark, maxSteps, st.rng, func(u int) {
			switch u {
			case st.t:
				vTT++
			case st.s:
				vTS++
			}
		})
		st.steps += int64(steps)
		if err != nil {
			return err
		}
		if abs {
			st.hits++
		}
		x := vSS/st.ds + vTT/st.dt - vST/st.dt - vTS/st.ds
		st.sum += x
		st.sumSq += x * x
		st.walks++
	}
	return nil
}

// allocateByVariance splits extra walk-pairs across the live pairs
// proportionally to their pilot sample variances, using largest-remainder
// rounding (ties by index) so the allocation is integral, exhausts the
// budget exactly, and is deterministic. A degenerate all-zero-variance pilot
// falls back to an even split.
func allocateByVariance(states []*adaptivePairState, extra int) {
	type share struct {
		i    int
		frac float64
	}
	var sumVar float64
	live := make([]int, 0, len(states))
	for i, st := range states {
		st.extra = 0
		if st.inactive || st.err != nil {
			continue
		}
		live = append(live, i)
		nr := float64(st.walks)
		mean := st.sum / nr
		sumVar += math.Max(0, st.sumSq/nr-mean*mean)
	}
	if len(live) == 0 {
		return
	}
	shares := make([]share, 0, len(live))
	assigned := 0
	for _, i := range live {
		st := states[i]
		var want float64
		if sumVar > 0 {
			nr := float64(st.walks)
			mean := st.sum / nr
			want = float64(extra) * math.Max(0, st.sumSq/nr-mean*mean) / sumVar
		} else {
			want = float64(extra) / float64(len(live))
		}
		base := int(math.Floor(want))
		st.extra = base
		assigned += base
		shares = append(shares, share{i: i, frac: want - float64(base)})
	}
	// Hand the leftover walks to the largest fractional remainders,
	// breaking ties by index for determinism.
	for rem := extra - assigned; rem > 0; rem-- {
		best := -1
		for j := range shares {
			if best < 0 || shares[j].frac > shares[best].frac {
				best = j
			}
		}
		if best < 0 {
			break
		}
		states[shares[best].i].extra++
		shares[best].frac = -1
	}
}
