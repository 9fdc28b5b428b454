package landmarkrd

// Index-assisted BiPush: a portfolio-routed BiPush query over exact
// (DiagExactCG) columns hands the routed column to the estimator, which
// runs one correction side and uses the exact diagonal entry as a control
// variate (core.BiPushEstimator.PairDiagContext). These tests check the
// answers against the dense oracle, pin which path answers which query —
// Estimate.Walks is one side's walks on the index path, two sides' on the
// two-sided path and 0 for the exact conflict fallback — and extend the
// Float64bits determinism contract to the index path.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"landmarkrd/internal/core"
)

// biPushWalks is BiPush's default per-side walk count.
const biPushWalks = 500

// twoSidedTwin returns a portfolio with p's landmarks and columns marked
// DiagMC: it routes every query exactly as p does, but its columns are
// not trusted as exact, so BiPush answers two-sided.
func twoSidedTwin(p *PortfolioIndex) *PortfolioIndex {
	return core.NewPortfolio(p.G, DiagMC, p.Landmarks, p.Cols)
}

// TestConformancePortfolioBiPush runs portfolio-routed BiPush over a K=4
// DiagExactCG portfolio on every corpus graph at mcSeeds seeds. Every
// answer must come from one correction side (all Walks on one side, or
// none when the push drained the residual), and per pair the mean over
// the seeds must land within 6·σ̂/√K of the dense oracle — the
// TestConformanceMonteCarlo convention, with no bias allowance: the
// estimator is unbiased.
func TestConformancePortfolioBiPush(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical conformance is not a -short test")
	}
	for _, c := range conformanceCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 7})
			if err != nil {
				t.Fatalf("BuildPortfolioIndex: %v", err)
			}
			queries := make([]PairQuery, len(c.Pairs))
			for i, pr := range c.Pairs {
				queries[i] = PairQuery{S: pr[0], T: pr[1]}
			}
			vals := make([][]float64, len(queries))
			for k := 0; k < mcSeeds; k++ {
				eng, err := NewBatchEngine(c.G, BiPush, BatchOptions{Portfolio: p, Options: Options{Seed: uint64(1000*k + 7)}})
				if err != nil {
					t.Fatalf("NewBatchEngine: %v", err)
				}
				res, err := eng.Pairs(queries)
				if err != nil {
					t.Fatalf("Pairs: %v", err)
				}
				for i, r := range res {
					if r.Err != nil {
						t.Fatalf("query %v: %v", r.PairQuery, r.Err)
					}
					if est := r.Estimate; est.Walks != biPushWalks && est.ResidualL1 != 0 {
						t.Fatalf("query %v answered with %d walks, want one side of %d", r.PairQuery, est.Walks, biPushWalks)
					}
					v := r.Estimate.Value
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("query %v: bad estimate %v", r.PairQuery, v)
					}
					vals[i] = append(vals[i], v)
				}
			}
			for i, q := range queries {
				want, err := c.O.Resistance(q.S, q.T)
				if err != nil {
					t.Fatal(err)
				}
				mean, sd := meanStd(vals[i])
				band := 6*sd/math.Sqrt(float64(len(vals[i]))) + 1e-9
				if diff := math.Abs(mean - want); diff > band {
					t.Errorf("r(%d,%d): mean %v vs oracle %v — off by %.4g, band %.4g (σ̂ %.4g)",
						q.S, q.T, mean, want, diff, band, sd)
				}
			}
		})
	}
}

// TestPortfolioBiPushPaths pins which path answers which query.
// Exact columns: BiPush runs one side (Walks = 500), also when the
// cheapest landmark collides with an endpoint and the query falls back to
// the next member; a pair colliding with every member is answered exactly
// (Walks = 0). DiagMC and DiagSketch columns, and AbWalk and Push on
// exact columns, answer exactly as before the index path existed: bit for
// bit what an engine pinned at the routed landmark answers.
func TestPortfolioBiPushPaths(t *testing.T) {
	g := determinismGraph(t)
	queries := make([]PairQuery, 24)
	for i := range queries {
		queries[i] = PairQuery{S: (i*13 + 1) % g.N(), T: (i*37 + 5) % g.N()}
	}
	exact, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 11}
	// pinned answers the batch on a single-landmark engine at v.
	pinned := func(m Method, v int) []PairResult {
		res, err := Pairs(g, m, queries, BatchOptions{Options: opts, PinLandmark: true, Landmark: v})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	routed := func(p *PortfolioIndex, q PairQuery) int {
		for _, j := range p.Route(q.S, q.T) {
			if v := p.Landmarks[j]; v != q.S && v != q.T {
				return v
			}
		}
		t.Fatalf("query %v conflicts with every landmark", q)
		return -1
	}
	check := func(t *testing.T, p *PortfolioIndex, m Method, walks int) {
		t.Helper()
		eng, err := NewBatchEngine(g, m, BatchOptions{Options: opts, Portfolio: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Pairs(queries)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[int][]PairResult{}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("query %v: %v", r.PairQuery, r.Err)
			}
			if walks >= 0 {
				if r.Estimate.Walks != walks {
					t.Errorf("query %v answered with %d walks, want %d", r.PairQuery, r.Estimate.Walks, walks)
				}
				continue
			}
			v := routed(p, r.PairQuery)
			if ref[v] == nil {
				ref[v] = pinned(m, v)
			}
			if got, want := estimateKey(r.Estimate), estimateKey(ref[v][i].Estimate); got != want {
				t.Errorf("query %v routed to %d:\n  %s\n  pinned engine: %s", r.PairQuery, v, got, want)
			}
		}
	}

	t.Run("exact/bipush", func(t *testing.T) { check(t, exact, BiPush, biPushWalks) })
	t.Run("exact-twin/bipush", func(t *testing.T) { check(t, twoSidedTwin(exact), BiPush, 2*biPushWalks) })
	for _, m := range []Method{AbWalk, Push} {
		t.Run("exact/"+m.String(), func(t *testing.T) { check(t, exact, m, -1) })
	}
	for _, mode := range []DiagMode{DiagMC, DiagSketch} {
		p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: mode, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(mode.String()+"/bipush", func(t *testing.T) { check(t, p, BiPush, -1) })
	}

	t.Run("conflicts", func(t *testing.T) {
		p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{Landmarks: exact.Landmarks[:2], Mode: DiagExactCG, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, b := p.Landmarks[0], p.Landmarks[1]
		u := queries[0].T
		eng, err := NewBatchEngine(g, BiPush, BatchOptions{Options: opts, Portfolio: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Pairs([]PairQuery{{S: a, T: u}, {S: u, T: b}, {S: a, T: b}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res[:2] {
			if r.Err != nil || r.Estimate.Walks != biPushWalks {
				t.Errorf("one-endpoint conflict %v: err %v, %d walks, want the next member's one side of %d",
					r.PairQuery, r.Err, r.Estimate.Walks, biPushWalks)
			}
		}
		want, err := Exact(g, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := res[2]; r.Err != nil || r.Estimate.Walks != 0 || math.Abs(r.Estimate.Value-want) > 1e-9*math.Max(1, want) {
			t.Errorf("all-conflict %v: err %v, %d walks, value %v, want exact %v", r.PairQuery, r.Err, r.Estimate.Walks, r.Estimate.Value, want)
		}
		if st := eng.Stats(); st.RouterFallbacks != 4 || st.ExactFallbacks != 1 {
			t.Errorf("router fallbacks %d, exact fallbacks %d; want 4 (a colliding landmark is always the cheapest) and 1", st.RouterFallbacks, st.ExactFallbacks)
		}
	})
}

// TestPortfolioBiPushDeterminism extends the Float64bits contract to the
// index path: the same batch over an exact portfolio answers identically
// at Workers 1 and 4, from a cold and a warm pool, with and without a
// cancellable context, and through LiveEpoch.PairsContext on the same
// graph and portfolio.
func TestPortfolioBiPushDeterminism(t *testing.T) {
	g := determinismGraph(t)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]PairQuery, 40)
	for i := range queries {
		queries[i] = PairQuery{S: (i*13 + 1) % g.N(), T: (i*37 + 5) % g.N()}
	}
	bo := BatchOptions{Options: Options{Seed: 11}}
	keys := func(res []PairResult, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res))
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("query %v: %v", r.PairQuery, r.Err)
			}
			out[i] = estimateKey(r.Estimate)
		}
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: query %v differs:\n  %s\n  %s", what, queries[i], got[i], want[i])
			}
		}
	}
	var want []string
	for _, workers := range []int{1, 4} {
		o := bo
		o.Portfolio, o.Workers = p, workers
		eng, err := NewBatchEngine(g, BiPush, o)
		if err != nil {
			t.Fatal(err)
		}
		cold := keys(eng.PairsContext(context.Background(), queries))
		ctx, cancel := context.WithCancel(context.Background())
		warm := keys(eng.PairsContext(ctx, queries))
		cancel()
		if want == nil {
			want = cold
		}
		same(fmt.Sprintf("workers=%d cold", workers), cold, want)
		same(fmt.Sprintf("workers=%d warm, cancellable", workers), warm, want)
	}
	li, err := NewLiveIndex(g, LiveOptions{Method: BiPush, Batch: bo, PortfolioK: p.K(), InitialPortfolio: p})
	if err != nil {
		t.Fatal(err)
	}
	ep := li.Pin()
	defer ep.Release()
	same("LiveEpoch", keys(ep.PairsContext(context.Background(), queries)), want)
}
