package landmarkrd

// Portfolio tests: conformance of the routed single-source path against
// the dense oracle at exact tolerance for K ∈ {1, 2, 4}, byte-identical
// determinism across worker counts, the v3 snapshot round trip (plus v2
// backward compatibility), and the router's conflict-fallback behavior on
// both the estimator and the batch engine.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"landmarkrd/internal/core"
)

// TestConformancePortfolio runs the golden corpus through the portfolio
// single-source path at K ∈ {1, 2, 4} with DiagExactCG columns: the routed
// answer must match the dense oracle to the exact-path tolerance, and the
// serving landmark must be the router's cheapest column for the source.
func TestConformancePortfolio(t *testing.T) {
	for _, c := range conformanceCases(t) {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/K%d", c.Name, k), func(t *testing.T) {
				p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{
					K: k, Mode: DiagExactCG, Seed: 7,
				})
				if err != nil {
					t.Fatalf("BuildPortfolioIndex: %v", err)
				}
				if p.K() != k {
					t.Fatalf("portfolio size %d, want %d", p.K(), k)
				}
				seen := map[int]bool{}
				for _, v := range p.Landmarks {
					if seen[v] {
						t.Fatalf("duplicate landmark %d in %v", v, p.Landmarks)
					}
					seen[v] = true
				}
				for _, pr := range c.Pairs[:2] {
					s := pr[0]
					got, served, err := p.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
					if err != nil {
						t.Fatalf("SingleSource(%d): %v", s, err)
					}
					if !seen[served] {
						t.Fatalf("served landmark %d not in portfolio %v", served, p.Landmarks)
					}
					if want := p.Landmarks[p.RouteSource(s)[0]]; served != want {
						t.Fatalf("served landmark %d, router's cheapest is %d", served, want)
					}
					want, err := c.O.SingleSource(s)
					if err != nil {
						t.Fatal(err)
					}
					worst, at := 0.0, -1
					for v := range got {
						d := math.Abs(got[v]-want[v]) / math.Max(1, math.Abs(want[v]))
						if d > worst {
							worst, at = d, v
						}
					}
					if worst > exactTol {
						t.Errorf("K=%d SingleSource(%d): worst entry %d off by %.3g (tol %.3g)",
							k, s, at, worst, exactTol)
					}
				}
			})
		}
	}
}

// TestConformancePortfolioColumns pins every entry of every column of a
// K=4 exact portfolio against the dense oracle, under Jacobi and auto
// preconditioning. Columns 1..K−1 are derived from the sweep grounded at
// the primary landmark, so the test also requires column 0 to be
// Float64bits-equal to a K=1 build at that landmark, and a K=2 build to
// equal the first two columns (the landmark-prefix property).
func TestConformancePortfolioColumns(t *testing.T) {
	sameBits := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("%s: entry %d is %v, want %v", what, u, got[u], want[u])
			}
		}
	}
	for _, c := range conformanceCases(t) {
		for _, pc := range []PrecondMode{PrecondJacobi, PrecondAuto} {
			t.Run(fmt.Sprintf("%s/%v", c.Name, pc), func(t *testing.T) {
				build := func(opts PortfolioBuildOptions) *PortfolioIndex {
					t.Helper()
					opts.Mode, opts.Precond, opts.Seed = DiagExactCG, pc, 7
					p, err := BuildPortfolioIndex(c.G, opts)
					if err != nil {
						t.Fatalf("BuildPortfolioIndex: %v", err)
					}
					return p
				}
				p := build(PortfolioBuildOptions{K: 4})
				if p.K() != 4 {
					t.Fatalf("portfolio size %d, want 4", p.K())
				}
				for j, l := range p.Landmarks {
					want, err := c.O.SingleSource(l)
					if err != nil {
						t.Fatal(err)
					}
					worst, at := 0.0, -1
					for u, w := range want {
						d := math.Abs(p.Cols[j][u]-w) / math.Max(1, math.Abs(w))
						if !(d <= worst) {
							worst, at = d, u
						}
					}
					if worst > exactTol {
						t.Errorf("column %d (landmark %d): worst entry %d off by %.3g (tol %.3g)",
							j, l, at, worst, exactTol)
					}
				}
				one := build(PortfolioBuildOptions{Landmarks: p.Landmarks[:1]})
				sameBits(t, "column 0 vs K=1 build", p.Cols[0], one.Cols[0])
				two := build(PortfolioBuildOptions{Landmarks: p.Landmarks[:2]})
				for j := range two.Cols {
					sameBits(t, fmt.Sprintf("K=2 column %d vs K=4", j), two.Cols[j], p.Cols[j])
				}
			})
		}
	}
}

// TestPortfolioRouteOrder pins the router contract: Route returns every
// landmark exactly once, sorted by ascending cost r(s,ℓ)+r(t,ℓ).
func TestPortfolioRouteOrder(t *testing.T) {
	c := conformanceCases(t)[0]
	p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 4, Mode: DiagExactCG, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, u := c.Pairs[0][0], c.Pairs[0][1]
	order := p.Route(s, u)
	if len(order) != p.K() {
		t.Fatalf("Route returned %d positions, want %d", len(order), p.K())
	}
	seen := map[int]bool{}
	for i, j := range order {
		if j < 0 || j >= p.K() || seen[j] {
			t.Fatalf("Route order %v is not a permutation of portfolio positions", order)
		}
		seen[j] = true
		if i > 0 && p.RouteCost(order[i-1], s, u) > p.RouteCost(j, s, u) {
			t.Fatalf("Route order %v not sorted by cost at position %d", order, i)
		}
	}
}

// TestPortfolioDeterminismWorkers requires the portfolio build to be
// byte-identical at any worker count, for every diagonal mode, including
// the randomized ones.
func TestPortfolioDeterminismWorkers(t *testing.T) {
	c := conformanceCases(t)[0]
	for _, mode := range []DiagMode{DiagExactCG, DiagMC, DiagSketch} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref *PortfolioIndex
			for _, workers := range []int{1, 3, 8} {
				p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{
					K: 3, Mode: mode, Seed: 99, Workers: workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = p
					continue
				}
				if fmt.Sprint(p.Landmarks) != fmt.Sprint(ref.Landmarks) {
					t.Fatalf("workers=%d: landmarks %v, want %v", workers, p.Landmarks, ref.Landmarks)
				}
				for j := range p.Cols {
					for i := range p.Cols[j] {
						if math.Float64bits(p.Cols[j][i]) != math.Float64bits(ref.Cols[j][i]) {
							t.Fatalf("workers=%d: col %d entry %d differs: %x vs %x",
								workers, j, i, math.Float64bits(p.Cols[j][i]), math.Float64bits(ref.Cols[j][i]))
						}
					}
				}
			}
		})
	}
}

// TestPortfolioSnapshotRoundTrip writes a v3 snapshot and reads it back:
// landmarks, mode, and every column must survive Float64bits-identically,
// and the typed sentinels must fire for version, corruption, and
// graph-binding failures.
func TestPortfolioSnapshotRoundTrip(t *testing.T) {
	cases := conformanceCases(t)
	c := cases[0]
	p, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{K: 3, Mode: DiagMC, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)

	got, err := ReadPortfolioFrom(bytes.NewReader(raw), c.G)
	if err != nil {
		t.Fatalf("ReadPortfolioFrom: %v", err)
	}
	if got.Mode != p.Mode || fmt.Sprint(got.Landmarks) != fmt.Sprint(p.Landmarks) {
		t.Fatalf("header changed: %v %v, want %v %v", got.Mode, got.Landmarks, p.Mode, p.Landmarks)
	}
	for j := range p.Cols {
		for i := range p.Cols[j] {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(p.Cols[j][i]) {
				t.Fatalf("col %d entry %d changed across round trip", j, i)
			}
		}
	}

	t.Run("ChecksumTrips", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x40
		if _, err := ReadPortfolioFrom(bytes.NewReader(bad), c.G); !errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("corrupted snapshot: %v, want checksum/corrupt sentinel", err)
		}
	})
	t.Run("GraphBinding", func(t *testing.T) {
		other := cases[1].G
		if other.N() == c.G.N() && other.M() == c.G.M() {
			t.Skip("need a structurally different graph")
		}
		if _, err := ReadPortfolioFrom(bytes.NewReader(raw), other); !errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("wrong graph: %v, want mismatch sentinel", err)
		}
	})
	t.Run("Truncated", func(t *testing.T) {
		if _, err := ReadPortfolioFrom(bytes.NewReader(raw[:len(raw)/3]), c.G); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated snapshot: %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestPortfolioSnapshotV2Compat loads the committed v2 fixture — written
// by the retired v2 writer — through the portfolio loader: it must come
// back as a K=1 portfolio whose column is Float64bits-identical to a fresh
// K=1 exact build with the fixture's landmark and seed, and answer
// single-source queries identically, so pre-portfolio snapshot files keep
// working.
func TestPortfolioSnapshotV2Compat(t *testing.T) {
	g, _, err := LoadEdgeList(v2FixtureGraph)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadPortfolioIndex(v2Fixture, g)
	if err != nil {
		t.Fatalf("LoadPortfolioIndex on the v2 fixture: %v", err)
	}
	fresh, err := BuildPortfolioIndex(g, PortfolioBuildOptions{
		Landmarks: []int{g.MaxDegreeVertex()}, Mode: DiagExactCG, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || p.Primary() != fresh.Primary() || p.Mode != DiagExactCG {
		t.Fatalf("v2 upgrade: K=%d landmarks=%v mode=%v, want K=1 [%d] %v",
			p.K(), p.Landmarks, p.Mode, fresh.Primary(), DiagExactCG)
	}
	for i := range fresh.Cols[0] {
		if math.Float64bits(p.Cols[0][i]) != math.Float64bits(fresh.Cols[0][i]) {
			t.Fatalf("v2 column entry %d = %v, fresh build %v", i, p.Cols[0][i], fresh.Cols[0][i])
		}
	}
	for _, s := range []int{0, 17, g.N() - 1} {
		a, _, err := PortfolioSingleSource(p, s)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := PortfolioSingleSource(fresh, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a {
			if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
				t.Fatalf("single-source r(%d,%d): v2 %v, fresh %v", s, v, a[v], b[v])
			}
		}
	}
}

// pathGraph builds an unweighted path 0—1—…—(n−1).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPortfolioEstimatorFallback pins the router's conflict behavior on a
// path with landmarks at both ends: a query touching the cheapest landmark
// must fall back to the other one (counted in the stats), and a K=1
// portfolio whose only landmark conflicts must fail with the typed
// sentinel.
func TestPortfolioEstimatorFallback(t *testing.T) {
	g := pathGraph(t, 10)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{
		Landmarks: []int{0, 9}, Mode: DiagExactCG, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewPortfolioEstimator(p, Push, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (0, 3): landmark 0 is the cheapest column (cost r(0,0)+r(3,0) = 3 vs
	// 9+6 = 15 for landmark 9) but collides with the endpoint, so the
	// query must be served by landmark 9.
	res, err := est.Pair(0, 3)
	if err != nil {
		t.Fatalf("Pair(0,3): %v", err)
	}
	if want := 3.0; math.Abs(res.Value-want) > 1e-3 {
		t.Fatalf("Pair(0,3) = %v, want %v", res.Value, want)
	}
	st := p.Stats()
	if st.Fallbacks < 1 {
		t.Fatalf("fallbacks = %d, want >= 1", st.Fallbacks)
	}
	if st.Routed[1] != 1 {
		t.Fatalf("routed = %v, want landmark 9 (position 1) to have served the query", st.Routed)
	}
	ms := est.Stats()
	if ms.RouterFallbacks < 1 || ms.PortfolioQueries != 1 {
		t.Fatalf("metrics: fallbacks=%d portfolio-queries=%d, want >=1 and 1",
			ms.RouterFallbacks, ms.PortfolioQueries)
	}

	t.Run("AllConflict", func(t *testing.T) {
		p1, err := BuildPortfolioIndex(g, PortfolioBuildOptions{
			Landmarks: []int{4}, Mode: DiagExactCG, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e1, err := NewPortfolioEstimator(p1, Push, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e1.Pair(4, 7); !errors.Is(err, ErrLandmarkConflict) {
			t.Fatalf("all-conflict Pair: %v, want ErrLandmarkConflict", err)
		}
	})
}

// TestBatchEnginePortfolio covers the batch path: portfolio-routed batches
// must be byte-identical across worker counts, answer landmark-touching
// queries through the fallback chain (exact only when every member
// conflicts), and reject invalid option combinations.
func TestBatchEnginePortfolio(t *testing.T) {
	g := pathGraph(t, 12)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{
		Landmarks: []int{0, 11}, Mode: DiagExactCG, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []PairQuery{
		{S: 2, T: 7},
		{S: 0, T: 5},  // conflicts with landmark 0: must fall back to 11
		{S: 0, T: 11}, // conflicts with both: exact-fallback path
		{S: 9, T: 3},
	}
	var ref []PairResult
	for _, workers := range []int{1, 4} {
		eng, err := NewBatchEngine(g, AbWalk, BatchOptions{
			Portfolio: p, Workers: workers, Options: Options{Seed: 42, Walks: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Landmark() != p.Primary() {
			t.Fatalf("engine landmark %d, want portfolio primary %d", eng.Landmark(), p.Primary())
		}
		res, err := eng.Pairs(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, r.Err)
			}
			want, err := Exact(g, r.S, r.T)
			if err != nil {
				t.Fatal(err)
			}
			// The path graph is where the landmark decomposition is exact
			// for walk estimates through an endpoint landmark; allow the
			// Monte Carlo noise its bound.
			if math.IsNaN(r.Estimate.Value) || r.Estimate.Value < 0 {
				t.Fatalf("query %d: bad estimate %v", i, r.Estimate.Value)
			}
			if math.Abs(r.Estimate.Value-want) > math.Max(2, want) {
				t.Fatalf("query %d: estimate %v wildly off exact %v", i, r.Estimate.Value, want)
			}
		}
		// The both-conflict query must be exact (fallback solver).
		if diff := math.Abs(res[2].Estimate.Value - 11); diff > 1e-6 {
			t.Fatalf("both-conflict query answered %v, want exact 11", res[2].Estimate.Value)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if math.Float64bits(res[i].Estimate.Value) != math.Float64bits(ref[i].Estimate.Value) {
				t.Fatalf("workers=%d: query %d value %v differs from workers=1 value %v",
					workers, i, res[i].Estimate.Value, ref[i].Estimate.Value)
			}
		}
	}

	t.Run("RejectPinWithPortfolio", func(t *testing.T) {
		_, err := NewBatchEngine(g, Push, BatchOptions{Portfolio: p, PinLandmark: true, Landmark: 3})
		if err == nil {
			t.Fatal("PinLandmark + Portfolio accepted, want error")
		}
	})
	t.Run("RejectForeignGraph", func(t *testing.T) {
		other := pathGraph(t, 12)
		_, err := NewBatchEngine(other, Push, BatchOptions{Portfolio: p})
		if err == nil {
			t.Fatal("portfolio from a different graph accepted, want error")
		}
	})
}

// TestSelectPortfolioLandmarksSpread checks the selection objective where
// it is unambiguous: on a path, the second landmark must land far from the
// first (score × hop-distance can never prefer a neighbor of the primary
// over the far end's neighborhood).
func TestSelectPortfolioLandmarksSpread(t *testing.T) {
	g := pathGraph(t, 64)
	lms, err := SelectPortfolioLandmarks(g, 2, MaxDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) != 2 {
		t.Fatalf("got %d landmarks, want 2", len(lms))
	}
	hops := lms[0] - lms[1]
	if hops < 0 {
		hops = -hops
	}
	if hops < 16 {
		t.Fatalf("landmarks %v are %d hops apart on a 64-path, want spread >= 16", lms, hops)
	}
}

// TestPortfolioAccessors pins the thin surface of the public portfolio
// types: file save/load wrappers, the context single-source path, the
// estimator's accessor and reseed plumbing, and the per-column index view.
func TestPortfolioAccessors(t *testing.T) {
	g := pathGraph(t, 16)
	p, err := BuildPortfolioIndex(g, PortfolioBuildOptions{K: 2, Mode: DiagExactCG, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("SaveLoadFile", func(t *testing.T) {
		path := t.TempDir() + "/pf.snap"
		if err := SavePortfolioIndex(p, path); err != nil {
			t.Fatal(err)
		}
		q, err := LoadPortfolioIndex(path, g)
		if err != nil {
			t.Fatal(err)
		}
		if q.K() != p.K() {
			t.Fatalf("loaded K=%d, want %d", q.K(), p.K())
		}
		for j := range p.Cols {
			for u := range p.Cols[j] {
				if math.Float64bits(q.Cols[j][u]) != math.Float64bits(p.Cols[j][u]) {
					t.Fatalf("column %d diverged at %d", j, u)
				}
			}
		}
	})

	t.Run("SingleSourceContext", func(t *testing.T) {
		want, served, err := PortfolioSingleSource(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, servedCtx, err := PortfolioSingleSourceContext(context.Background(), p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if servedCtx != served {
			t.Fatalf("context path routed %d, plain path %d", servedCtx, served)
		}
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("context path diverged at %d: %g vs %g", u, got[u], want[u])
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := PortfolioSingleSourceContext(ctx, p, 2); !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled context: err=%v, want ErrCanceled", err)
		}
	})

	t.Run("ColumnViewAndFootprint", func(t *testing.T) {
		for j := range p.Landmarks {
			idx := p.Index(j)
			if idx.Landmark != p.Landmarks[j] {
				t.Fatalf("Index(%d).Landmark = %d, want %d", j, idx.Landmark, p.Landmarks[j])
			}
		}
		if want := int64(p.K()) * int64(g.N()) * 8; p.MemoryBytes() != want {
			t.Fatalf("MemoryBytes = %d, want %d", p.MemoryBytes(), want)
		}
	})

	t.Run("EstimatorSurface", func(t *testing.T) {
		pe, err := NewPortfolioEstimator(p, Push, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if pe.Method() != Push {
			t.Errorf("Method() = %v, want Push", pe.Method())
		}
		if pe.Portfolio() != p {
			t.Error("Portfolio() does not return the built portfolio")
		}
		if lms := pe.Landmarks(); len(lms) != 2 || lms[0] != p.Landmarks[0] {
			t.Errorf("Landmarks() = %v, want %v", lms, p.Landmarks)
		}
		shared := &Metrics{}
		pe.SetMetrics(shared)
		if pe.Metrics() != shared {
			t.Error("SetMetrics did not rebind the sink")
		}
		pe.Reseed(11)
		res, err := pe.PairContext(context.Background(), 2, 13)
		if err != nil {
			t.Fatal(err)
		}
		if want := 11.0; math.Abs(res.Value-want) > 1e-2*want {
			t.Errorf("PairContext r(2,13) = %g, want ≈ %g", res.Value, want)
		}
		if pe.Stats().PortfolioQueries == 0 {
			t.Error("Stats() did not count the portfolio query")
		}
	})
}

func TestParseLandmarkList(t *testing.T) {
	got, err := ParseLandmarkList(" 3, 17,42 ")
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 17 || got[2] != 42 {
		t.Fatalf("ParseLandmarkList = %v, %v", got, err)
	}
	if got, err := ParseLandmarkList(""); err != nil || got != nil {
		t.Errorf("empty list = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"1,x", "1,,2", "-4", "1,1"} {
		if _, err := ParseLandmarkList(bad); err == nil {
			t.Errorf("ParseLandmarkList(%q) accepted", bad)
		}
	}
}
