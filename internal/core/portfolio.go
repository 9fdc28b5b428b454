package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/linalg"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
	"landmarkrd/internal/sketch"
	"landmarkrd/internal/walk"
)

// Portfolio is a K-landmark index: one grounded diagonal column
// Cols[j][t] = r(t, ℓ_j) per landmark, plus a per-query router. The paper's
// cost law says every landmark algorithm's work is governed by the hitting
// times h(s,ℓ)+h(t,ℓ) to the landmark, and by the commute identity
// Vol·r(s,ℓ) = h(s,ℓ) + h(ℓ,s) the precomputed columns are exactly a
// per-pair estimate of that cost — so the router scores landmark j for a
// pair (s,t) as Cols[j][s] + Cols[j][t] and picks the argmin. A single hub
// that fails on road-like large-κ graphs becomes a tunable memory/speed
// knob: K columns of n floats buy queries routed to the nearest landmark.
//
// A Portfolio is safe for concurrent queries and must not be copied after
// first use (the per-landmark indices recycle solver scratch through
// pools).
type Portfolio struct {
	G    *graph.Graph
	Mode DiagMode
	// Landmarks are the portfolio members, in selection order (the primary
	// strategy pick first).
	Landmarks []int
	// Cols[j][t] = r(t, Landmarks[j]); Cols[j][Landmarks[j]] = 0.
	Cols [][]float64
	// BuildTime is the wall time BuildPortfolio took (not persisted).
	BuildTime time.Duration
	// ColBuildTimes[j] is the wall time spent on column j, including its
	// preconditioner. For DiagExactCG column 0 carries the one grounded
	// sweep and each derived column j > 0 only its O(n) combination; for
	// DiagSketch the shared sketch construction is amortized into BuildTime
	// and each entry covers only that column's extraction.
	ColBuildTimes []time.Duration
	// PrecondModes[j] is the resolved preconditioner mode of landmark j
	// (PrecondAuto replaced by its pick). Empty for loaded snapshots, which
	// default to Jacobi.
	PrecondModes []PrecondMode

	indices   []*Index
	routed    []obs.Counter
	fallbacks obs.Counter
}

// PortfolioOptions configures BuildPortfolio.
type PortfolioOptions struct {
	// K is the portfolio size (default 4, clamped to the graph size).
	K int
	// Strategy picks the primary landmark; the remaining K−1 are chosen by
	// the cost-law spread score (default MaxDegree).
	Strategy Strategy
	// Landmarks pins the landmark set explicitly, overriding K/Strategy.
	Landmarks []int

	// Mode selects the column builder (default DiagExactCG).
	Mode DiagMode
	// WalksPerVertex is the DiagMC sample count (default 64).
	WalksPerVertex int
	// MaxSteps truncates DiagMC walks (default max(100·n, 10⁵)).
	MaxSteps int
	// SketchEpsilon is the DiagSketch relative-error target (default 0.3).
	SketchEpsilon float64
	// Tol is the DiagExactCG solver tolerance (default lap.ExactTol).
	Tol float64
	// Precond selects the CG preconditioner per landmark column, used by
	// every later SingleSource query solve against that column (default
	// PrecondJacobi, the zero value). The exact build's one sweep runs
	// under column 0's preconditioner. PrecondAuto resolves independently
	// for each landmark from its BFS eccentricity; the resolved modes are
	// recorded in Portfolio.PrecondModes. A chol factor is built once per
	// column and shared read-only across build workers and pooled query
	// solvers.
	Precond PrecondMode
	// PrecondSeed seeds the approximate-Cholesky factorizations; landmark
	// j's factor uses PrecondSeed + j·golden so factors stay distinct yet
	// reproducible.
	PrecondSeed uint64
	// Workers shards the build: the exact sweep, each DiagMC column or the
	// sketch (default GOMAXPROCS). Columns are byte-identical for a fixed
	// seed regardless of the worker count: sweep solves do not depend on
	// their batch, and every DiagMC column draws from its own random stream
	// derived from the root seed.
	Workers int
	// Metrics, when non-nil, receives one IndexBuilds increment, the total
	// build wall time (IndexBuildTime), and one ColumnBuildTime observation
	// per landmark column.
	Metrics *obs.Metrics
}

// SelectPortfolioLandmarks picks k landmarks by a cost-law score. The first
// is the plain Strategy pick; each subsequent landmark maximizes
// score(u)·(1 + hops(u, chosen)), where score combines normalized weighted
// degree, coreness, and sampled short-walk visit counts (a cheap proxy for
// small hitting times) and hops is the BFS distance to the already-chosen
// set. On hub-dominated graphs the score term dominates and the portfolio
// collects the hubs; on large-κ grids and paths the spread term dominates
// and the landmarks tile the graph — which is exactly where a single
// landmark loses. rng may be nil for deterministic strategies (the visit
// term is then skipped).
func SelectPortfolioLandmarks(g *graph.Graph, k int, strat Strategy, rng *randx.RNG) ([]int, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if k <= 0 {
		k = 4
	}
	if k > n-2 {
		k = n - 2
	}
	if k < 1 {
		k = 1
	}
	primary, err := SelectLandmark(g, strat, rng)
	if err != nil {
		return nil, err
	}
	chosen := []int{primary}
	if k == 1 {
		return chosen, nil
	}
	score := portfolioScores(g, rng)
	inSet := make([]bool, n)
	inSet[primary] = true
	for len(chosen) < k {
		dist := hopsToSet(g, chosen)
		best, bestVal := -1, -1.0
		for u := 0; u < n; u++ {
			if inSet[u] {
				continue
			}
			val := score[u] * float64(1+dist[u])
			if val > bestVal {
				best, bestVal = u, val
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inSet[best] = true
	}
	return chosen, nil
}

// portfolioScores returns the per-vertex cost-law score: normalized
// weighted degree + normalized core number + normalized sampled-walk visit
// counts. Each term is in [0,1]; a small uniform floor keeps the spread
// multiplier meaningful on regular graphs where all three terms tie.
func portfolioScores(g *graph.Graph, rng *randx.RNG) []float64 {
	n := g.N()
	score := make([]float64, n)
	maxDeg := 0.0
	for u := 0; u < n; u++ {
		if d := g.WeightedDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	cores := g.CoreNumbers()
	var maxCore int32
	for _, c := range cores {
		if c > maxCore {
			maxCore = c
		}
	}
	var visits []float64
	var maxVisits float64
	if rng != nil {
		visits = make([]float64, n)
		sampler := walk.NewSampler(g)
		steps := 4
		for x := n; x > 1; x /= 2 {
			steps++ // steps ≈ 4 + log2 n, as in the MinHitting strategy
		}
		const walks = 128
		for i := 0; i < walks; i++ {
			u := rng.Intn(n)
			for j := 0; j < steps; j++ {
				u = sampler.Step(u, rng)
				visits[u]++
			}
		}
		for _, v := range visits {
			if v > maxVisits {
				maxVisits = v
			}
		}
	}
	for u := 0; u < n; u++ {
		s := 0.1 // uniform floor so pure-spread selection works on regular graphs
		if maxDeg > 0 {
			s += g.WeightedDegree(u) / maxDeg
		}
		if maxCore > 0 {
			s += float64(cores[u]) / float64(maxCore)
		}
		if maxVisits > 0 {
			s += visits[u] / maxVisits
		}
		score[u] = s
	}
	return score
}

// hopsToSet is a multi-source BFS returning, for every vertex, the hop
// distance to the nearest source (0 at the sources themselves).
func hopsToSet(g *graph.Graph, sources []int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(int(u), func(v int32, _ float64) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	for i := range dist {
		if dist[i] == -1 {
			dist[i] = int32(n) // unreachable: treat as maximally far
		}
	}
	return dist
}

// BuildPortfolio constructs a K-landmark portfolio. DiagExactCG runs one
// grounded-solver sweep at the primary landmark ℓ₁ whatever K is: n−1
// solves give column 0 = diag(L_{ℓ₁}⁻¹), and the sweep's own solves for
// the other landmarks give every other column through the grounding
// identity (deriveColumn). DiagMC runs one absorbed-walk sweep per
// column, and DiagSketch extracts every column from a single sketch shared
// across all K landmarks (the sketch is built once, which is the point).
// A DiagMC column j draws from its own random stream derived from the root
// seed, and an exact column depends only on ℓ₁, its landmark and the
// tolerance, so the portfolio is byte-identical for a fixed seed at any
// worker count and column j of a K-portfolio equals column j of any larger
// portfolio with the same landmark prefix. A single-landmark index is the
// K=1 case. rng drives landmark selection and the randomized modes
// (DiagMC, DiagSketch, which reject a nil rng); it may be nil for
// DiagExactCG with deterministic selection.
func BuildPortfolio(g *graph.Graph, opts PortfolioOptions, rng *randx.RNG) (*Portfolio, error) {
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	switch opts.Mode {
	case DiagExactCG:
	case DiagMC, DiagSketch:
		if rng == nil {
			return nil, fmt.Errorf("core: %v portfolio build requires an RNG", opts.Mode)
		}
	default:
		return nil, fmt.Errorf("core: unknown diag mode %d", int(opts.Mode))
	}
	landmarks := opts.Landmarks
	if len(landmarks) == 0 {
		var err error
		landmarks, err = SelectPortfolioLandmarks(g, opts.K, opts.Strategy, rng)
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[int]bool, len(landmarks))
	for _, v := range landmarks {
		if err := g.ValidateVertex(v); err != nil {
			return nil, err
		}
		if seen[v] {
			return nil, fmt.Errorf("core: duplicate portfolio landmark %d", v)
		}
		seen[v] = true
	}
	start := time.Now()
	n := g.N()
	k := len(landmarks)
	cols := make([][]float64, k)
	times := make([]time.Duration, k)
	workers := indexWorkers(opts.Workers, n)
	// Root seed for the per-column streams; drawn once so the portfolio is
	// reproducible from (graph, landmarks, seed) alone.
	var root uint64
	if rng != nil {
		root = rng.Uint64()
	}
	var sk *sketch.Sketch
	if opts.Mode == DiagSketch {
		eps := opts.SketchEpsilon
		if eps <= 0 {
			eps = 0.3
		}
		var err error
		sk, err = sketch.Build(g, sketch.Options{Epsilon: eps, Workers: workers}, rng)
		if err != nil {
			return nil, fmt.Errorf("core: portfolio sketch: %w", err)
		}
	}
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	// The exact sweep at ℓ₁ fills column 0 and keeps x_j = L_{ℓ₁}⁻¹ e_{ℓ_j}
	// in cols[j] for every other landmark; deriveColumn finishes those.
	var keep map[int][]float64
	if opts.Mode == DiagExactCG {
		keep = make(map[int][]float64, k-1)
		for j := 1; j < k; j++ {
			keep[landmarks[j]] = cols[j]
		}
	}
	precs := make([]linalg.Preconditioner, k)
	modes := make([]PrecondMode, k)
	for j, v := range landmarks {
		colStart := time.Now()
		// Every column resolves its own preconditioner: query-time solves
		// against column j are grounded at ℓ_j.
		pc, resolved, err := resolvePrecond(g, v, opts.Precond, opts.PrecondSeed+uint64(j)*0x9e3779b97f4a7c15, opts.Metrics)
		if err != nil {
			return nil, err
		}
		precs[j], modes[j] = pc, resolved
		switch opts.Mode {
		case DiagExactCG:
			if j > 0 {
				deriveColumn(cols[j], cols[0], v)
			} else if err := buildDiagExact(g, v, cols[0], opts.Tol, workers, pc, keep); err != nil {
				return nil, err
			}
		case DiagMC:
			colRNG := randx.New(root + uint64(j+1)*0x9e3779b97f4a7c15)
			if err := buildDiagMC(g, v, cols[j], opts.WalksPerVertex, opts.MaxSteps, workers, colRNG, opts.Metrics); err != nil {
				return nil, err
			}
		case DiagSketch:
			if err := sk.ResistancesInto(cols[j], v); err != nil {
				return nil, err
			}
			cols[j][v] = 0
		}
		times[j] = time.Since(colStart)
		if opts.Metrics != nil {
			opts.Metrics.ColumnBuildTime.Observe(times[j].Nanoseconds())
		}
	}
	p := NewPortfolio(g, opts.Mode, landmarks, cols)
	p.BuildTime = time.Since(start)
	p.ColBuildTimes = times
	p.PrecondModes = modes
	for j := range p.indices {
		p.indices[j].precond = precs[j]
	}
	if opts.Metrics != nil {
		opts.Metrics.IndexBuilds.Inc()
		opts.Metrics.IndexBuildTime.Observe(p.BuildTime.Nanoseconds())
	}
	return p, nil
}

// deriveColumn turns x = L_{ℓ₁}⁻¹ e_w, a solution kept from the sweep
// grounded at the primary landmark ℓ₁, into the column r(·, w) in place by
// the grounding identity
//
//	r(u, w) = D[u] − 2·x[u] + D[w],  D = diag(L_{ℓ₁}⁻¹),
//
// with r(w, w) = 0 exactly. D[ℓ₁] = x[ℓ₁] = 0, so the entry at ℓ₁ is
// D[w] = r(ℓ₁, w). Rounding can leave an entry next to w a few ulps below
// zero; it is clamped to 0 like every other resistance estimate.
func deriveColumn(x, d []float64, w int) {
	dw := d[w]
	for u := range x {
		r := d[u] - 2*x[u] + dw
		if r < 0 {
			r = 0
		}
		x[u] = r
	}
	x[w] = 0
}

// NewPortfolio assembles a portfolio from already-built columns (the
// snapshot loader and the v2→portfolio upgrade path use it). The columns
// are aliased, not copied, and back the per-landmark indices directly.
func NewPortfolio(g *graph.Graph, mode DiagMode, landmarks []int, cols [][]float64) *Portfolio {
	p := &Portfolio{G: g, Mode: mode, Landmarks: landmarks, Cols: cols}
	p.indices = make([]*Index, len(landmarks))
	for j, v := range landmarks {
		p.indices[j] = &Index{G: g, Landmark: v, Diag: cols[j]}
	}
	p.routed = make([]obs.Counter, len(landmarks))
	return p
}

// K returns the portfolio size.
func (p *Portfolio) K() int { return len(p.Landmarks) }

// Index returns the single-landmark index view of portfolio position j,
// sharing column j as its diagonal.
func (p *Portfolio) Index(j int) *Index { return p.indices[j] }

// Primary returns the primary (first-selected) landmark vertex.
func (p *Portfolio) Primary() int { return p.Landmarks[0] }

// MemoryBytes reports the portfolio column footprint.
func (p *Portfolio) MemoryBytes() int64 {
	return int64(len(p.Landmarks)) * int64(p.G.N()) * 8
}

// RouteCost is the router's cost-law score of portfolio position j for the
// pair (s,t): r(s,ℓ_j) + r(t,ℓ_j), read off the precomputed columns in
// O(1). Lower is cheaper.
func (p *Portfolio) RouteCost(j, s, t int) float64 {
	return p.Cols[j][s] + p.Cols[j][t]
}

// Route returns the portfolio positions ordered by ascending RouteCost for
// (s,t), ties broken by position so the order is deterministic. Callers
// try positions in order, skipping any whose landmark collides with s or t
// (ErrLandmarkConflict) — NoteFallback records each skip.
func (p *Portfolio) Route(s, t int) []int {
	order := make([]int, len(p.Landmarks))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.RouteCost(order[a], s, t) < p.RouteCost(order[b], s, t)
	})
	return order
}

// RouteSource returns the portfolio positions ordered by ascending
// r(s,ℓ_j) — the single-source router. A landmark equal to s has cost 0
// and sorts first, where the query is answered by copying its column.
func (p *Portfolio) RouteSource(s int) []int {
	order := make([]int, len(p.Landmarks))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Cols[order[a]][s] < p.Cols[order[b]][s]
	})
	return order
}

// NoteRouted records that portfolio position j served a query.
func (p *Portfolio) NoteRouted(j int) { p.routed[j].Inc() }

// NoteFallback records one conflict fallback (a routed landmark skipped
// because it collided with a query endpoint).
func (p *Portfolio) NoteFallback() { p.fallbacks.Inc() }

// PortfolioStats is a point-in-time view of build and routing activity.
type PortfolioStats struct {
	Landmarks     []int           `json:"landmarks"`
	Routed        []int64         `json:"routed"`
	Fallbacks     int64           `json:"fallbacks"`
	BuildTime     time.Duration   `json:"build_time_ns"`
	ColBuildTimes []time.Duration `json:"col_build_times_ns"`
	// PrecondModes are the resolved per-landmark preconditioner modes in
	// textual form (empty for loaded snapshots).
	PrecondModes []string `json:"precond_modes,omitempty"`
}

// Stats snapshots the per-landmark routed-query counters and the conflict
// fallback count.
func (p *Portfolio) Stats() PortfolioStats {
	s := PortfolioStats{
		Landmarks:     append([]int(nil), p.Landmarks...),
		Routed:        make([]int64, len(p.routed)),
		Fallbacks:     p.fallbacks.Load(),
		BuildTime:     p.BuildTime,
		ColBuildTimes: append([]time.Duration(nil), p.ColBuildTimes...),
	}
	for _, m := range p.PrecondModes {
		s.PrecondModes = append(s.PrecondModes, m.String())
	}
	for j := range p.routed {
		s.Routed[j] = p.routed[j].Load()
	}
	return s
}

// SingleSource computes r(s,·) through the cheapest landmark for s.
// It returns the answers and the landmark vertex that served the query.
func (p *Portfolio) SingleSource(s int, opts SingleSourceOptions) ([]float64, int, error) {
	return p.SingleSourceContext(context.Background(), s, opts)
}

// SingleSourceContext is SingleSource with cancellation. Routing is by
// ascending r(s,ℓ_j); a landmark equal to s is the free case (its column
// is the answer) and always routes first.
func (p *Portfolio) SingleSourceContext(ctx context.Context, s int, opts SingleSourceOptions) ([]float64, int, error) {
	if err := p.G.ValidateVertex(s); err != nil {
		return nil, -1, err
	}
	order := p.RouteSource(s)
	j := order[0]
	out, err := p.indices[j].SingleSourceContext(ctx, s, opts)
	if err != nil {
		return nil, -1, err
	}
	p.NoteRouted(j)
	return out, p.Landmarks[j], nil
}
