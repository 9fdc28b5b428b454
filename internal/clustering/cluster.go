// Package clustering implements resistance-distance-based graph clustering —
// one of the motivating applications of fast RD computation. Vertices are
// embedded by their resistance distances to a set of landmark/pivot
// vertices (computed with the single-source landmark machinery), then
// clustered with k-means in that embedding; quality is scored by
// conductance.
package clustering

import (
	"fmt"
	"math"

	"landmarkrd/internal/core"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// Options configures Cluster.
type Options struct {
	// K is the number of clusters (required, >= 2).
	K int
	// Pivots is the number of embedding dimensions (default 2·K).
	// Each pivot costs one single-source computation.
	Pivots int
	// MaxIter bounds the k-means iterations (default 50).
	MaxIter int
	// DiagMode selects how the per-pivot single-source vectors are
	// computed (default core.DiagSketch — one sketch shared across
	// pivots).
	DiagMode core.DiagMode
	// Seed drives pivot selection and k-means initialization.
	Seed uint64
}

// Result is a clustering of the vertices.
type Result struct {
	// Assign[u] is the cluster id of vertex u, in [0, K).
	Assign []int
	// Sizes[c] is the number of vertices in cluster c.
	Sizes []int
	// Conductances[c] is cut(c) / min(vol(c), vol(complement)).
	Conductances []float64
	// Pivots are the embedding pivot vertices used.
	Pivots []int
	// Iterations is the number of k-means rounds run.
	Iterations int
}

// Cluster embeds vertices by resistance distance to pivots and runs
// k-means on the embedding.
func Cluster(g *graph.Graph, opts Options, rng *randx.RNG) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("cluster: need K >= 2, got %d", opts.K)
	}
	if g.N() < opts.K {
		return nil, fmt.Errorf("cluster: K=%d exceeds n=%d", opts.K, g.N())
	}
	// The resistance embedding is undefined across components; fail with
	// the shared typed error instead of deep inside a pivot solve.
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	if rng == nil {
		rng = randx.New(opts.Seed + 1)
	}
	pivotCount := opts.Pivots
	if pivotCount <= 0 {
		pivotCount = 2 * opts.K
	}
	if pivotCount > g.N() {
		pivotCount = g.N()
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}

	emb, pivots, err := Embed(g, pivotCount, opts.DiagMode, rng)
	if err != nil {
		return nil, err
	}
	assign, iters := kmeans(emb, opts.K, maxIter, rng)
	res := &Result{
		Assign:     assign,
		Sizes:      make([]int, opts.K),
		Pivots:     pivots,
		Iterations: iters,
	}
	for _, c := range assign {
		res.Sizes[c]++
	}
	res.Conductances = Conductances(g, assign, opts.K)
	return res, nil
}

// Embed returns the n × p matrix of resistance distances from every vertex
// to p pivots (pivots drawn with a k-means++-style farthest-point
// heuristic in resistance space), along with the pivot ids.
func Embed(g *graph.Graph, p int, mode core.DiagMode, rng *randx.RNG) ([][]float64, []int, error) {
	n := g.N()
	emb := make([][]float64, n)
	for u := range emb {
		emb[u] = make([]float64, 0, p)
	}
	var pivots []int
	first := rng.Intn(n)
	for len(pivots) < p {
		var pivot int
		if len(pivots) == 0 {
			pivot = first
		} else {
			// Farthest-point: pick the vertex maximizing the minimum
			// embedded distance to existing pivots.
			best, bestScore := -1, -1.0
			for u := 0; u < n; u++ {
				minD := math.Inf(1)
				for j := range pivots {
					if emb[u][j] < minD {
						minD = emb[u][j]
					}
				}
				if minD > bestScore {
					bestScore = minD
					best = u
				}
			}
			pivot = best
		}
		pivots = append(pivots, pivot)
		p, err := core.BuildPortfolio(g, core.PortfolioOptions{
			Landmarks: []int{pivot}, Mode: mode, SketchEpsilon: 0.35, WalksPerVertex: 24,
		}, rng.Split())
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: pivot %d: %w", pivot, err)
		}
		// r(pivot, u) for all u is exactly the pivot's column.
		for u := 0; u < n; u++ {
			emb[u] = append(emb[u], p.Cols[0][u])
		}
	}
	return emb, pivots, nil
}

// kmeans is plain Lloyd's algorithm with k-means++ seeding.
func kmeans(points [][]float64, k, maxIter int, rng *randx.RNG) ([]int, int) {
	n := len(points)
	dim := len(points[0])
	centers := make([][]float64, 0, k)
	// k-means++ seeding.
	centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
	d2 := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		for u, pt := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(pt, c); d < best {
					best = d
				}
			}
			d2[u] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		chosen := n - 1
		for u, d := range d2 {
			acc += d
			if target < acc {
				chosen = u
				break
			}
		}
		centers = append(centers, append([]float64(nil), points[chosen]...))
	}

	assign := make([]int, n)
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for u, pt := range points {
			best, bestD := assign[u], math.Inf(1)
			for c, ctr := range centers {
				if d := sqDist(pt, ctr); d < bestD {
					bestD = d
					best = c
				}
			}
			if best != assign[u] {
				assign[u] = best
				changed = true
			}
		}
		if !changed && iters > 0 {
			break
		}
		// Recompute centers.
		counts := make([]int, k)
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
		}
		for u, pt := range points {
			c := assign[u]
			counts[c]++
			for j, x := range pt {
				centers[c][j] += x
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centers[c], points[rng.Intn(n)])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] *= inv
			}
		}
		_ = dim
	}
	return assign, iters
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Conductances scores each cluster: cut(c) / min(vol(c), vol(V\c)).
// Lower is better; an empty cluster scores NaN.
func Conductances(g *graph.Graph, assign []int, k int) []float64 {
	vol := make([]float64, k)
	cut := make([]float64, k)
	for u := 0; u < g.N(); u++ {
		vol[assign[u]] += g.WeightedDegree(u)
	}
	g.ForEachEdge(func(u, v int32, w float64) {
		if assign[u] != assign[v] {
			cut[assign[u]] += w
			cut[assign[v]] += w
		}
	})
	total := g.Volume()
	out := make([]float64, k)
	for c := range out {
		denom := math.Min(vol[c], total-vol[c])
		if denom <= 0 {
			out[c] = math.NaN()
			continue
		}
		out[c] = cut[c] / denom
	}
	return out
}
