package core

import (
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
)

func TestPrecondModeStringAndParse(t *testing.T) {
	cases := map[string]PrecondMode{
		"jacobi":   PrecondJacobi,
		"":         PrecondJacobi,
		"none":     PrecondNone,
		"identity": PrecondNone,
		"chol":     PrecondChol,
		"Cholesky": PrecondChol,
		" AUTO ":   PrecondAuto,
	}
	for s, want := range cases {
		got, err := ParsePrecondMode(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecondMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrecondMode("ilu"); err == nil {
		t.Error("unknown mode accepted")
	}
	for _, m := range []PrecondMode{PrecondJacobi, PrecondNone, PrecondChol, PrecondAuto} {
		rt, err := ParsePrecondMode(m.String())
		if err != nil || rt != m {
			t.Errorf("round-trip %v: got %v, %v", m, rt, err)
		}
	}
	var zero PrecondMode
	if zero != PrecondJacobi {
		t.Error("zero PrecondMode must be the historical Jacobi default")
	}
}

// TestAutoPicksChol: the heuristic must choose chol on high-diameter graphs
// (path, grid) and jacobi on expander-like graphs (BA hubs).
func TestAutoPicksChol(t *testing.T) {
	p, err := graph.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	if !autoPicksChol(p, 0) {
		t.Error("auto declined chol on a 200-path")
	}
	grid, err := graph.Grid2D(16, 16, 0, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !autoPicksChol(grid, 0) {
		t.Error("auto declined chol on a 16x16 grid")
	}
	ba := testBA(t, 400, 90)
	if autoPicksChol(ba, ba.MaxDegreeVertex()) {
		t.Error("auto picked chol on a BA expander from its hub")
	}
	tiny, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	if autoPicksChol(tiny, 0) {
		t.Error("auto picked chol below the size floor")
	}
}

// TestBuildIndexPrecondAgreement: DiagExactCG diagonals must agree to exact
// tolerance across preconditioner modes — the preconditioner changes the CG
// trajectory, never the answer.
func TestBuildIndexPrecondAgreement(t *testing.T) {
	grid, err := graph.Grid2D(10, 10, 0.2, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	v := grid.MaxDegreeVertex()
	diags := map[PrecondMode][]float64{}
	for _, mode := range []PrecondMode{PrecondJacobi, PrecondNone, PrecondChol, PrecondAuto} {
		p, err := BuildPortfolio(grid, PortfolioOptions{Landmarks: []int{v}, Mode: DiagExactCG, Precond: mode}, randx.New(5))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		diags[mode] = p.Cols[0]
		want := mode
		if mode == PrecondAuto {
			want = PrecondChol // grid: high eccentricity
		}
		if p.PrecondModes[0] != want {
			t.Errorf("mode %v resolved to %v, want %v", mode, p.PrecondModes[0], want)
		}
	}
	ref := diags[PrecondJacobi]
	for mode, d := range diags {
		for u := range ref {
			if math.Abs(d[u]-ref[u]) > 1e-8 {
				t.Fatalf("%v: diag[%d] = %v, jacobi says %v", mode, u, d[u], ref[u])
			}
		}
	}
}

// TestBuildIndexCholDeterministicAcrossWorkers extends the worker-count
// determinism guarantee to preconditioned builds: a shared read-only factor
// must leave the columns bit-identical at any worker count.
func TestBuildIndexCholDeterministicAcrossWorkers(t *testing.T) {
	grid, err := graph.Grid2D(12, 12, 0.2, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	v := grid.MaxDegreeVertex()
	build := func(workers int) []float64 {
		idx, err := buildIndex(grid, v, PortfolioOptions{
			Mode: DiagExactCG, Precond: PrecondChol, Workers: workers,
		}, randx.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return idx.Diag
	}
	seq := build(1)
	for _, w := range []int{2, 8} {
		par := build(w)
		for u := range seq {
			if math.Float64bits(seq[u]) != math.Float64bits(par[u]) {
				t.Fatalf("workers=%d: diag[%d] = %v, sequential says %v", w, u, par[u], seq[u])
			}
		}
	}
}

// TestPrecondMetrics: a chol build must record exactly one factorization
// into PrecondBuilds with a nonzero duration.
func TestPrecondMetrics(t *testing.T) {
	grid, err := graph.Grid2D(8, 8, 0, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.Metrics{}
	if _, err := buildIndex(grid, 0, PortfolioOptions{Mode: DiagExactCG, Precond: PrecondChol, Metrics: m}, randx.New(1)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.PrecondBuilds != 1 {
		t.Errorf("PrecondBuilds = %d, want 1", snap.PrecondBuilds)
	}
	m2 := &obs.Metrics{}
	if _, err := buildIndex(grid, 0, PortfolioOptions{Mode: DiagExactCG, Metrics: m2}, randx.New(1)); err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot().PrecondBuilds != 0 {
		t.Error("Jacobi build recorded a factorization")
	}
}

// TestPortfolioPrecondModes: per-landmark auto resolution must be recorded
// on the portfolio and surfaced in Stats.
func TestPortfolioPrecondModes(t *testing.T) {
	grid, err := graph.Grid2D(10, 10, 0, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPortfolio(grid, PortfolioOptions{K: 3, Precond: PrecondAuto, PrecondSeed: 1}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PrecondModes) != len(p.Landmarks) {
		t.Fatalf("PrecondModes = %v for %d landmarks", p.PrecondModes, len(p.Landmarks))
	}
	for j, m := range p.PrecondModes {
		if m != PrecondChol && m != PrecondJacobi {
			t.Errorf("landmark %d resolved to %v", j, m)
		}
	}
	stats := p.Stats()
	if len(stats.PrecondModes) != len(p.Landmarks) {
		t.Errorf("Stats.PrecondModes = %v", stats.PrecondModes)
	}
}

func TestResolvePrecondUnknownMode(t *testing.T) {
	g, err := graph.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := resolvePrecond(g, 0, PrecondMode(42), 0, nil); err == nil {
		t.Error("unknown mode accepted")
	}
}
