package core

import (
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/randx"
)

// buildIndex builds the K=1 portfolio {v} and returns its single-landmark
// index view.
func buildIndex(g *graph.Graph, v int, opts PortfolioOptions, rng *randx.RNG) (*Index, error) {
	opts.Landmarks = []int{v}
	p, err := BuildPortfolio(g, opts, rng)
	if err != nil {
		return nil, err
	}
	return p.Index(0), nil
}

func TestIndexDiagModesAgree(t *testing.T) {
	g := testBA(t, 80, 80)
	rng := randx.New(5)
	v := g.MaxDegreeVertex()

	exact, err := buildIndex(g, v, PortfolioOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the exact diagonal against pairwise resistances.
	for _, u := range []int{1, 20, 79} {
		if u == v {
			continue
		}
		want := exactRD(t, g, u, v)
		if math.Abs(exact.Diag[u]-want) > 1e-6 {
			t.Errorf("exact diag[%d] = %v, want r(u,v) = %v", u, exact.Diag[u], want)
		}
	}
	if exact.Diag[v] != 0 {
		t.Errorf("diag[landmark] = %v, want 0", exact.Diag[v])
	}

	mc, err := buildIndex(g, v, PortfolioOptions{Mode: DiagMC, WalksPerVertex: 3000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := buildIndex(g, v, PortfolioOptions{Mode: DiagSketch, SketchEpsilon: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var mcErr, skErr float64
	for u := 0; u < g.N(); u++ {
		mcErr = math.Max(mcErr, math.Abs(mc.Diag[u]-exact.Diag[u]))
		skErr = math.Max(skErr, math.Abs(sk.Diag[u]-exact.Diag[u])/math.Max(exact.Diag[u], 0.05))
	}
	if mcErr > 0.08 {
		t.Errorf("MC diag max abs error %v", mcErr)
	}
	if skErr > 0.35 {
		t.Errorf("sketch diag max rel error %v", skErr)
	}
}

func TestIndexValidation(t *testing.T) {
	g := testBA(t, 40, 81)
	if _, err := buildIndex(g, -1, PortfolioOptions{Mode: DiagExactCG}, nil); err == nil {
		t.Error("invalid landmark accepted")
	}
	if _, err := buildIndex(g, 0, PortfolioOptions{Mode: DiagMode(9)}, nil); err == nil {
		t.Error("unknown mode accepted")
	}
	idx, err := buildIndex(g, 0, PortfolioOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.SingleSource(-3, SingleSourceOptions{}); err == nil {
		t.Error("invalid source accepted")
	}
}

func TestDiagModeString(t *testing.T) {
	if DiagExactCG.String() != "exact-cg" || DiagMC.String() != "mc" || DiagSketch.String() != "sketch" {
		t.Error("DiagMode.String() mismatch")
	}
	if DiagMode(7).String() == "" {
		t.Error("unknown mode empty string")
	}
}

func TestSingleSourceFromLandmark(t *testing.T) {
	g := testBA(t, 60, 82)
	v := g.MaxDegreeVertex()
	idx, err := buildIndex(g, v, PortfolioOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := idx.SingleSource(v, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 30, 59} {
		if u == v {
			continue
		}
		want := exactRD(t, g, v, u)
		if math.Abs(all[u]-want) > 1e-6 {
			t.Errorf("r(v,%d) = %v, want %v", u, all[u], want)
		}
	}
}

func TestSingleSourceWithPushColumn(t *testing.T) {
	g := testBA(t, 120, 83)
	v := g.MaxDegreeVertex()
	idx, err := buildIndex(g, v, PortfolioOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := (v + 13) % g.N()
	cgAll, err := idx.SingleSource(s, SingleSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pushAll, err := idx.SingleSource(s, SingleSourceOptions{UsePush: true, PushTheta: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for u := range cgAll {
		if math.Abs(cgAll[u]-pushAll[u]) > 1e-3 {
			t.Errorf("push vs CG column at %d: %v vs %v", u, pushAll[u], cgAll[u])
		}
	}
}

func TestSingleSourceAgainstExactEverywhere(t *testing.T) {
	g, err := graph.WattsStrogatz(70, 2, 0.2, randx.New(84))
	if err != nil {
		t.Fatal(err)
	}
	v := g.MaxDegreeVertex()
	idx, err := buildIndex(g, v, PortfolioOptions{Mode: DiagExactCG}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := (v + 5) % g.N()
	all, err := idx.SingleSource(s, SingleSourceOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 7 {
		want, err := lap.ResistanceCG(g, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(all[u]-want) > 1e-5 {
			t.Errorf("single-source[%d] = %v, want %v", u, all[u], want)
		}
	}
}
