package core

import (
	"context"
	"math"
	"testing"

	"landmarkrd/internal/graph"
	"landmarkrd/internal/randx"
)

// diagFixture is a grid with a corner-ish landmark and its exact
// diagonal L_v⁻¹[u,u] = r(u,v): far from the landmark, so correction walks
// are long and the control variate has work to do.
func diagFixture(t *testing.T) (*graph.Graph, int, []float64) {
	t.Helper()
	g, err := graph.Grid2D(12, 12, 0, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	v := 0
	idx, err := buildIndex(g, v, PortfolioOptions{Mode: DiagExactCG}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return g, v, idx.Diag
}

// TestBiPushDiagControlVariate runs the index-assisted side on an adjacent
// pair (where L̂xx and L̂xy are strongly correlated) and on a far pair, at
// many seeds: both with the fitted β̂ and with β = 1 (the plain index
// formula diag[x] + diag[y] − 2·L̂xy). Every variant must be unbiased
// against the exact resistance, and on the adjacent pair the control
// variate must cut the spread well below the plain formula's.
func TestBiPushDiagControlVariate(t *testing.T) {
	g, v, diag := diagFixture(t)
	exact := func(s, u int) float64 { return exactRD(t, g, s, u) }
	const reps = 40
	for _, tc := range []struct {
		name string
		s, u int
		gain float64 // required sd(plain)/sd(fitted); 0 = no requirement
	}{
		{"adjacent", 12*8 + 8, 12*8 + 9, 1.5},
		{"far", 12*2 + 10, 12*10 + 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := exact(tc.s, tc.u)
			x, y := tc.s, tc.u
			if diag[y] < diag[x] {
				x, y = y, x
			}
			dx, dy := g.WeightedDegree(x), g.WeightedDegree(y)
			var fitted, plain []float64
			for i := 0; i < reps; i++ {
				e, err := NewBiPushEstimator(g, v, BiPushOptions{}, randx.New(uint64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
				side, err := e.runSide(context.Background(), x, x, y, e.opts.withDefaults(g.N()))
				if err != nil {
					t.Fatal(err)
				}
				fitted = append(fitted, side.diagValue(side.beta(dx, dy), diag[x], diag[y], dx, dy))
				plain = append(plain, side.diagValue(1, diag[x], diag[y], dx, dy))

				// The public path answers exactly the fitted value, clamped.
				pub, err := NewBiPushEstimator(g, v, BiPushOptions{}, randx.New(uint64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
				est, err := pub.PairDiagContext(context.Background(), tc.s, tc.u, diag)
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Max(0, fitted[i]); est.Value != got {
					t.Fatalf("seed %d: PairDiagContext = %v, side value %v", i, est.Value, got)
				}
			}
			mf, sf := meanSD(fitted)
			mp, sp := meanSD(plain)
			t.Logf("r = %.4f: fitted β̂ mean %.4f sd %.4f, β = 1 mean %.4f sd %.4f", want, mf, sf, mp, sp)
			for _, c := range []struct {
				name     string
				mean, sd float64
			}{{"fitted", mf, sf}, {"plain", mp, sp}} {
				if diff := math.Abs(c.mean - want); diff > 6*c.sd/math.Sqrt(reps)+1e-9 {
					t.Errorf("%s: mean %v vs exact %v — off by %.4g (sd %.4g)", c.name, c.mean, want, diff, c.sd)
				}
			}
			if tc.gain > 0 && sf*tc.gain > sp {
				t.Errorf("control variate spread %.4g not %.1f× below the plain formula's %.4g", sf, tc.gain, sp)
			}
		})
	}
}

// TestBiPushDiagStartsAtNearerEndpoint pins the side choice and the
// β = 1 limit: without correction walks the index-assisted answer is the
// push from the endpoint x with the smaller diagonal entry, plugged into
// diag[x] + diag[y] − 2·est_x(y)/d_y, whichever order s and t come in.
func TestBiPushDiagStartsAtNearerEndpoint(t *testing.T) {
	g, v, diag := diagFixture(t)
	near, far := 12*2+2, 12*9+10
	if diag[near] >= diag[far] {
		t.Fatalf("fixture: diag[%d] = %v not below diag[%d] = %v", near, diag[near], far, diag[far])
	}
	p, err := NewPusher(g, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(near, PushOptions{Theta: 1e-2}); err != nil {
		t.Fatal(err)
	}
	want := diag[near] + diag[far] - 2*p.GroundedEntry(far)
	e, err := NewBiPushEstimator(g, v, BiPushOptions{Walks: -1}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]int{{near, far}, {far, near}} {
		est, err := e.PairDiagContext(context.Background(), q[0], q[1], diag)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != want || est.Walks != 0 {
			t.Errorf("PairDiagContext%v = %v (%d walks), want %v from a push at %d", q, est.Value, est.Walks, want, near)
		}
	}
}

// TestBiPushDiagNilAndValidation: a nil diagonal is the two-sided
// PairContext, bit for bit, and a diagonal of the wrong length is
// rejected.
func TestBiPushDiagNilAndValidation(t *testing.T) {
	g, v, diag := diagFixture(t)
	a, _ := NewBiPushEstimator(g, v, BiPushOptions{}, randx.New(9))
	b, _ := NewBiPushEstimator(g, v, BiPushOptions{}, randx.New(9))
	got, err := a.PairDiagContext(context.Background(), 30, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Pair(30, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Walks != want.Walks || got.WalkSteps != want.WalkSteps {
		t.Errorf("nil diag: %+v, PairContext: %+v", got, want)
	}
	if _, err := a.PairDiagContext(context.Background(), 30, 100, diag[1:]); err == nil {
		t.Error("short diagonal accepted")
	}
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
