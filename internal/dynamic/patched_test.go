package dynamic

import (
	"context"
	"errors"
	"math"
	"testing"

	"landmarkrd/internal/core"
	"landmarkrd/internal/graph"
	"landmarkrd/internal/lap"
	"landmarkrd/internal/obs"
	"landmarkrd/internal/randx"
)

func buildPatchTestIndex(t *testing.T, g *graph.Graph, landmark int) *core.Index {
	t.Helper()
	p, err := core.BuildPortfolio(g, core.PortfolioOptions{Landmarks: []int{landmark}, Tol: 1e-12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p.Index(0)
}

// TestPatchedPairMatchesRebuild: after each streamed mutation the patched
// pair path must agree with a CG solve on the materialized graph —
// including pairs touching the landmark, where the grounded delta loses a
// coordinate.
func TestPatchedPairMatchesRebuild(t *testing.T) {
	rng := randx.New(11)
	g, err := graph.BarabasiAlbert(120, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	const v = 7
	p := NewPatchedIndex(buildPatchTestIndex(t, g, v), 1e-12, nil)
	ctx := context.Background()

	muts := []struct {
		a, b int
		w    float64
	}{
		{3, 110, 1.5},  // plain insertion
		{v, 42, 2.0},   // insertion touching the landmark
		{3, 110, -1.5}, // full removal of the first insertion
		{0, 119, 0.25},
	}
	for step, mu := range muts {
		if err := p.ApplyUpdateContext(ctx, mu.a, mu.b, mu.w); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mat, err := MaterializeGraph(g, p.Patches())
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{5, 100}, {3, 110}, {v, 42}, {42, v}, {0, 119}} {
			want, err := lap.ResistanceCG(mat, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.PairContext(ctx, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Errorf("step %d pair %v: patched %v vs rebuild %v", step, pair, got, want)
			}
		}
	}
	if p.Len() != len(muts) {
		t.Errorf("Len() = %d, want %d", p.Len(), len(muts))
	}
}

func TestPatchedSingleSourceMatchesRebuild(t *testing.T) {
	rng := randx.New(12)
	g, err := graph.WattsStrogatz(80, 2, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	const v = 0
	p := NewPatchedIndex(buildPatchTestIndex(t, g, v), 1e-12, nil)
	ctx := context.Background()
	for _, mu := range [][3]float64{{5, 60, 2}, {10, 70, 0.5}, {5, 60, -2}} {
		if err := p.ApplyUpdateContext(ctx, int(mu[0]), int(mu[1]), mu[2]); err != nil {
			t.Fatal(err)
		}
	}
	mat, err := MaterializeGraph(g, p.Patches())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{v, 10, 41} {
		got, err := p.SingleSourceContext(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range []int{v, 1, 10, 41, 79} {
			want := 0.0
			if tt != s {
				w, err := lap.ResistanceCG(mat, s, tt)
				if err != nil {
					t.Fatal(err)
				}
				want = w
			}
			if math.Abs(got[tt]-want) > 1e-6*math.Max(1, want) {
				t.Errorf("s=%d t=%d: patched %v vs rebuild %v", s, tt, got[tt], want)
			}
		}
	}
}

func TestPatchedDisconnectingRemovalRejected(t *testing.T) {
	g, _ := graph.Path(6) // every edge is a bridge
	p := NewPatchedIndex(buildPatchTestIndex(t, g, 2), 0, nil)
	ctx := context.Background()
	err := p.ApplyUpdateContext(ctx, 3, 4, -1)
	if !errors.Is(err, ErrDisconnecting) {
		t.Fatalf("bridge removal error = %v, want ErrDisconnecting", err)
	}
	if p.Len() != 0 {
		t.Error("failed patch was recorded")
	}
	// The stack still answers correctly after the rejected update.
	r, err := p.PairContext(ctx, 0, 5)
	if err != nil || math.Abs(r-5) > 1e-7 {
		t.Errorf("r(0,5) = %v, %v; want 5", r, err)
	}
}

func TestPatchedValidationAndMetrics(t *testing.T) {
	g, _ := graph.Cycle(8)
	m := &obs.Metrics{}
	p := NewPatchedIndex(buildPatchTestIndex(t, g, 0), 0, m)
	ctx := context.Background()
	if err := p.ApplyUpdateContext(ctx, 1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := p.ApplyUpdateContext(ctx, 0, 99, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := p.ApplyUpdateContext(ctx, 1, 3, 0); err == nil {
		t.Error("zero delta accepted")
	}
	if err := p.ApplyUpdateContext(ctx, 1, 3, math.Inf(1)); err == nil {
		t.Error("infinite delta accepted")
	}
	if err := p.ApplyUpdateContext(ctx, 1, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PairContext(ctx, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SingleSourceContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.LiveUpdates.Load(); got != 1 {
		t.Errorf("LiveUpdates = %d, want 1", got)
	}
	if got := m.PatchedQueries.Load(); got != 2 {
		t.Errorf("PatchedQueries = %d, want 2", got)
	}
}

// TestErrDisconnectingTyped pins the satellite fix: the Updater's bridge
// guard must match the typed sentinel through errors.Is, not just carry a
// message.
func TestErrDisconnectingTyped(t *testing.T) {
	g, _ := graph.Path(5)
	u, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = u.RemoveConductance(2, 3, 1)
	if !errors.Is(err, ErrDisconnecting) {
		t.Fatalf("bridge removal error = %v, want ErrDisconnecting", err)
	}
	// Over-removal (more conductance than the pair carries) is the same
	// class of failure.
	g2, _ := graph.Cycle(6)
	u2, _ := New(g2, 0)
	err = u2.RemoveConductance(0, 1, 5)
	if !errors.Is(err, ErrDisconnecting) {
		t.Fatalf("over-removal error = %v, want ErrDisconnecting", err)
	}
}

// TestUpdaterQueriesRaceMutations exercises the copy-on-write update log:
// concurrent Resistance calls against a serialized mutation stream must be
// race-free and always observe a consistent prefix. Run with -race.
func TestUpdaterQueriesRaceMutations(t *testing.T) {
	rng := randx.New(13)
	g, err := graph.ErdosRenyiGNM(60, 240, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(g, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			a, b := (i*7)%g.N(), (i*13+1)%g.N()
			if a == b {
				continue
			}
			if err := u.AddEdge(a, b, 1); err != nil {
				t.Errorf("AddEdge: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		r, err := u.Resistance(i%g.N(), (i*3+1)%g.N())
		if err != nil {
			t.Fatalf("Resistance: %v", err)
		}
		if math.IsNaN(r) || r < 0 {
			t.Fatalf("Resistance returned %v", r)
		}
	}
	<-done
}
