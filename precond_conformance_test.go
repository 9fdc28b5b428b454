package landmarkrd

// Conformance for the kernel-speed paths added with the pluggable
// preconditioning work: chol/auto-preconditioned exact index builds over the
// whole golden corpus, the grouped multi-RHS conflict fallback against the
// inline exact solver, and the adaptive batch allocator through the public
// engine API.

import (
	"context"
	"math"
	"testing"

	"landmarkrd/internal/core"
)

// TestConformancePrecond builds the DiagExactCG index under every
// preconditioner mode on every corpus graph and holds each to the exact
// 1e-9 conformance tolerance against the dense oracle. The preconditioner
// may change the CG trajectory but never where it converges.
func TestConformancePrecond(t *testing.T) {
	for _, c := range conformanceCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			s := c.Pairs[0][0]
			want, err := c.O.SingleSource(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []PrecondMode{PrecondNone, PrecondChol, PrecondAuto} {
				idx, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{Landmarks: []int{c.Landmark}, Precond: mode})
				if err != nil {
					t.Fatalf("%v build: %v", mode, err)
				}
				if mode != PrecondAuto && idx.PrecondModes[0] != mode {
					t.Errorf("requested %v, index reports %v", mode, idx.PrecondModes[0])
				}
				got, _, err := idx.SingleSource(s, core.SingleSourceOptions{Tol: 1e-12})
				if err != nil {
					t.Fatalf("%v SingleSource: %v", mode, err)
				}
				for v := range want {
					checkClose(t, mode.String()+" single-source", got[v], want[v], exactTol)
				}
			}
		})
	}
}

// TestConformancePrecondWorkerDeterminism: a chol-preconditioned build must
// be byte-identical at any worker count on a corpus graph (the shared
// read-only factor must not introduce scheduling dependence).
func TestConformancePrecondWorkerDeterminism(t *testing.T) {
	var c conformanceCase
	found := false
	for _, cc := range conformanceCases(t) {
		if cc.Name == "grid_14x14" {
			c, found = cc, true
		}
	}
	if !found {
		t.Fatal("corpus graph grid_14x14 missing")
	}
	build := func(workers int) []float64 {
		idx, err := BuildPortfolioIndex(c.G, PortfolioBuildOptions{
			Landmarks: []int{c.Landmark}, Precond: PrecondChol, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx.Cols[0]
	}
	seq := build(1)
	par := build(8)
	for v := range seq {
		if math.Float64bits(seq[v]) != math.Float64bits(par[v]) {
			t.Fatalf("diag[%d]: %v (1 worker) != %v (8 workers)", v, seq[v], par[v])
		}
	}
}

// TestBatchConflictExactGrouped: under ConflictExact, landmark-touching
// queries are answered by a grouped multi-RHS solve after the batch; each
// answer must be bit-for-bit what the inline per-query ExactContext
// fallback produced before the grouping existed.
func TestBatchConflictExactGrouped(t *testing.T) {
	g, err := BarabasiAlbert(300, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewBatchEngine(g, Push, BatchOptions{
		Options: Options{Seed: 1, Theta: 1e-6},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	landmark := engine.Landmark()
	queries := []PairQuery{
		{S: landmark, T: (landmark + 5) % g.N()},
		{S: 7, T: 90},
		{S: (landmark + 9) % g.N(), T: landmark},
		{S: landmark, T: (landmark + 5) % g.N()}, // duplicate conflict
		{S: 11, T: 250},
	}
	results, err := engine.Pairs(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if q.S != landmark && q.T != landmark {
			continue
		}
		r := results[i]
		if r.Err != nil {
			t.Fatalf("conflict query %d unresolved: %v", i, r.Err)
		}
		if !r.Estimate.Converged || r.Degraded {
			t.Errorf("conflict query %d: %+v", i, r.Estimate)
		}
		want, err := ExactContext(context.Background(), g, q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Estimate.Value) != math.Float64bits(want) {
			t.Errorf("conflict query %d: %v != inline exact %v (bitwise)", i, r.Estimate.Value, want)
		}
	}
	stats := engine.Stats()
	if stats.ExactFallbacks != 3 {
		t.Errorf("ExactFallbacks = %d, want 3", stats.ExactFallbacks)
	}
}

// TestAdaptivePairsEngine drives the adaptive allocator through the public
// batch engine: determinism across worker counts, conflict handling via the
// grouped exact path, and budget conservation.
func TestAdaptivePairsEngine(t *testing.T) {
	g, err := BarabasiAlbert(250, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *BatchEngine {
		e, err := NewBatchEngine(g, AbWalk, BatchOptions{
			Options: Options{Seed: 9},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	landmark := mk(1).Landmark()
	var queries []PairQuery
	for i := 0; len(queries) < 8; i++ {
		s, u := (i*11+1)%g.N(), (i*29+100)%g.N()
		if s == u || s == landmark || u == landmark {
			continue
		}
		queries = append(queries, PairQuery{S: s, T: u})
	}
	queries = append(queries, PairQuery{S: landmark, T: (landmark + 3) % g.N()})

	opts := AdaptiveBatchOptions{TotalWalks: 6000, PilotWalks: 48}
	ref, err := mk(1).AdaptivePairs(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk(8).AdaptivePairs(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	spent := 0
	for i := range ref {
		if ref[i].Err != nil {
			t.Fatalf("query %d: %v", i, ref[i].Err)
		}
		if math.Float64bits(ref[i].Estimate.Value) != math.Float64bits(got[i].Estimate.Value) ||
			ref[i].Estimate.Walks != got[i].Estimate.Walks {
			t.Fatalf("query %d differs across worker counts: %+v vs %+v",
				i, ref[i].Estimate, got[i].Estimate)
		}
		if i < len(queries)-1 {
			spent += ref[i].Estimate.Walks / 2
		}
	}
	if spent != opts.TotalWalks {
		t.Errorf("sampled %d walk-pairs, want %d", spent, opts.TotalWalks)
	}
	// The conflict query must be answered exactly, like Pairs would.
	last := ref[len(ref)-1]
	want, err := ExactContext(context.Background(), g, last.S, last.T)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(last.Estimate.Value) != math.Float64bits(want) {
		t.Errorf("conflict query: %v != exact %v", last.Estimate.Value, want)
	}
}
