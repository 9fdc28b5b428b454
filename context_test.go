package landmarkrd_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	landmarkrd "landmarkrd"
)

const cancelCorpusGraph = "testdata/corpus/grid_14x14.edges"

func loadCancelGraph(t *testing.T) *landmarkrd.Graph {
	t.Helper()
	g, _, err := landmarkrd.LoadEdgeList(cancelCorpusGraph)
	if err != nil {
		t.Fatalf("loading %s: %v", cancelCorpusGraph, err)
	}
	return g
}

// TestKernelsHonorCanceledContext runs every iterative kernel behind the
// public API with an already-canceled context and asserts each aborts with
// an error matching both ErrCanceled and the context cause, returning no
// result.
func TestKernelsHonorCanceledContext(t *testing.T) {
	g := loadCancelGraph(t)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()

	estimator := func(m landmarkrd.Method) func() error {
		return func() error {
			est, err := landmarkrd.NewEstimator(g, m, landmarkrd.Options{Seed: 3})
			if err != nil {
				return err
			}
			res, err := est.PairContext(ctx, 0, 100)
			if err == nil {
				return nil
			}
			if res.Value != 0 {
				t.Errorf("%v: canceled query still produced value %g", m, res.Value)
			}
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"exact-cg", func() error {
			v, err := landmarkrd.ExactContext(ctx, g, 0, 100)
			if err == nil {
				return nil
			}
			if v != 0 {
				t.Errorf("exact: canceled query still produced value %g", v)
			}
			return err
		}},
		{"abwalk", estimator(landmarkrd.AbWalk)},
		{"push", estimator(landmarkrd.Push)},
		{"bipush", estimator(landmarkrd.BiPush)},
		{"singlesource", func() error {
			idx, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{Landmarks: []int{0}, Seed: 3})
			if err != nil {
				return err
			}
			values, _, err := landmarkrd.PortfolioSingleSourceContext(ctx, idx, 5)
			if err == nil {
				return nil
			}
			if values != nil {
				t.Error("singlesource: canceled query still returned values")
			}
			return err
		}},
		{"batch", func() error {
			engine, err := landmarkrd.NewBatchEngine(g, landmarkrd.BiPush, landmarkrd.BatchOptions{})
			if err != nil {
				return err
			}
			results, err := engine.PairsContext(ctx, []landmarkrd.PairQuery{{S: 0, T: 100}, {S: 1, T: 50}})
			if err == nil {
				return nil
			}
			if results != nil {
				t.Error("batch: canceled call still returned results")
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, landmarkrd.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v does not match context.Canceled", err)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v wrongly matches context.DeadlineExceeded", err)
			}
		})
	}
}

// TestPairsContextExpiredDeadline is the acceptance scenario: a batch under
// an expired deadline on the corpus grid graph returns ErrCanceled whose
// cause is context.DeadlineExceeded, without completing any solve.
func TestPairsContextExpiredDeadline(t *testing.T) {
	g := loadCancelGraph(t)
	engine, err := landmarkrd.NewBatchEngine(g, landmarkrd.BiPush, landmarkrd.BatchOptions{
		Options: landmarkrd.Options{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelFn := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelFn()

	queries := make([]landmarkrd.PairQuery, 64)
	for i := range queries {
		queries[i] = landmarkrd.PairQuery{S: i % g.N(), T: (i*7 + 3) % g.N()}
	}
	results, err := engine.PairsContext(ctx, queries)
	if results != nil {
		t.Error("expired deadline still returned results")
	}
	if !errors.Is(err, landmarkrd.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not match context.DeadlineExceeded", err)
	}
	// The abort happened before any query recorded work.
	if stats := engine.Stats(); stats.Queries != 0 {
		t.Errorf("engine answered %d queries under an expired deadline", stats.Queries)
	}
}

// TestContextPathsAreByteIdentical pins the delegation contract: the
// non-context APIs and the context APIs under context.Background() consume
// identical random streams and produce bit-equal values.
func TestContextPathsAreByteIdentical(t *testing.T) {
	g := loadCancelGraph(t)
	for _, m := range []landmarkrd.Method{landmarkrd.AbWalk, landmarkrd.Push, landmarkrd.BiPush} {
		plain, err := landmarkrd.NewEstimator(g, m, landmarkrd.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := landmarkrd.NewEstimator(g, m, landmarkrd.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{0, 100}, {3, 77}, {50, 150}} {
			a, err := plain.Pair(pair[0], pair[1])
			if err != nil {
				t.Fatalf("%v Pair%v: %v", m, pair, err)
			}
			b, err := withCtx.PairContext(context.Background(), pair[0], pair[1])
			if err != nil {
				t.Fatalf("%v PairContext%v: %v", m, pair, err)
			}
			if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Errorf("%v %v: Pair = %x, PairContext(Background) = %x",
					m, pair, math.Float64bits(a.Value), math.Float64bits(b.Value))
			}
			if a.Walks != b.Walks || a.WalkSteps != b.WalkSteps || a.PushOps != b.PushOps {
				t.Errorf("%v %v: work counters diverge: %+v vs %+v", m, pair, a, b)
			}
		}
	}

	ve, err := landmarkrd.Exact(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := landmarkrd.ExactContext(context.Background(), g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ve) != math.Float64bits(vc) {
		t.Errorf("Exact = %x, ExactContext(Background) = %x", math.Float64bits(ve), math.Float64bits(vc))
	}
}

// TestCanceledMetric asserts an aborted query is counted in the shared sink.
func TestCanceledMetric(t *testing.T) {
	g := loadCancelGraph(t)
	est, err := landmarkrd.NewEstimator(g, landmarkrd.AbWalk, landmarkrd.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := est.PairContext(ctx, 0, 100); !errors.Is(err, landmarkrd.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats := est.Stats(); stats.Canceled == 0 {
		t.Errorf("stats.Canceled = 0 after an aborted query: %+v", stats)
	}
}
