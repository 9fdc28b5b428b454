package landmarkrd

import (
	"context"

	"landmarkrd/internal/cancel"
	"landmarkrd/internal/lap"
)

// ErrCanceled is returned (wrapped — test with errors.Is) by every
// context-aware query path once its context is done. The error also
// matches the underlying context cause, so
//
//	errors.Is(err, ErrCanceled)                 // "the query was aborted"
//	errors.Is(err, context.DeadlineExceeded)    // "…because it timed out"
//	errors.Is(err, context.Canceled)            // "…because the caller gave up"
//
// all hold as appropriate. The iterative kernels poll their context every
// few iterations (CG, Lanczos) or every few thousand steps/relaxations
// (walks, pushes), so an abort lands within microseconds of cancellation
// while costing under 1% on the uncancelled hot paths. Non-context APIs
// delegate with context.Background(), whose nil Done channel short-circuits
// every poll — their results stay byte-identical.
var ErrCanceled = cancel.ErrCanceled

// ExactContext is Exact with cancellation: the grounded CG solve aborts
// within a few matvecs once ctx is done, returning an error matching
// ErrCanceled and the context cause. The aborted solve is counted in
// SolverStats().Canceled along with its partial iteration work.
func ExactContext(ctx context.Context, g *Graph, s, t int) (float64, error) {
	if err := requireGraph(g); err != nil {
		return 0, err
	}
	return lap.ResistanceCGContext(ctx, g, s, t)
}

// PairContext is Pair with cancellation: the estimator's iterative kernels
// (walk loops, push queues) poll ctx and abort with an error matching
// ErrCanceled once the context is done. The partial work done before the
// abort is recorded in the estimator's Metrics as a canceled observation.
// With a context that can never cancel the result is byte-identical to
// Pair, including the consumed random stream.
func (e *Estimator) PairContext(ctx context.Context, s, t int) (Estimate, error) {
	switch e.method {
	case AbWalk:
		return e.ab.PairContext(ctx, s, t)
	case Push:
		return e.push.PairContext(ctx, s, t)
	default:
		return e.bipush.PairContext(ctx, s, t)
	}
}

// pairDiagContext is PairContext handed the routed landmark's exact
// diagonal column (nil when the column is not exact): BiPush then answers
// index-assisted with one correction side (core.PairDiagContext); every
// other method, and a nil diag, answers exactly as PairContext.
func (e *Estimator) pairDiagContext(ctx context.Context, s, t int, diag []float64) (Estimate, error) {
	if e.method == BiPush {
		return e.bipush.PairDiagContext(ctx, s, t, diag)
	}
	return e.PairContext(ctx, s, t)
}
