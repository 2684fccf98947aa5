// Package inc provides the shared machinery of incremental graph
// computation (Section II-B of the paper): memoized state, dependency
// trees for idempotent (min-like) algorithms, and revision-message
// deduction — cancellation messages that retract the effects of invalid
// messages and compensation messages that replay missing ones.
//
// Two incrementalization schemes exist, keyed on the semiring:
//
//   - Idempotent (tropical; SSSP/BFS): min has no inverse, so edge deletions
//     are handled with a dependency tree: every vertex remembers the
//     in-neighbor that determined its state; deleting a dependency edge
//     invalidates the whole downstream subtree, which is reset to 0̄ (the
//     paper's ⊥ cancellation) and recomputed from offers made by its intact
//     in-neighbors. This is the scheme of KickStarter, RisGraph and
//     Ingress's memoization-path engine.
//
//   - Non-idempotent (real; PageRank/PHP): sum has an inverse, so an edge
//     change (u,v): w0→w1 is compensated exactly by the delta message
//     x_old(u)·(w1−w0); no per-edge memoization beyond the converged states
//     is needed. This is Ingress's memoization-free engine.
//
// Kernel runs both schemes over one frame; Ingress and the shard engines
// are kernels.
package inc

import (
	"slices"
	"time"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// Stats describes one incremental update run. Activations include the F
// applications spent deducing revision messages, not just those of the
// subsequent iterative propagation, mirroring how the paper counts them.
type Stats struct {
	// Activations is the number of F applications (edge activations).
	Activations int64
	// Rounds is the number of the engine's queue generations (see
	// engine.Result.Rounds).
	Rounds int
	// Resets is the number of vertices invalidated by ⊥ cancellations
	// (idempotent scheme only).
	Resets int
	// Duration is the wall-clock time of the update.
	Duration time.Duration
	// SubgraphsParallel counts the lower-layer pool tasks dispatched to
	// the engine's shared worker pool during the update (upload fixpoints,
	// shortcut maintenance and assignment replays; Layph only). Touched
	// subgraphs are fused into edge-weight-balanced chunks before
	// dispatch, so this counts chunks, not individual subgraphs. It
	// measures the parallelism the batch exposed, independent of how many
	// threads actually ran the tasks.
	SubgraphsParallel int64
	// PoolUtilization is the fraction of worker-pool capacity kept busy
	// over the update's wall-clock time (0..1; 0 for engines without a
	// pool).
	PoolUtilization float64
	// ReplayedBatches counts Update calls that re-applied write-ahead-log
	// tail batches during crash recovery rather than live traffic. In an
	// aggregated record it separates recovery work from serving work.
	ReplayedBatches int64
	// ShardRounds counts the global boundary-exchange rounds of the
	// sharded execution mode (internal/shard only; 0 elsewhere).
	ShardRounds int64
	// BoundaryPins counts cross-shard boundary values exchanged between
	// shard engines (internal/shard only; 0 elsewhere).
	BoundaryPins int64

	// The layering-quality signal (Layph only; the drift controller in
	// internal/stream reads these to decide when the two-layer structure
	// has decayed enough to warrant a background re-detection).

	// TouchedSubgraphRatio is the fraction of dense subgraphs whose lower
	// layers this update had to enter (0..1). The paper's whole advantage
	// is confinement — a rising ratio means community drift is defeating
	// the layering.
	TouchedSubgraphRatio float64
	// SkeletonFraction is the fraction of live vertices on the upper
	// layer (entries, exits, outliers) after this update (0..1). A fat
	// skeleton means the global iteration phase dominates.
	SkeletonFraction float64
	// ShortcutHitRate is the fraction of shortcut applications during
	// assignment that improved the target state (0..1; idempotent scheme —
	// the non-idempotent scheme applies every above-tolerance delta, so it
	// reports ~1 and the gauge is diagnostic only there).
	ShortcutHitRate float64
	// MembershipMoves counts vertices migrated between communities by a
	// landing re-detection (core.Layph.Redetect); it is 0 on every other
	// update.
	MembershipMoves int64
}

// Add accumulates another update's record into s: counters and durations
// sum, so a zero Stats is the identity. Streaming pipelines use it to
// aggregate per-micro-batch records over a stream's lifetime.
// PoolUtilization, a ratio rather than a counter, combines as the
// duration-weighted mean of the two records.
func (s *Stats) Add(o Stats) {
	if s.Duration+o.Duration > 0 {
		w := func(a, b float64) float64 {
			return (a*float64(s.Duration) + b*float64(o.Duration)) / float64(s.Duration+o.Duration)
		}
		s.PoolUtilization = w(s.PoolUtilization, o.PoolUtilization)
		s.TouchedSubgraphRatio = w(s.TouchedSubgraphRatio, o.TouchedSubgraphRatio)
		s.SkeletonFraction = w(s.SkeletonFraction, o.SkeletonFraction)
		s.ShortcutHitRate = w(s.ShortcutHitRate, o.ShortcutHitRate)
	}
	s.MembershipMoves += o.MembershipMoves
	s.Activations += o.Activations
	s.Rounds += o.Rounds
	s.Resets += o.Resets
	s.SubgraphsParallel += o.SubgraphsParallel
	s.ReplayedBatches += o.ReplayedBatches
	s.ShardRounds += o.ShardRounds
	s.BoundaryPins += o.BoundaryPins
	s.Duration += o.Duration
}

// System is the interface every incremental engine in this repository
// implements (the five baselines and Layph). The lifecycle is: construct on
// a graph (which runs the batch computation once), then repeatedly mutate
// the graph via delta.Apply and pass the Applied record to Update.
type System interface {
	// Name identifies the engine ("ingress", "kickstarter", ...).
	Name() string
	// States returns the current converged states (live view; do not mutate).
	States() []float64
	// Update incrementally adjusts the states to the already-applied batch.
	Update(applied *delta.Applied) Stats
}

// GrowVectors extends a per-vertex vector to n entries, filling new slots
// with fill; the vector is reallocated at most once.
func GrowVectors[T any](x []T, n int, fill T) []T {
	x = slices.Grow(x, max(n-len(x), 0))
	for len(x) < n {
		x = append(x, fill)
	}
	return x
}

// GrowParents extends a parent vector to n entries filled with NoParent.
func GrowParents(p []graph.VertexID, n int) []graph.VertexID {
	for len(p) < n {
		p = append(p, engine.NoParent)
	}
	return p
}
