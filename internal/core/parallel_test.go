package core

import (
	"math"
	"slices"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/graph"
	"layph/internal/inc"
)

// replaySequence builds a Layph with the given worker count and replays a
// fixed seeded update sequence (edge churn plus vertex add/del mixes),
// returning the engine, a copy of its final states and the accumulated
// stats. A non-nil after runs once every Update has returned (all pool
// tasks are joined by then) with the batch index.
func replaySequence(t *testing.T, mk func() algo.Algorithm, workers int, seed int64, after func(l *Layph, b int)) (*Layph, []float64, inc.Stats) {
	t.Helper()
	g := testGraph(seed)
	l := New(g, mk(), Options{Workers: workers})
	genr := delta.NewGenerator(seed * 31)
	var total inc.Stats
	batches := 4
	if testing.Short() {
		batches = 2
	}
	for b := 0; b < batches; b++ {
		batch := genr.EdgeBatch(g, 60, true)
		for _, u := range genr.VertexBatch(g, 2, 2, 2, true) {
			if u.Kind == delta.DelVertex && u.U == 0 {
				continue // keep the source vertex alive
			}
			batch = append(batch, u)
		}
		applied := delta.Apply(g, batch)
		st := l.Update(applied)
		total.Add(st)
		if after != nil {
			after(l, b)
		}
	}
	return l, append([]float64(nil), l.States()...), total
}

// Determinism contract, monotone-min half: with any fixed Threads value,
// two identical runs must produce byte-identical state vectors for
// SSSP/BFS — min folding is exact, subgraph tasks are independent, and
// merges happen in deterministic task order.
func TestDeterministicParallelMin(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"sssp": func() algo.Algorithm { return algo.NewSSSP(0) },
		"bfs":  func() algo.Algorithm { return algo.NewBFS(0) },
	} {
		t.Run(name, func(t *testing.T) {
			_, x1, _ := replaySequence(t, mk, 8, 3, nil)
			_, x2, _ := replaySequence(t, mk, 8, 3, nil)
			if len(x1) != len(x2) {
				t.Fatalf("state lengths differ: %d vs %d", len(x1), len(x2))
			}
			for v := range x1 {
				if math.Float64bits(x1[v]) != math.Float64bits(x2[v]) {
					t.Fatalf("vertex %d: %v vs %v — identical Threads=8 runs not byte-identical", v, x1[v], x2[v])
				}
			}
		})
	}
}

// Determinism contract, sum half: identical Threads=8 runs of PageRank
// and PHP must agree within StatesClose tolerance (float accumulation
// order inside the multi-worker skeleton iteration may differ at rounding
// level; the subgraph-local phases are exact).
func TestDeterministicParallelSum(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
		"php":      func() algo.Algorithm { return algo.NewPHP(0, 0.8, 1e-10) },
	} {
		t.Run(name, func(t *testing.T) {
			_, x1, _ := replaySequence(t, mk, 8, 5, nil)
			_, x2, _ := replaySequence(t, mk, 8, 5, nil)
			if !algo.StatesClose(x1, x2, 1e-9) {
				t.Fatalf("identical Threads=8 runs differ beyond tolerance (max diff %v)", algo.MaxStateDiff(x1, x2))
			}
		})
	}
}

// Determinism contract, sequential half: two identical Threads=1 runs are
// byte-identical for every algorithm, states and dependency parents alike.
// It holds only because delta.Apply lists a batch's changes in a fixed
// order: sum-scheme corrections fold them in that order.
func TestDeterministicSequential(t *testing.T) {
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			l1, x1, _ := replaySequence(t, mk, 1, 5, nil)
			l2, x2, _ := replaySequence(t, mk, 1, 5, nil)
			if len(x1) != len(x2) {
				t.Fatalf("state lengths differ: %d vs %d", len(x1), len(x2))
			}
			for v := range x1 {
				if math.Float64bits(x1[v]) != math.Float64bits(x2[v]) {
					t.Fatalf("vertex %d: %v vs %v — identical Threads=1 runs not byte-identical", v, x1[v], x2[v])
				}
			}
			if !slices.Equal(l1.parent, l2.parent) {
				t.Fatal("identical Threads=1 runs ended with different dependency parents")
			}
		})
	}
}

// A parallel engine (Threads=8) must land on the same answer as the
// strictly sequential one (Threads=1) and as a from-scratch restart.
func TestParallelMatchesSequential(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"sssp":     func() algo.Algorithm { return algo.NewSSSP(0) },
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		t.Run(name, func(t *testing.T) {
			l1, x1, _ := replaySequence(t, mk, 1, 9, nil)
			l8, x8, _ := replaySequence(t, mk, 8, 9, nil)
			g := l8.Graph()
			want := engine.RunBatch(g, mk(), engine.Options{})
			ok := true
			g.Vertices(func(v graph.VertexID) {
				if !algo.StatesClose(x8[v:v+1], want.X[v:v+1], 1e-6) ||
					!algo.StatesClose(x1[v:v+1], x8[v:v+1], 1e-6) {
					ok = false
				}
			})
			if !ok {
				t.Fatal("Threads=1, Threads=8 and restart disagree")
			}
			_ = l1
		})
	}
}

// Invariants must hold after every parallel update: CheckInvariants runs
// once Update returns, at the post-phase merge barrier where no pool task
// is in flight. The sequence must also contain a batch that rebuilds one
// subgraph while patchShortcuts revises another's entries in the same
// fan-out, so the race build covers a patch's flatIn reads beside a
// rebuild's localIdx writes, and a batch whose shortcut fan-out (with its
// in-task skeleton-row refreshes) and whose refresh of the role-recomputed
// rows (refreshUpRows) each run at least two chunks.
func TestInvariantsAfterParallelUpdate(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"sssp":     func() algo.Algorithm { return algo.NewSSSP(0) },
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		t.Run(name, func(t *testing.T) {
			var builds int64
			mixed, chunked := false, false
			replaySequence(t, mk, 8, 13, func(l *Layph, b int) {
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("batch %d: invariants violated after update: %v", b, err)
				}
				// A rebuilt frame is fresh; a patched one keeps the
				// snapshot epoch of this update's edits.
				patched := false
				for _, s := range l.subs {
					patched = patched || s.Local.edit.epoch == l.epoch
				}
				mixed = mixed || (l.builds > builds && patched)
				builds = l.builds
				var affected []*Subgraph
				for _, s := range subgraphList(l.subs) {
					if c := graph.VertexID(s.ID); l.scratch.structural.Has(c) || l.scratch.edited.Has(c) {
						affected = append(affected, s)
					}
				}
				chunked = chunked || (len(l.subgraphChunks(affected)) >= 2 && len(l.scratch.roleSeen.List) >= 2*minUpChunk)
			})
			if !mixed {
				t.Fatal("no batch rebuilt a subgraph while patching another")
			}
			if !chunked {
				t.Fatal("no batch refreshed skeleton rows in two or more chunks of both fan-outs")
			}
		})
	}
}

// The update must report its lower-layer parallelism: subgraph tasks
// dispatched and pool utilization within [0, 1].
func TestParallelStatsReported(t *testing.T) {
	_, _, st := replaySequence(t, func() algo.Algorithm { return algo.NewSSSP(0) }, 4, 17, nil)
	if st.SubgraphsParallel == 0 {
		t.Fatal("no subgraph tasks reported on a community graph")
	}
	if st.PoolUtilization < 0 || st.PoolUtilization > 1 {
		t.Fatalf("pool utilization out of range: %v", st.PoolUtilization)
	}
	if st.PoolUtilization == 0 {
		t.Fatal("pool utilization not measured")
	}
}
