package ingress

import (
	"math"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

func factory(g *graph.Graph, a algo.Algorithm) inc.System {
	return New(g, a, engine.Options{})
}

func TestEquivalenceAllAlgorithms(t *testing.T) {
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "ingress/" + name, New: factory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceWithVertexUpdates(t *testing.T) {
	cfg := enginetest.EquivalenceConfig()
	cfg.AddVertices, cfg.DelVertices = 3, 3
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "ingress/" + name, New: factory}}, mk, cfg)
		})
	}
}

func TestPaperExampleSSSP(t *testing.T) {
	// Figure 2 of the paper: 9 vertices, edge (v3,v4,1) deleted and
	// (v3,v2,2) added; final distances from v0 must match Example 4-6:
	// {0, 1, 3, 1, 4, 7, 8, 9, 9}.
	g := graph.New(9)
	type e struct {
		u, v graph.VertexID
		w    float64
	}
	for _, ed := range []e{
		{0, 1, 1}, {1, 3, 1}, {3, 2, 3}, {3, 4, 1}, {2, 4, 1}, {1, 2, 4},
		{4, 5, 3}, {5, 6, 1}, {6, 7, 1}, {6, 8, 1}, {5, 0, 2}, {7, 8, 2},
		{5, 8, 2},
	} {
		g.AddEdge(ed.u, ed.v, ed.w)
	}
	eng := New(g, algo.NewSSSP(0), engine.Options{})
	applied := delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 3, V: 4},
		{Kind: delta.AddEdge, U: 3, V: 2, W: 2},
	})
	st := eng.Update(applied)
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(eng.States(), want.X, 0) {
		t.Fatalf("states = %v, want %v", eng.States(), want.X)
	}
	// Deleting the dependency edge (v3,v4) must reset v4's subtree.
	if st.Resets == 0 {
		t.Fatal("expected dependency resets for the deleted tree edge")
	}
}

// TestIncrementalCheaperThanRestartSmallDelta pins that the
// memoization-free (sum) scheme is local for small deltas: a 10-edge ΔG on
// a community graph (the UK preset ×0.25) must cost under half the
// activations of a restart. (The min-path scheme carries no such guarantee
// — Figure 1 of the paper shows its activations approaching restart levels,
// which is exactly the problem Layph attacks.) The chain of blocks is a
// logged row only: on its one-way chain at tolerance 1e-8 an upstream edit
// reaches every downstream block, so a small delta there is not a small
// fraction of the work.
func TestIncrementalCheaperThanRestartSmallDelta(t *testing.T) {
	a := algo.NewPageRank(0.85, 1e-8)
	chain, _ := buildBig(t)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		assert bool
	}{
		{"UK x0.25", gen.Build(gen.PresetUK, 0.25), true},
		{"chain", chain, false},
	} {
		eng := New(tc.g, a, engine.Options{})
		batch := delta.NewGenerator(5).EdgeBatch(tc.g, 10, true)
		st := eng.Update(delta.Apply(tc.g, batch))
		restart := engine.RunBatch(tc.g, a, engine.Options{})
		t.Logf("%s: incremental %d activations, restart %d (ratio %.2f)", tc.name,
			st.Activations, restart.Activations, float64(st.Activations)/float64(restart.Activations))
		if tc.assert && st.Activations*2 >= restart.Activations {
			t.Fatalf("%s: incremental activations %d not clearly below restart %d for a 10-edge delta",
				tc.name, st.Activations, restart.Activations)
		}
	}
}

func buildBig(t *testing.T) (*graph.Graph, algo.Algorithm) {
	t.Helper()
	g := graph.New(0)
	// Chain-of-blocks graph: deterministic; every block reaches the blocks
	// after it.
	const blocks, per = 40, 25
	for i := 0; i < blocks*per; i++ {
		g.AddVertex()
	}
	for b := 0; b < blocks; b++ {
		base := graph.VertexID(b * per)
		for i := 0; i < per; i++ {
			g.AddEdge(base+graph.VertexID(i), base+graph.VertexID((i+1)%per), 1+float64(i%5))
			g.AddEdge(base+graph.VertexID(i), base+graph.VertexID((i+7)%per), 2)
		}
		if b+1 < blocks {
			g.AddEdge(base+per-1, base+per, 1)
		}
	}
	return g, algo.NewSSSP(0)
}

func TestStatesViewIsLive(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	eng := New(g, algo.NewSSSP(0), engine.Options{})
	if eng.States()[1] != 1 {
		t.Fatalf("initial states: %v", eng.States())
	}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 1, V: 2, W: 5}})
	eng.Update(applied)
	if eng.States()[2] != 6 {
		t.Fatalf("post-update states: %v", eng.States())
	}
}

func TestDeleteOnlyInEdgeOfSource(t *testing.T) {
	// Deleting the only path re-disconnects downstream vertices: states must
	// return to +inf, not keep stale finite values.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	eng := New(g, algo.NewSSSP(0), engine.Options{})
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 1}})
	eng.Update(applied)
	if !math.IsInf(eng.States()[1], 1) || !math.IsInf(eng.States()[2], 1) {
		t.Fatalf("stale states after disconnect: %v", eng.States())
	}
}

func TestAccessors(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	eng := New(g, algo.NewSSSP(0), engine.Options{})
	if eng.Name() != "ingress" {
		t.Fatal("name")
	}
	if eng.InitialStats.Activations == 0 {
		t.Fatal("initial stats not recorded")
	}
}
