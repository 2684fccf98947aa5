package kickstarter

import (
	"math"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/graph"
	"layph/internal/inc"
)

func factory(g *graph.Graph, a algo.Algorithm) inc.System {
	return New(g, a, engine.Options{})
}

func TestEquivalenceMinAlgorithms(t *testing.T) {
	for name, mk := range enginetest.MinAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "kickstarter/" + name, New: factory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceWithVertexUpdates(t *testing.T) {
	cfg := enginetest.EquivalenceConfig()
	cfg.AddVertices, cfg.DelVertices = 3, 3
	for name, mk := range enginetest.MinAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "kickstarter/" + name, New: factory}}, mk, cfg)
		})
	}
}

func TestRejectsNonMonotonic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PageRank")
		}
	}()
	New(graph.New(1), algo.NewPageRank(0.85, 1e-6), engine.Options{})
}

func TestDeletionTrimsAndRecovers(t *testing.T) {
	// Diamond: 0->1->3 (short), 0->2->3 (long). Delete (1,3): 3 must be
	// trimmed and re-converge through 2.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 3)
	e := New(g, algo.NewSSSP(0), engine.Options{})
	if e.States()[3] != 2 {
		t.Fatalf("initial x3 = %v", e.States()[3])
	}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 1, V: 3}})
	st := e.Update(applied)
	if st.Resets == 0 {
		t.Fatal("expected a trim")
	}
	if e.States()[3] != 6 {
		t.Fatalf("x3 = %v, want 6", e.States()[3])
	}
}

func TestDisconnection(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	e := New(g, algo.NewBFS(0), engine.Options{})
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 1}})
	e.Update(applied)
	if !math.IsInf(e.States()[1], 1) || !math.IsInf(e.States()[2], 1) {
		t.Fatalf("stale states: %v", e.States())
	}
	// Reconnect with a different weight path.
	applied = delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: 2, W: 1}})
	e.Update(applied)
	if e.States()[2] != 1 {
		t.Fatalf("x2 = %v after reconnect", e.States()[2])
	}
}

func TestPullCountsActivations(t *testing.T) {
	// Diamond as in TestDeletionTrimsAndRecovers: the trimmed vertex still
	// has a valid in-edge, so the correction loop must pull (and count) it.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 3)
	e := New(g, algo.NewSSSP(0), engine.Options{})
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 1, V: 3}})
	st := e.Update(applied)
	if st.Activations == 0 {
		t.Fatal("pull correction should count activations")
	}
	if e.Name() != "kickstarter" {
		t.Fatal("name")
	}
}
