package risgraph

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
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "risgraph/" + name, New: factory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceWithVertexUpdates(t *testing.T) {
	cfg := enginetest.EquivalenceConfig()
	cfg.AddVertices, cfg.DelVertices = 3, 3
	for name, mk := range enginetest.MinAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "risgraph/" + name, New: factory}}, mk, cfg)
		})
	}
}

func TestRejectsNonMonotonic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PHP")
		}
	}()
	New(graph.New(1), algo.NewPHP(0, 0.8, 1e-6), engine.Options{})
}

func TestSafeClassification(t *testing.T) {
	// 0 -> 1 with weight 1; adding a worse parallel path is safe, deleting a
	// non-dependency edge is safe.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(1, 2, 1) // x2 = 2 via 1, dependency edge is (1,2)
	e := New(g, algo.NewSSSP(0), engine.Options{})
	if e.States()[2] != 2 {
		t.Fatalf("x2 = %v", e.States()[2])
	}
	// Adding a fresh non-improving edge (offer 2+5=7 > x1=1): safe.
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 2, V: 1, W: 5}})
	st := e.Update(applied)
	if e.Unsafe != 0 || e.Safe == 0 {
		t.Fatalf("safe=%d unsafe=%d for non-improving insertion", e.Safe, e.Unsafe)
	}
	if st.Resets != 0 {
		t.Fatal("safe update must not reset")
	}
	// Deleting the non-dependency edge (0,2): safe.
	e.Safe, e.Unsafe = 0, 0
	applied = delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 2}})
	e.Update(applied)
	if e.Unsafe != 0 || e.Safe != 1 {
		t.Fatalf("safe=%d unsafe=%d for non-dependency deletion", e.Safe, e.Unsafe)
	}
	if e.States()[2] != 2 {
		t.Fatalf("x2 changed on safe deletion: %v", e.States()[2])
	}
}

func TestUnsafeClassification(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	e := New(g, algo.NewSSSP(0), engine.Options{})
	// Improving insertion: unsafe, must propagate.
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: 1, W: 1}})
	e.Update(applied)
	if e.Unsafe == 0 {
		t.Fatal("improving insertion must be unsafe")
	}
	if e.States()[1] != 1 {
		t.Fatalf("x1 = %v", e.States()[1])
	}
	// Dependency deletion: unsafe, resets.
	applied = delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 1}})
	st := e.Update(applied)
	if st.Resets == 0 {
		t.Fatal("dependency deletion must reset")
	}
	if !math.IsInf(e.States()[1], 1) {
		t.Fatalf("x1 = %v, want +inf", e.States()[1])
	}
}

func TestChainedSubtreeReset(t *testing.T) {
	// Chain 0->1->2->3; deleting (0,1) invalidates the whole chain, and an
	// alternative edge 0->3 must then serve 3.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	e := New(g, algo.NewSSSP(0), engine.Options{})
	if e.States()[3] != 3 {
		t.Fatalf("x3 = %v", e.States()[3])
	}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 1}})
	st := e.Update(applied)
	if st.Resets < 3 {
		t.Fatalf("resets = %d, want >= 3", st.Resets)
	}
	want := []float64{0, math.Inf(1), math.Inf(1), 10}
	if !algo.StatesClose(e.States(), want, 0) {
		t.Fatalf("states = %v, want %v", e.States(), want)
	}
}

func TestName(t *testing.T) {
	g := graph.New(1)
	e := New(g, algo.NewBFS(0), engine.Options{})
	if e.Name() != "risgraph" {
		t.Fatal("name")
	}
}
