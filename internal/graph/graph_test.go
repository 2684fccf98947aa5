package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	for v := VertexID(0); v < 5; v++ {
		if !g.Alive(v) {
			t.Errorf("vertex %d not alive", v)
		}
	}
	if g.Alive(5) {
		t.Error("out-of-range vertex reported alive")
	}
}

func TestAddDeleteEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.0)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("HasEdge(0,1) = %v,%v", w, ok)
	}
	// Overwrite keeps edge count and returns previous weight.
	prev, replaced := g.AddEdge(0, 1, 7)
	if !replaced || prev != 2.5 {
		t.Fatalf("overwrite: prev=%v replaced=%v", prev, replaced)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after overwrite = %d, want 2", g.NumEdges())
	}
	if w, _ := g.HasEdge(0, 1); w != 7 {
		t.Fatalf("weight after overwrite = %v, want 7", w)
	}
	// In-list mirrors the overwrite.
	if len(g.In(1)) != 1 || g.In(1)[0].W != 7 {
		t.Fatalf("in-list not mirrored: %+v", g.In(1))
	}
	w, ok := g.DeleteEdge(0, 1)
	if !ok || w != 7 {
		t.Fatalf("DeleteEdge = %v,%v", w, ok)
	}
	if _, ok := g.DeleteEdge(0, 1); ok {
		t.Fatal("double delete reported ok")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteVertex(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(1, 1, 1) // self loop
	g.AddEdge(3, 1, 1)
	removed := g.DeleteVertex(1)
	if len(removed) != 5 {
		t.Fatalf("removed %d edges, want 5: %+v", len(removed), removed)
	}
	if g.Alive(1) {
		t.Fatal("vertex 1 still alive")
	}
	if g.NumVertices() != 3 || g.NumEdges() != 0 {
		t.Fatalf("V=%d E=%d, want 3,0", g.NumVertices(), g.NumEdges())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := g.DeleteVertex(1); got != nil {
		t.Fatalf("double delete returned edges: %+v", got)
	}
	g.ReviveVertex(1)
	if !g.Alive(1) || g.NumVertices() != 4 {
		t.Fatal("revive failed")
	}
	g.AddEdge(1, 0, 1) // can use revived vertex again
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertex()
	if id != 2 {
		t.Fatalf("AddVertex id = %d, want 2", id)
	}
	g.AddEdge(2, 0, 1)
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Fatal("counts wrong after AddVertex")
	}
}

func TestAddEdgeDeadEndpointPanics(t *testing.T) {
	g := New(2)
	g.DeleteVertex(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 1, 1)
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	c := g.Clone()
	c.AddEdge(2, 0, 3)
	c.DeleteEdge(0, 1)
	if g.NumEdges() != 2 {
		t.Fatal("clone mutation leaked into original")
	}
	if _, ok := g.HasEdge(0, 1); !ok {
		t.Fatal("original lost edge after clone mutation")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesVerticesIteration(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 0, 4)
	g.DeleteVertex(1)
	var vs []VertexID
	g.Vertices(func(v VertexID) { vs = append(vs, v) })
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 2 {
		t.Fatalf("Vertices = %v", vs)
	}
	count := 0
	g.Edges(func(u, v VertexID, w float64) {
		count++
		if u != 2 || v != 0 || w != 4 {
			t.Fatalf("unexpected edge (%d,%d,%v)", u, v, w)
		}
	})
	if count != 1 {
		t.Fatalf("edge count = %d, want 1", count)
	}
}

// Property: a random interleaving of mutations always preserves internal
// consistency, and applying the exact inverse sequence restores the original
// edge set.
func TestRandomMutationConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		type op struct {
			kind int
			u, v VertexID
			w    float64
		}
		var undo []op
		for i := 0; i < 200; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				if g.Alive(u) && g.Alive(v) {
					if _, exists := g.HasEdge(u, v); !exists {
						g.AddEdge(u, v, float64(1+rng.Intn(9)))
						undo = append(undo, op{kind: 1, u: u, v: v})
					}
				}
			case 1:
				if w, ok := g.DeleteEdge(u, v); ok {
					undo = append(undo, op{kind: 0, u: u, v: v, w: w})
				}
			case 2:
				if g.Alive(u) && rng.Intn(10) == 0 {
					removed := g.DeleteVertex(u)
					for _, d := range removed {
						undo = append(undo, op{kind: 0, u: d.From, v: d.To, w: d.W})
					}
					// Replay is in reverse, so the revive must come last here
					// to run before the edge re-adds.
					undo = append(undo, op{kind: 2, u: u})
				}
			}
			if err := g.CheckConsistency(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		for i := len(undo) - 1; i >= 0; i-- {
			o := undo[i]
			switch o.kind {
			case 0:
				g.AddEdge(o.u, o.v, o.w)
			case 1:
				g.DeleteEdge(o.u, o.v)
			case 2:
				g.ReviveVertex(o.u)
			}
		}
		if g.NumEdges() != 0 || g.NumVertices() != n {
			t.Logf("seed %d: undo did not restore empty graph: V=%d E=%d", seed, g.NumVertices(), g.NumEdges())
			return false
		}
		return g.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOutWeightSum(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(0, 2, 2.5)
	if s := g.OutWeightSum(0); s != 4 {
		t.Fatalf("OutWeightSum = %v, want 4", s)
	}
	if s := g.OutWeightSum(1); s != 0 {
		t.Fatalf("OutWeightSum(1) = %v, want 0", s)
	}
}
