package inc

import (
	"math"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

func buildDiamond() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 1)
	return g
}

func TestRefreshTouchesSources(t *testing.T) {
	g := graph.New(8)
	k := NewKernel(g, algo.NewSSSP(0), engine.Options{})
	k.Touch(5)
	k.Update(&delta.Applied{
		AddedEdges:      []graph.DeletedEdge{{From: 1, To: 2}},
		RemovedEdges:    []graph.DeletedEdge{{From: 3, To: 4}, {From: 1, To: 6}},
		RemovedVertices: []graph.VertexID{7},
	})
	want := []graph.VertexID{1, 3, 7, 5}
	if len(k.touched.List) != len(want) {
		t.Fatalf("touched %v, want %v", k.touched.List, want)
	}
	for i, v := range want {
		if k.touched.List[i] != v {
			t.Fatalf("touched %v, want %v (edge targets are not sources)", k.touched.List, want)
		}
	}
	if len(k.touch) != 0 {
		t.Fatal("queued touches survive the update")
	}
}

func TestGrowVectors(t *testing.T) {
	x := GrowVectors([]float64{1}, 3, 9)
	if len(x) != 3 || x[1] != 9 || x[2] != 9 || x[0] != 1 {
		t.Fatalf("grow: %v", x)
	}
	if x = GrowVectors(x, 2, 7); len(x) != 3 {
		t.Fatalf("a shorter target shrank the vector: %v", x)
	}
	p := GrowParents(nil, 2)
	if len(p) != 2 || p[0] != engine.NoParent {
		t.Fatalf("parents: %v", p)
	}
}

func TestRefreshFrame(t *testing.T) {
	g := buildDiamond()
	k := NewKernel(g, algo.NewSSSP(0), engine.Options{})
	k.Update(delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 1, V: 3},
		{Kind: delta.AddEdge, U: 1, V: 4, W: 7},
	}))
	if r := k.frame.Out[1]; len(r) != 1 || r[0].To != 4 || r[0].W != 7 {
		t.Fatalf("new row: %v", r)
	}
	// A dead vertex loses its row.
	k.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelVertex, U: 2}}))
	if len(k.frame.Out[2]) != 0 {
		t.Fatal("dead vertex keeps frame edges")
	}
	// The sum scheme keeps the previous row to cancel it.
	s := NewKernel(g, algo.NewPageRank(0.85, 1e-9), engine.Options{})
	s.Update(delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: 3, W: 1}}))
	if len(s.oldRows) != 1 || len(s.oldRows[0]) != 1 || s.oldRows[0][0].To != 1 {
		t.Fatalf("old rows: %v", s.oldRows)
	}
	if len(s.frame.Out[0]) != 2 {
		t.Fatalf("new row: %v", s.frame.Out[0])
	}
}

func TestSumDeduction(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	a := algo.NewPageRank(0.85, 1e-9)
	k := NewKernel(g, a, engine.Options{})
	x0, x1, x2 := k.States()[0], k.States()[1], k.States()[2]
	// Delete (0,2): out-degree 2 -> 1, so the weight of (0,1) changes too.
	st := k.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 2}}))
	if st.Activations == 0 {
		t.Fatal("no activations counted")
	}
	// Vertex 2 loses x0*0.425; vertex 1 gains x0*(0.85-0.425). Neither
	// has out-edges, so the revision messages are the whole change.
	x := k.States()
	if want := x2 - x0*0.425; math.Abs(x[2]-want) > 1e-12 {
		t.Fatalf("x[2] = %v, want %v", x[2], want)
	}
	if want := x1 + x0*0.425; math.Abs(x[1]-want) > 1e-12 {
		t.Fatalf("x[1] = %v, want %v", x[1], want)
	}
}

func TestDeduceMinTagsSubtree(t *testing.T) {
	g := buildDiamond()
	k := NewKernel(g, algo.NewSSSP(0), engine.Options{})
	// Delete the dependency edge (1,3): 3 and its child 4 must reset.
	st := k.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 1, V: 3}}))
	if st.Resets != 2 || len(k.trim.Tagged.List) != 2 {
		t.Fatalf("resets: %d %v", st.Resets, k.trim.Tagged.List)
	}
	// Offer for 3 via the surviving path through 2 (cost 6), recorded with
	// its source as 3's parent.
	if k.States()[3] != 6 || k.Parents()[3] != 2 {
		t.Fatalf("offer for 3: %v from %v", k.States()[3], k.Parents()[3])
	}
	if st.Activations == 0 {
		t.Fatal("offer scans not counted")
	}
	if x := k.States(); x[3] != 6 || x[4] != 7 {
		t.Fatalf("states: %v", x)
	}
}

func TestDeduceMinAddedEdgeCandidate(t *testing.T) {
	g := buildDiamond()
	k := NewKernel(g, algo.NewSSSP(0), engine.Options{})
	st := k.Update(delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: 4, W: 1}}))
	if k.States()[4] != 1 {
		t.Fatalf("candidate for 4: %v", k.States()[4])
	}
	// Only 4 was seeded, and it has no out-edges: one round, one change.
	if c := k.Changed(); len(c) != 1 || c[0] != 4 || st.Rounds != 1 {
		t.Fatalf("changed %v in %d rounds", c, st.Rounds)
	}
	if k.Parents()[4] != 0 {
		t.Fatalf("parent of 4 = %v, want 0", k.Parents()[4])
	}
}

func TestDeduceMinAddedVertex(t *testing.T) {
	g := buildDiamond()
	k := NewKernel(g, algo.NewSSSP(0), engine.Options{})
	id := g.AddVertex()
	st := k.Update(&delta.Applied{AddedVertices: []graph.VertexID{id}})
	if !math.IsInf(k.States()[id], 1) {
		t.Fatalf("new vertex state: %v", k.States()[id])
	}
	if st.Rounds != 0 {
		t.Fatal("isolated non-source vertex should not activate")
	}
}

// TestParentsFromFixpoint pins that min-scheme parents are the sources that
// set each value. On a zero-weight cycle every member's value matches every
// other member's offer, so a parent re-derived by matching values can point
// into the cycle and survive the loss of the cycle's only support.
func TestParentsFromFixpoint(t *testing.T) {
	// CC labels: 0 reaches the cycle 2<->3 through 1; 4 hangs off 3.
	g := graph.New(5)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}} {
		g.AddEdge(e[0], e[1], 1)
	}
	k := NewKernel(g, algo.NewCC(), engine.Options{})
	if p := k.Parents(); p[2] != 1 || p[3] != 2 || p[4] != 3 {
		t.Fatalf("initial parents: %v", p)
	}
	// Re-route the cycle's support: 0 -> 3 directly, and drop 1 -> 2. Value
	// matching would now make 2 and 3 each other's parent.
	k.Update(delta.Apply(g, delta.Batch{
		{Kind: delta.AddEdge, U: 0, V: 3, W: 1},
		{Kind: delta.DelEdge, U: 1, V: 2},
	}))
	if p := k.Parents(); p[3] != 0 || p[2] != 3 {
		t.Fatalf("parents after re-route: %v", p)
	}
	// Removing the new support must relabel the whole cycle.
	k.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: 3}}))
	want := engine.RunBatch(g, algo.NewCC(), engine.Options{})
	if !algo.StatesClose(k.States(), want.X, 0) {
		t.Fatalf("states %v, want %v", k.States(), want.X)
	}
}
