package delta

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"layph/internal/gen"
	"layph/internal/graph"
)

func TestApplyEdgeUpdates(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	b := Batch{
		{Kind: AddEdge, U: 1, V: 2, W: 3},
		{Kind: DelEdge, U: 0, V: 1},
		{Kind: DelEdge, U: 2, V: 3},       // missing: no-op
		{Kind: AddEdge, U: 1, V: 2, W: 3}, // identical re-add: no-op
	}
	a := Apply(g, b)
	if len(a.AddedEdges) != 1 || len(a.RemovedEdges) != 1 {
		t.Fatalf("applied = %+v", a)
	}
	if _, ok := g.HasEdge(0, 1); ok {
		t.Fatal("edge (0,1) survived deletion")
	}
	if w, ok := g.HasEdge(1, 2); !ok || w != 3 {
		t.Fatal("edge (1,2) missing")
	}
}

func TestApplyWeightChange(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	a := Apply(g, Batch{{Kind: AddEdge, U: 0, V: 1, W: 9}})
	if len(a.AddedEdges) != 1 || len(a.RemovedEdges) != 1 {
		t.Fatalf("weight change should record remove+add, got %+v", a)
	}
	if a.RemovedEdges[0].W != 1 || a.AddedEdges[0].W != 9 {
		t.Fatalf("weights: %+v", a)
	}
}

func TestApplyVertexUpdates(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	b := Batch{
		{Kind: AddVertex, U: 3},
		{Kind: AddEdge, U: 3, V: 0, W: 2},
		{Kind: DelVertex, U: 1},
	}
	a := Apply(g, b)
	if len(a.AddedVertices) != 1 || a.AddedVertices[0] != 3 {
		t.Fatalf("added vertices: %v", a.AddedVertices)
	}
	if len(a.RemovedVertices) != 1 || len(a.RemovedEdges) != 2 {
		t.Fatalf("removed: %+v", a)
	}
	if g.Alive(1) || !g.Alive(3) {
		t.Fatal("liveness wrong")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestApplySelfLoopAndDeadEndpointSkipped(t *testing.T) {
	g := graph.New(2)
	g.DeleteVertex(1)
	a := Apply(g, Batch{
		{Kind: AddEdge, U: 0, V: 0, W: 1},
		{Kind: AddEdge, U: 0, V: 1, W: 1},
		{Kind: DelVertex, U: 1},
		{Kind: AddVertex, U: 1},
	})
	if len(a.AddedEdges) != 0 {
		t.Fatalf("self loop / dead endpoint not skipped: %+v", a)
	}
	if len(a.AddedVertices) != 1 {
		t.Fatal("revive not recorded")
	}
	if !g.Alive(1) {
		t.Fatal("vertex 1 not revived")
	}
}

// Property: Apply followed by Undo restores the exact edge set, for random
// batches over random community graphs.
func TestApplyUndoRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 300, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.3,
			Weighted: true, Seed: seed,
		})
		orig := g.Clone()
		genr := NewGenerator(seed + 1)
		b := genr.EdgeBatch(g, 100, true)
		b = append(b, genr.VertexBatch(g, 5, 5, 3, true)...)
		a := Apply(g, b)
		Undo(g, a)
		if g.NumVertices() != orig.NumVertices() || g.NumEdges() != orig.NumEdges() {
			t.Logf("seed %d: size mismatch after undo V=%d/%d E=%d/%d",
				seed, g.NumVertices(), orig.NumVertices(), g.NumEdges(), orig.NumEdges())
			return false
		}
		ok := true
		orig.Edges(func(u, v graph.VertexID, w float64) {
			if got, has := g.HasEdge(u, v); !has || got != w {
				ok = false
			}
		})
		return ok && g.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeBatchShape(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{Vertices: 200, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.3, Seed: 9})
	b := NewGenerator(1).EdgeBatch(g, 100, false)
	adds, dels := 0, 0
	for _, u := range b {
		switch u.Kind {
		case AddEdge:
			adds++
			if u.U == u.V {
				t.Fatal("self loop generated")
			}
		case DelEdge:
			dels++
		default:
			t.Fatalf("unexpected kind %v", u.Kind)
		}
	}
	if adds != 50 || dels == 0 {
		t.Fatalf("adds=%d dels=%d", adds, dels)
	}
}

func TestVertexBatchShape(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{Vertices: 200, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.3, Seed: 9})
	b := NewGenerator(1).VertexBatch(g, 10, 10, 2, true)
	addsV, delsV, addsE := 0, 0, 0
	for _, u := range b {
		switch u.Kind {
		case AddVertex:
			addsV++
		case DelVertex:
			delsV++
		case AddEdge:
			addsE++
		}
	}
	if addsV != 10 || delsV != 10 || addsE != 20 {
		t.Fatalf("addsV=%d delsV=%d addsE=%d", addsV, delsV, addsE)
	}
	a := Apply(g, b)
	if len(a.AddedVertices) != 10 {
		t.Fatalf("applied added %d vertices", len(a.AddedVertices))
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateStrings(t *testing.T) {
	for _, u := range []Update{
		{Kind: AddEdge, U: 1, V: 2, W: 3},
		{Kind: DelEdge, U: 1, V: 2},
		{Kind: AddVertex, U: 7},
		{Kind: DelVertex, U: 7},
	} {
		if u.String() == "?" || u.Kind.String() == "" {
			t.Fatalf("bad string for %+v", u)
		}
	}
}

// TestApplyDeterministic applies one batch to 20 clones of a graph: the net
// summaries must be the same slices every time, edges by (From, To) and
// vertices ascending.
func TestApplyDeterministic(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{Vertices: 300, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.3, Weighted: true, Seed: 3})
	gn := NewGenerator(5)
	b := append(gn.EdgeBatch(g, 200, true), gn.VertexBatch(g, 15, 15, 2, true)...)
	var first *Applied
	for i := 0; i < 20; i++ {
		a := Apply(g.Clone(), b)
		if first == nil {
			first = a
			byEdge := func(x, y graph.DeletedEdge) int {
				return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
			}
			if !slices.IsSortedFunc(a.AddedEdges, byEdge) || !slices.IsSortedFunc(a.RemovedEdges, byEdge) ||
				!slices.IsSorted(a.AddedVertices) || !slices.IsSorted(a.RemovedVertices) {
				t.Fatal("net summaries are not sorted")
			}
			if len(a.AddedEdges) == 0 || len(a.RemovedEdges) == 0 || len(a.AddedVertices) == 0 || len(a.RemovedVertices) == 0 {
				t.Fatalf("batch left a summary empty: %d/%d/%d/%d", len(a.AddedEdges), len(a.RemovedEdges), len(a.AddedVertices), len(a.RemovedVertices))
			}
			continue
		}
		if !slices.Equal(a.AddedEdges, first.AddedEdges) || !slices.Equal(a.RemovedEdges, first.RemovedEdges) ||
			!slices.Equal(a.AddedVertices, first.AddedVertices) || !slices.Equal(a.RemovedVertices, first.RemovedVertices) {
			t.Fatalf("clone %d: net summaries differ from clone 0", i)
		}
	}
}
