package engine

import (
	"math/rand"
	"testing"

	"layph/internal/algo"
	"layph/internal/graph"
)

func randomFrameGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for e := 0; e < n*5; e++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, 1+9*rng.Float64())
		}
	}
	return g
}

// TestFlatFrameMatchesRowFrame pins that the packed frame BuildFrame
// returns is an exact projection of the graph — every row holds the
// source's weighted out-edges in graph order — and that Run produces
// identical results on it and on a frame of separately allocated rows.
func TestFlatFrameMatchesRowFrame(t *testing.T) {
	g := randomFrameGraph(3, 80)
	g.DeleteVertex(7) // dead rows must stay empty
	a := algo.NewSSSP(0)

	flat := BuildFrame(g, a)
	rows := &Frame{Out: make([][]WEdge, g.Cap())}
	for u := 0; u < g.Cap(); u++ {
		for _, e := range g.Out(graph.VertexID(u)) {
			rows.Out[u] = append(rows.Out[u], WEdge{To: e.To, W: a.EdgeWeight(g, graph.VertexID(u), e)})
		}
	}
	if flat.N() != rows.N() || flat.NumEdges() != rows.NumEdges() || flat.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: N %d/%d E %d/%d/%d", flat.N(), rows.N(), flat.NumEdges(), rows.NumEdges(), g.NumEdges())
	}
	for v := range rows.Out {
		if len(flat.Out[v]) != len(rows.Out[v]) {
			t.Fatalf("row %d: %d edges, graph has %d", v, len(flat.Out[v]), len(rows.Out[v]))
		}
		for i := range rows.Out[v] {
			if flat.Out[v][i] != rows.Out[v][i] {
				t.Fatalf("row %d edge %d: %v, want %v", v, i, flat.Out[v][i], rows.Out[v][i])
			}
		}
	}

	x0, m0 := InitVectors(g, a)
	rf := Run(flat, a.Semiring(), x0, m0, Options{})
	rr := Run(rows, a.Semiring(), x0, m0, Options{})
	if !algo.StatesClose(rf.X, rr.X, 0) {
		t.Fatalf("flat vs row states differ: %v", algo.MaxStateDiff(rf.X, rr.X))
	}
	if rf.Activations != rr.Activations || rf.Rounds != rr.Rounds {
		t.Fatalf("flat run counters differ: %d/%d rounds %d/%d",
			rf.Activations, rr.Activations, rf.Rounds, rr.Rounds)
	}
}

// TestBuildFrameRowsAppendSafely pins that packed rows are capacity-clamped:
// appending to one row reallocates it and leaves its neighbour intact.
func TestBuildFrameRowsAppendSafely(t *testing.T) {
	g := randomFrameGraph(4, 40)
	f := BuildFrame(g, algo.NewPageRank(0.85, 1e-9))
	var v0 graph.VertexID
	for v := 0; v+1 < len(f.Out); v++ {
		if len(f.Out[v]) > 0 && len(f.Out[v+1]) > 0 {
			v0 = graph.VertexID(v)
			break
		}
	}
	next := append([]WEdge(nil), f.Out[v0+1]...)
	f.Out[v0] = append(f.Out[v0], WEdge{To: 0, W: 99})
	for i := range next {
		if f.Out[v0+1][i] != next[i] {
			t.Fatal("append to a packed row clobbered its neighbour")
		}
	}
}
