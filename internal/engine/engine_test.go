package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"layph/internal/algo"
	"layph/internal/gen"
	"layph/internal/graph"
)

// dijkstra is an independent reference implementation for SSSP correctness.
func dijkstra(g *graph.Graph, src graph.VertexID) []float64 {
	dist := make([]float64, g.Cap())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if !g.Alive(src) {
		return dist
	}
	dist[src] = 0
	visited := make([]bool, g.Cap())
	for {
		best := graph.VertexID(0)
		bestD := math.Inf(1)
		found := false
		for v := 0; v < g.Cap(); v++ {
			if !visited[v] && dist[v] < bestD {
				best, bestD, found = graph.VertexID(v), dist[v], true
			}
		}
		if !found {
			return dist
		}
		visited[best] = true
		for _, e := range g.Out(best) {
			if d := bestD + e.W; d < dist[e.To] {
				dist[e.To] = d
			}
		}
	}
}

// powerIteration is an independent reference implementation for PageRank.
func powerIteration(g *graph.Graph, d float64, iters int) []float64 {
	n := g.Cap()
	pr := make([]float64, n)
	g.Vertices(func(v graph.VertexID) { pr[v] = 1 - d })
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		g.Vertices(func(v graph.VertexID) { next[v] = 1 - d })
		g.Edges(func(u, v graph.VertexID, w float64) {
			next[v] += d * pr[u] / float64(g.OutDegree(u))
		})
		pr = next
	}
	return pr
}

func TestSSSPAgainstDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 200, MeanCommunity: 25, IntraDegree: 5, InterDegree: 0.4, Weighted: true, Seed: seed,
		})
		src := graph.VertexID(int(uint64(seed)) % g.Cap())
		res := RunBatch(g, algo.NewSSSP(src), Options{})
		want := dijkstra(g, src)
		if !algo.StatesClose(res.X, want, 1e-9) {
			t.Logf("seed %d src %d: max diff %v", seed, src, algo.MaxStateDiff(res.X, want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSHopCounts(t *testing.T) {
	g := graph.New(6)
	// 0 -> 1 -> 2 -> 3, 0 -> 4 (heavy weight must be ignored), 5 unreachable
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 10)
	g.AddEdge(0, 4, 100)
	res := RunBatch(g, algo.NewBFS(0), Options{})
	want := []float64{0, 1, 2, 3, 1, math.Inf(1)}
	if !algo.StatesClose(res.X, want, 0) {
		t.Fatalf("bfs = %v, want %v", res.X, want)
	}
}

func TestPageRankAgainstPowerIteration(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 300, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4, Seed: 11,
	})
	res := RunBatch(g, algo.NewPageRank(0.85, 1e-9), Options{})
	want := powerIteration(g, 0.85, 200)
	if !algo.StatesClose(res.X, want, 1e-5) {
		t.Fatalf("pagerank mismatch: max diff %v", algo.MaxStateDiff(res.X, want))
	}
}

func TestPHPBasics(t *testing.T) {
	// Chain 0 -> 1 -> 2 with weights; PHP from 0 decays by d*w/W at each hop.
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	res := RunBatch(g, algo.NewPHP(0, 0.8, 1e-12), Options{})
	// x0 = 1 (root message), x1 = 0.8, x2 = 0.64.
	want := []float64{1, 0.8, 0.64}
	if !algo.StatesClose(res.X, want, 1e-9) {
		t.Fatalf("php = %v, want %v", res.X, want)
	}
}

func TestPHPCycleConverges(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	res := RunBatch(g, algo.NewPHP(0, 0.5, 1e-10), Options{})
	// Geometric: x0 = 1/(1-0.25), x1 = 0.5/(1-0.25).
	want := []float64{1 / 0.75, 0.5 / 0.75}
	if !algo.StatesClose(res.X, want, 1e-6) {
		t.Fatalf("php cycle = %v, want %v", res.X, want)
	}
}

func TestParentTracking(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	res := RunBatch(g, algo.NewSSSP(0), Options{TrackParents: true})
	if res.Parent == nil {
		t.Fatal("no parents tracked")
	}
	if res.Parent[0] != NoParent {
		t.Fatalf("source parent = %v", res.Parent[0])
	}
	if res.Parent[1] != 0 {
		t.Fatalf("parent[1] = %v, want 0", res.Parent[1])
	}
	if res.Parent[2] != 1 {
		t.Fatalf("parent[2] = %v, want 1 (via shorter path)", res.Parent[2])
	}
	if res.Parent[3] != 2 {
		t.Fatalf("parent[3] = %v, want 2", res.Parent[3])
	}
}

func TestActivationsCounted(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	res := RunBatch(g, algo.NewSSSP(0), Options{})
	// Source relaxes (0,1); vertex 1 relaxes (1,2). Exactly 2 activations.
	if res.Activations != 2 {
		t.Fatalf("activations = %d, want 2", res.Activations)
	}
}

// TestWorkerCountInvariance pins that a run does not depend on the
// processors available: the engine starts no goroutine, so SSSP states and
// parents and PageRank states are bit-identical at GOMAXPROCS 1, 2 and 4.
func TestWorkerCountInvariance(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 400, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4, Weighted: true, Seed: 21,
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base []*Result
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := []*Result{
			RunBatch(g, algo.NewSSSP(0), Options{TrackParents: true}),
			RunBatch(g, algo.NewPageRank(0.85, 1e-10), Options{}),
		}
		if base == nil {
			base = got
			continue
		}
		for i, r := range got {
			if !sameBits(r.X, base[i].X) || !slices.Equal(r.Parent, base[i].Parent) {
				t.Fatalf("run %d at GOMAXPROCS %d diverges: %v", i, procs, algo.MaxStateDiff(r.X, base[i].X))
			}
		}
	}
}

func TestInitialActiveOverride(t *testing.T) {
	// Force-activating a vertex with no pending message re-propagates its
	// state (reset-frontier re-seeding).
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	f := BuildFrame(g, algo.NewSSSP(0))
	x := []float64{0, math.Inf(1), math.Inf(1)}
	r := NewRunner(algo.Tropical{})
	r.Activate(0)
	r.Run(f, x, nil, Options{})
	want := []float64{0, 1, 2}
	if !algo.StatesClose(x, want, 0) {
		t.Fatalf("states = %v, want %v", x, want)
	}
}

func TestRunOnDeadVertexGraph(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.DeleteVertex(2)
	res := RunBatch(g, algo.NewSSSP(0), Options{})
	if !math.IsInf(res.X[2], 1) || !math.IsInf(res.X[3], 1) {
		t.Fatalf("dead/unreachable states: %v", res.X)
	}
	if res.X[1] != 1 {
		t.Fatalf("x1 = %v", res.X[1])
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0)
	res := RunBatch(g, algo.NewPageRank(0.85, 1e-6), Options{})
	if len(res.X) != 0 || res.Rounds != 0 {
		t.Fatalf("empty graph result: %+v", res)
	}
}

func TestMismatchedVectorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(&Frame{Out: make([][]WEdge, 3)}, algo.Tropical{}, []float64{0}, []float64{0}, Options{})
}

func TestMaxRoundsBounds(t *testing.T) {
	// Two-cycle with damping 1 never converges; the round cap must stop it.
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	res := RunBatch(g, algo.NewPHP(0, 1.0, 0), Options{maxRounds: 50})
	if res.Rounds != 50 {
		t.Fatalf("rounds = %d, want 50", res.Rounds)
	}
}

func TestFrameNumEdges(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	f := BuildFrame(g, algo.NewBFS(0))
	if f.N() != 3 || f.NumEdges() != 2 {
		t.Fatalf("frame N=%d E=%d", f.N(), f.NumEdges())
	}
}

func TestRandomGraphsSSSPvsDijkstraLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(100)
		g := graph.New(n)
		for e := 0; e < n*4; e++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v, 1+9*rng.Float64())
			}
		}
		src := graph.VertexID(rng.Intn(n))
		res := RunBatch(g, algo.NewSSSP(src), Options{})
		if !algo.StatesClose(res.X, dijkstra(g, src), 1e-9) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}
