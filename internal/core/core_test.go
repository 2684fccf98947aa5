package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

func factory(g *graph.Graph, a algo.Algorithm) inc.System {
	return New(g, a, Options{Workers: 2})
}

func factoryNoReplication(g *graph.Graph, a algo.Algorithm) inc.System {
	return New(g, a, Options{Workers: 2, DisableReplication: true})
}

func testGraph(seed int64) *graph.Graph {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 500, MeanCommunity: 30, IntraDegree: 7, InterDegree: 0.3,
		HubFraction: 0.01, HubDegree: 12, Weighted: true, Seed: seed,
	})
	return g
}

func TestBuildInvariants(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		g := testGraph(seed)
		l := New(g, algo.NewSSSP(0), Options{})
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if l.OfflineStats.DenseSubgraphs == 0 {
			t.Fatalf("seed %d: no dense subgraphs on a community graph", seed)
		}
		upV, upE := l.UpperLayerSize()
		if upV >= g.NumVertices() {
			t.Fatalf("seed %d: skeleton (%d) not smaller than graph (%d)", seed, upV, g.NumVertices())
		}
		if upE == 0 {
			t.Fatalf("seed %d: empty skeleton", seed)
		}
	}
}

// TestDefaultCommunityCap pins the K that New picks when
// Options.Community.MaxSize is 0: ~0.1% of |V|, floored at 64.
func TestDefaultCommunityCap(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{20000, 64}, {150000, 150}} {
		l := New(graph.New(tc.n), algo.NewSSSP(0), Options{Workers: 1})
		if got := l.opt.Community.MaxSize; got != tc.k {
			t.Errorf("|V| = %d: K = %d, want %d", tc.n, got, tc.k)
		}
	}
}

// The flat layered graph (proxy rewiring, no shortcuts) must be message-
// equivalent to the original graph: batch runs agree on original vertices.
func TestFlatGraphEquivalence(t *testing.T) {
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			g := testGraph(7)
			a := mk()
			l := New(g, a, Options{})
			want := engine.RunBatch(g, mk(), engine.Options{})
			for v := 0; v < g.Cap(); v++ {
				got, exp := l.States()[v], want.X[v]
				if math.IsInf(got, 1) != math.IsInf(exp, 1) || (!math.IsInf(got, 1) && math.Abs(got-exp) > 1e-6) {
					t.Fatalf("vertex %d: layered %v vs original %v", v, got, exp)
				}
			}
		})
	}
}

// Shortcut weights must equal an independent local fixpoint over the
// subgraph's internal edges (Definition 3 / Equation 6): aggregated internal
// paths from the entry whose intermediate vertices are not entries (entry
// composition happens on Lup, so through-entry paths must not be double
// counted). Every slot of every entry vector is checked, the entry's own
// slot included: under the sum semiring it is the self-shortcut, which the
// entry's skeleton row must carry.
func TestShortcutWeightsMatchLocalFixpoint(t *testing.T) {
	for name, a := range map[string]algo.Algorithm{
		"sssp":     algo.NewSSSP(0),
		"pagerank": algo.NewPageRank(0.85, 1e-6),
	} {
		t.Run(name, func(t *testing.T) {
			l := New(testGraph(3), a, Options{})
			// A sum deduction converges to scTol, so sum weights carry a
			// bounded truncation error; min weights are exact.
			tol := 1e-9
			if !l.sr.Idempotent() {
				tol = 1e-6
			}
			checked, selves := 0, 0
			for _, s := range subgraphList(l.subs) {
				for _, u := range s.Entries {
					cu := l.localIdx[u]
					want := localFixpoint(l.sr, s.Local, l.role, cu)
					for c, w := range s.scVec[cu] {
						if w != want[c] && !(math.Abs(w-want[c]) <= tol) {
							t.Fatalf("sub %d entry %d: shortcut to %d weight %v, want %v", s.ID, u, s.Local.ids[c], w, want[c])
						}
						checked++
					}
					if self := s.scVec[cu][cu]; !l.sr.Idempotent() && self != 0 {
						if !slices.Contains(l.upOut[u], engine.WEdge{To: u, W: self}) {
							t.Fatalf("sub %d entry %d: skeleton row lacks the self-shortcut %v", s.ID, u, self)
						}
						selves++
					}
				}
			}
			if checked == 0 || (!l.sr.Idempotent() && selves == 0) {
				t.Fatalf("%d slots and %d self-shortcuts checked", checked, selves)
			}
		})
	}
}

// localFixpoint recomputes entry cu's shortcut vector by Jacobi iteration
// over the frame with the rows of entries (by role) skipped, seeding from
// cu's own out-edges.
func localFixpoint(sr algo.Semiring, lf *localFrame, role []Role, cu int32) []float64 {
	x := make([]float64, lf.size())
	for c := range x {
		x[c] = sr.Zero()
	}
	for iter := 0; iter < 10000; iter++ {
		next := make([]float64, len(x))
		for c := range next {
			next[c] = sr.Zero()
		}
		for _, e := range lf.out[cu] {
			next[e.To] = sr.Plus(next[e.To], sr.Times(sr.One(), e.W))
		}
		for c, row := range lf.out {
			if x[c] == sr.Zero() || role[lf.ids[c]].IsEntry() {
				continue
			}
			for _, e := range row {
				next[e.To] = sr.Plus(next[e.To], sr.Times(x[c], e.W))
			}
		}
		done := true
		for c := range x {
			done = done && (next[c] == x[c] || math.Abs(next[c]-x[c]) < 1e-15)
		}
		x = next
		if done {
			break
		}
	}
	return x
}

func TestEquivalenceAllAlgorithms(t *testing.T) {
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "layph/" + name, New: factory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceWithVertexUpdates(t *testing.T) {
	cfg := enginetest.EquivalenceConfig()
	cfg.AddVertices, cfg.DelVertices = 3, 3
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "layph/" + name, New: factory}}, mk, cfg)
		})
	}
}

func TestEquivalenceWithoutReplication(t *testing.T) {
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "layph-norepl/" + name, New: factoryNoReplication}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestInvariantsAcrossUpdates(t *testing.T) {
	g := testGraph(21)
	l := New(g, algo.NewPageRank(0.85, 1e-10), Options{})
	genr := delta.NewGenerator(4)
	for i := 0; i < 6; i++ {
		batch := genr.EdgeBatch(g, 80, true)
		batch = append(batch, genr.VertexBatch(g, 3, 3, 2, true)...)
		applied := delta.Apply(g, batch)
		l.Update(applied)
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("after batch %d: %v", i, err)
		}
	}
}

func TestPaperFigure2Example(t *testing.T) {
	// The paper's running example (Figures 2, Examples 3-6): SSSP from v0,
	// delete (v3,v4,1), add (v3,v2,2); final distances {0,1,3,1,4,7,8,9,9}.
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
	l := New(g, algo.NewSSSP(0), Options{Community: community.Config{MaxSize: 4}})
	applied := delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 3, V: 4},
		{Kind: delta.AddEdge, U: 3, V: 2, W: 2},
	})
	st := l.Update(applied)
	// The deleted edge sits on the dependency tree, so the update must
	// exercise the ⊥-cancellation path, and the result must match a restart.
	if st.Resets == 0 {
		t.Fatal("expected dependency resets")
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	for v := 0; v < g.Cap(); v++ {
		if math.Abs(l.States()[v]-want.X[v]) > 1e-9 &&
			!(math.IsInf(l.States()[v], 1) && math.IsInf(want.X[v], 1)) {
			t.Fatalf("x%d = %v, want %v (all: %v)", v, l.States()[v], want.X[v], l.States()[:9])
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhasesRecorded(t *testing.T) {
	g := testGraph(31)
	l := New(g, algo.NewSSSP(0), Options{})
	applied := delta.Apply(g, delta.NewGenerator(1).EdgeBatch(g, 50, true))
	l.Update(applied)
	ph := l.LastPhases
	for _, name := range []string{"layered-update", "upload", "lup-iteration", "assignment"} {
		if !strings.Contains(" "+ph.String(), " "+name+"=") {
			t.Fatalf("phase %q not recorded (got %v)", name, ph)
		}
	}
}

func TestReplicationShrinksSkeleton(t *testing.T) {
	// A graph with strong hubs: replication must reduce the skeleton size.
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 800, MeanCommunity: 40, IntraDegree: 8, InterDegree: 0.2,
		HubFraction: 0.03, HubDegree: 40, Weighted: true, Seed: 12,
	})
	with := New(g, algo.NewSSSP(0), Options{})
	without := New(g, algo.NewSSSP(0), Options{DisableReplication: true})
	wv, _ := with.UpperLayerSize()
	nv, _ := without.UpperLayerSize()
	if with.OfflineStats.Proxies == 0 {
		t.Skip("no proxies created on this graph")
	}
	if wv >= nv {
		t.Fatalf("replication did not shrink skeleton: %d (with) vs %d (without)", wv, nv)
	}
}

func TestOfflineStatsPopulated(t *testing.T) {
	g := testGraph(41)
	l := New(g, algo.NewPageRank(0.85, 1e-8), Options{})
	os := l.OfflineStats
	if os.BuildSeconds <= 0 || os.InitialSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", os)
	}
	if os.ShortcutCount == 0 || os.ShortcutActivations == 0 {
		t.Fatalf("shortcut stats not recorded: %+v", os)
	}
	if l.ShortcutCount() != os.ShortcutCount {
		t.Fatalf("live shortcut count %d != offline %d", l.ShortcutCount(), os.ShortcutCount)
	}
}

func TestName(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	l := New(g, algo.NewBFS(0), Options{})
	if l.Name() != "layph" || l.Graph() != g || l.Subgraphs() == nil {
		t.Fatal("accessors")
	}
}
