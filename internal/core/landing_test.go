package core

import (
	"fmt"
	"slices"
	"testing"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

// commMembers returns the live members of every community id of p,
// ascending, keyed by id.
func commMembers(g *graph.Graph, p *community.Partition) map[int32][]graph.VertexID {
	out := make(map[int32][]graph.VertexID)
	g.Vertices(func(v graph.VertexID) {
		if int(v) < len(p.Comm) && p.Comm[v] >= 0 {
			out[p.Comm[v]] = append(out[p.Comm[v]], v)
		}
	})
	return out
}

// TestRedetectLanding drives an engine through drift, re-detects on a clone,
// keeps updating (adding and removing vertices) and then lands the fresh
// partition. The landing must leave a consistent layering with states equal
// to a restart, a dense id space, and rebuild exactly the communities whose
// members changed: every other subgraph keeps its id and its *Subgraph.
func TestRedetectLanding(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() algo.Algorithm
		atol float64
	}{
		{"SSSP", func() algo.Algorithm { return algo.NewSSSP(0) }, 1e-6},
		{"PageRank", func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) }, 1e-4},
	} {
		t.Run(tc.name+"/frozen", func(t *testing.T) {
			g, _ := gen.CommunityGraph(gen.CommunityConfig{
				Vertices: 600, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4,
				Weighted: true, Seed: 13,
			})
			l := New(g, tc.mk(), Options{Workers: 2})
			genr := delta.NewGenerator(29)
			drift := func(n int, vertices bool) {
				for i := 0; i < n; i++ {
					b := genr.MigrationBatch(g, 15, 4, true)
					b = append(b, genr.EdgeBatch(g, 30, true)...)
					if vertices {
						b = append(b, genr.VertexBatch(g, 3, 3, 3, true)...)
						b = slices.DeleteFunc(b, func(u delta.Update) bool {
							return u.Kind == delta.DelVertex && u.U == 0
						})
					}
					l.Update(delta.Apply(g, b))
				}
			}
			drift(6, false)
			land := l.Redetect(g.Clone())
			drift(3, true)

			before := commMembers(g, l.part)
			subsBefore := make(map[int32]*Subgraph, len(l.subs))
			for c, s := range l.subs {
				subsBefore[c] = s
			}
			builds := l.builds
			st := land()

			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("invariants after landing: %v", err)
			}
			want := engine.RunBatch(g, tc.mk(), engine.Options{}).X
			g.Vertices(func(v graph.VertexID) {
				if !algo.StatesClose(l.States()[v:v+1], want[v:v+1], tc.atol) {
					t.Fatalf("vertex %d: landed %v, restart %v", v, l.States()[v], want[v])
				}
			})
			for v, c := range l.part.Comm {
				if c >= 0 && !g.Alive(graph.VertexID(v)) {
					t.Fatalf("dead vertex %d landed in community %d", v, c)
				}
			}
			if live := l.part.LiveComms(); l.part.NumComms != live {
				t.Fatalf("NumComms %d after landing, %d live communities", l.part.NumComms, live)
			}
			if st.MembershipMoves == 0 {
				t.Fatal("landing after drift moved no vertex")
			}

			after := commMembers(g, l.part)
			// A community the re-detection found again keeps its id.
			ids := make(map[string]int32, len(after))
			for c, ms := range after {
				ids[fmt.Sprint(ms)] = c
			}
			for c, ms := range before {
				if id, ok := ids[fmt.Sprint(ms)]; ok && int(c) < l.part.NumComms && id != c {
					t.Errorf("community %d found again but renumbered to %d", c, id)
				}
			}
			changed, kept := 0, 0
			for c, s := range l.subs {
				if !slices.Equal(before[c], after[c]) {
					changed++
					continue
				}
				kept++
				if subsBefore[c] != s {
					t.Errorf("community %d: members unchanged but its subgraph was replaced", c)
				}
			}
			for c, s := range subsBefore {
				if slices.Equal(before[c], after[c]) && l.subs[c] != s {
					t.Errorf("community %d: members unchanged but its subgraph is gone", c)
				}
			}
			if got := l.builds - builds; got != int64(changed) {
				t.Fatalf("landing built %d subgraphs, want the %d changed communities that hold one", got, changed)
			}
			t.Logf("%d moves, %d subgraphs rebuilt, %d kept", st.MembershipMoves, changed, kept)
			if kept == 0 || changed == 0 {
				t.Fatalf("degenerate landing: %d kept and %d changed subgraphs", kept, changed)
			}

			// The engine keeps updating correctly on the landed layering.
			drift(2, true)
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("invariants after post-landing updates: %v", err)
			}
			want = engine.RunBatch(g, tc.mk(), engine.Options{}).X
			g.Vertices(func(v graph.VertexID) {
				if !algo.StatesClose(l.States()[v:v+1], want[v:v+1], tc.atol) {
					t.Fatalf("after landing, vertex %d: %v, restart %v", v, l.States()[v], want[v])
				}
			})
		})
	}
}

// TestPartitionFrozenBetweenLandings pins the drift policy: without a
// landing (Redetect) no membership ever moves, whatever the churn.
func TestPartitionFrozenBetweenLandings(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 400, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 4,
	})
	l := New(g, algo.NewSSSP(0), Options{Workers: 2})
	before := append([]int32(nil), l.part.Comm...)
	genr := delta.NewGenerator(5)
	for i := 0; i < 5; i++ {
		batch := genr.MigrationBatch(g, 12, 4, true)
		st := l.Update(delta.Apply(g, batch))
		if st.MembershipMoves != 0 {
			t.Fatalf("batch %d: frozen engine reported %d membership moves", i, st.MembershipMoves)
		}
	}
	for v, c := range before {
		if l.part.Comm[v] != c {
			t.Fatalf("vertex %d: community changed %d -> %d without a landing", v, c, l.part.Comm[v])
		}
	}
}

// landOn lands a re-detection that found exactly the communities comm
// names (one id per vertex), as Redetect's landing does.
func landOn(l *Layph, comm []int32) inc.Stats {
	n := int32(0)
	for _, c := range comm {
		n = max(n, c+1)
	}
	return l.update(&delta.Applied{}, &community.Partition{Comm: slices.Clone(comm), NumComms: int(n)})
}

// A vertex leaves its subgraph for a community that has none, and an
// in-neighbour outside both had routed its edge to it through its own entry
// proxy in that subgraph. In twoBlockGraph, source 24 has four edges into
// block A, so it is replicated there; 25 is a community of its own. Moving
// 5 to 25's community must re-route 24's edge to 5 from the proxy to 24's
// own row, and leave the layering consistent and the states equal to a
// restart.
func TestLandingReroutesInNeighbourProxyEdge(t *testing.T) {
	g := twoBlockGraph()
	const w, v, c = graph.VertexID(24), graph.VertexID(5), graph.VertexID(25)
	g.AddVertex()
	g.AddVertex()
	for _, u := range []graph.VertexID{1, 2, 3, v} {
		g.AddEdge(w, u, 2)
	}
	g.AddEdge(23, c, 1)
	l := New(g, algo.NewSSSP(w), Options{Community: commCfg(12), Workers: 2})
	comm := make([]int32, g.Cap())
	for u := range comm {
		comm[u] = int32(u / 12) // blocks A and B
	}
	comm[w], comm[c] = 2, 3
	landOn(l, comm)
	s := l.subOf[v]
	if s == NoSubgraph || l.subOf[w] != NoSubgraph || l.subOf[c] != NoSubgraph {
		t.Fatalf("subgraphs of %d, %d and %d are %d, %d and %d: want only %d's", v, w, c, s, l.subOf[w], l.subOf[c], v)
	}
	p, ok := l.proxyOf(true, s, w)
	if !ok || !slices.ContainsFunc(l.flatOut[p], func(e engine.WEdge) bool { return e.To == v }) {
		t.Fatalf("%d's edge to %d does not run through an entry proxy", w, v)
	}

	comm = slices.Clone(l.part.Comm)
	comm[v] = comm[c]
	if st := landOn(l, comm); st.MembershipMoves != 1 {
		t.Fatalf("landing moved %d vertices, want 1", st.MembershipMoves)
	}
	if l.subOf[v] != NoSubgraph {
		t.Fatalf("%d is in subgraph %d after leaving for a community without one", v, l.subOf[v])
	}
	if !slices.ContainsFunc(l.flatOut[w], func(e engine.WEdge) bool { return e.To == v }) {
		t.Fatalf("%d's edge to %d was not re-routed to its own row", w, v)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(w), engine.Options{}).X
	if !algo.StatesClose(l.States()[:g.Cap()], want, 1e-9) {
		t.Fatal("states diverge from restart after the landing")
	}
}

// A vertex joins a subgraph that collects edges into a vertex of another
// subgraph in an exit proxy, while it is itself replicated into that other
// subgraph as an entry proxy. In twoBlockGraph plus 9→12 and 10→12, block A
// replicates 12 on its exit side; 24, a community of its own, has three
// edges into block B and so an entry proxy there. Once 24 joins A, its edge
// to 12 runs through A's exit proxy, so its entry proxy's row must drop it:
// the landing must refresh the rows of a moved vertex's entry proxies.
func TestLandingRefreshesMovedHostsEntryProxies(t *testing.T) {
	g := twoBlockGraph()
	const v = graph.VertexID(24)
	g.AddVertex()
	for _, u := range []graph.VertexID{12, 13, 14, 0} {
		g.AddEdge(v, u, 2)
	}
	g.AddEdge(9, 12, 1)
	g.AddEdge(10, 12, 1)
	g.AddEdge(1, v, 1)
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12), Workers: 2})
	comm := make([]int32, g.Cap())
	for u := range comm {
		comm[u] = int32(u / 12) // blocks A and B, and 24 alone
	}
	landOn(l, comm)
	a, b := l.subOf[0], l.subOf[12]
	_, entry := l.proxyOf(true, b, v)
	_, exit := l.proxyOf(false, a, 12)
	if a == NoSubgraph || b == NoSubgraph || l.subOf[v] != NoSubgraph || !entry || !exit {
		t.Fatalf("subgraphs %d, %d and %d, entry proxy of %d in B %v, exit proxy of 12 in A %v",
			a, b, l.subOf[v], v, entry, exit)
	}

	comm = slices.Clone(l.part.Comm)
	comm[v] = comm[0]
	if st := landOn(l, comm); st.MembershipMoves != 1 || l.subOf[v] != a {
		t.Fatalf("landing moved %d vertices and left %d in subgraph %d, want 1 and %d", st.MembershipMoves, v, l.subOf[v], a)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{}).X
	if !algo.StatesClose(l.States()[:g.Cap()], want, 1e-9) {
		t.Fatal("states diverge from restart after the landing")
	}
}
