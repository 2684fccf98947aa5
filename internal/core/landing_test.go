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
