package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
)

// twoBlockGraph builds two dense 12-cliques joined by one bridge — small
// enough to reason about individual structural transitions.
func twoBlockGraph() *graph.Graph {
	g := graph.New(24)
	for b := 0; b < 2; b++ {
		base := graph.VertexID(b * 12)
		for i := graph.VertexID(0); i < 12; i++ {
			for j := graph.VertexID(0); j < 12; j++ {
				if i != j {
					g.AddEdge(base+i, base+j, 1+float64((i+j)%4))
				}
			}
		}
	}
	g.AddEdge(11, 12, 2) // bridge
	return g
}

func TestRoleFlipInternalToEntry(t *testing.T) {
	g := twoBlockGraph()
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	if len(l.subs) != 2 {
		t.Fatalf("want 2 dense subgraphs, got %d", len(l.subs))
	}
	// Find an internal vertex of block 2 and give it an external in-edge.
	var victim graph.VertexID
	for v := graph.VertexID(12); v < 24; v++ {
		if l.role[v] == RoleInternal {
			victim = v
			break
		}
	}
	if victim == 0 {
		t.Skip("no internal vertex (all boundary)")
	}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: victim, W: 9}})
	l.Update(applied)
	if !l.role[victim].IsEntry() {
		t.Fatalf("role after external in-edge: %v", l.role[victim])
	}
	// The new entry must have shortcuts and be on the skeleton.
	s := l.subs[l.subOf[victim]]
	vec, shortcuts := l.shortcutVec(s, victim), 0
	for c := range vec {
		if l.isShortcut(vec, int(l.localIdx[victim]), c) {
			shortcuts++
		}
	}
	if shortcuts == 0 {
		t.Fatal("new entry has no shortcuts")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And back: deleting the only external in-edge reverts it to internal.
	applied = delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: victim}})
	l.Update(applied)
	if l.role[victim] != RoleInternal {
		t.Fatalf("role after removing the external in-edge: %v", l.role[victim])
	}
	if l.shortcutVec(s, victim) != nil {
		t.Fatal("stale shortcut origin for demoted entry")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphDissolution(t *testing.T) {
	g := twoBlockGraph()
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	// Rip out most intra edges of block 2 until it fails Definition 2.
	var batch delta.Batch
	for i := graph.VertexID(12); i < 24; i++ {
		for j := graph.VertexID(12); j < 24; j++ {
			if i != j && (i+j)%3 != 0 {
				batch = append(batch, delta.Update{Kind: delta.DelEdge, U: i, V: j})
			}
		}
	}
	applied := delta.Apply(g, batch)
	l.Update(applied)
	for v := graph.VertexID(12); v < 24; v++ {
		if g.Alive(v) && l.subOf[v] != NoSubgraph && l.subs[l.subOf[v]] == nil {
			t.Fatalf("vertex %d references dissolved subgraph", v)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge after dissolution")
	}
}

func TestProxyDecisionFlip(t *testing.T) {
	g := twoBlockGraph()
	// Give vertex 0 many parallel edges into block 2 to force an entry proxy.
	for _, v := range []graph.VertexID{13, 14, 15, 16} {
		g.AddEdge(0, v, 3)
	}
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	sub2 := l.subOf[13]
	if sub2 == NoSubgraph {
		t.Skip("block 2 not dense")
	}
	_, hadProxy := l.proxyOf(true, sub2, 0)
	if !hadProxy {
		t.Skip("replication threshold not crossed on this layout")
	}
	// Delete the parallel edges: the proxy must be orphaned.
	applied := delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 0, V: 13},
		{Kind: delta.DelEdge, U: 0, V: 14},
		{Kind: delta.DelEdge, U: 0, V: 15},
	})
	l.Update(applied)
	if _, ok := l.proxyOf(true, sub2, 0); ok {
		t.Fatal("proxy survived dropping below the replication threshold")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge after proxy flip")
	}
}

// crossBatch draws n updates, alternating add and delete, between members
// of two different dense subgraphs: each flips roles on both sides.
func crossBatch(rng *rand.Rand, l *Layph, n int) delta.Batch {
	g := l.Graph()
	var members []graph.VertexID
	for _, s := range subgraphList(l.subs) {
		for _, v := range s.Local.ids {
			if int(v) < g.Cap() {
				members = append(members, v)
			}
		}
	}
	var b delta.Batch
	for tries := 0; len(b) < n && tries < 100*n; tries++ {
		u := members[rng.Intn(len(members))]
		if len(b)%2 == 0 {
			v := members[rng.Intn(len(members))]
			if _, exists := g.HasEdge(u, v); !exists && l.subOf[u] != l.subOf[v] {
				b = append(b, delta.Update{Kind: delta.AddEdge, U: u, V: v, W: 1 + 9*rng.Float64()})
			}
			continue
		}
		for _, e := range g.Out(u) {
			if c := l.subOf[e.To]; c != NoSubgraph && c != l.subOf[u] {
				b = append(b, delta.Update{Kind: delta.DelEdge, U: u, V: e.To})
				break
			}
		}
	}
	return b
}

// Property: incremental shortcut maintenance must agree with full
// re-deduction after arbitrary intra-subgraph weight churn and after
// cross-subgraph batches that flip roles.
func TestIncrementalShortcutsMatchFullDeduction(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 240, MeanCommunity: 20, IntraDegree: 6, InterDegree: 0.2,
			Weighted: true, Seed: seed,
		})
		for _, mk := range []func() algo.Algorithm{
			func() algo.Algorithm { return algo.NewSSSP(0) },
			func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
		} {
			l := New(g.Clone(), mk(), Options{})
			gLocal := l.Graph()
			genr := delta.NewGenerator(seed + 5)
			for b := 0; b < 3; b++ {
				applied := delta.Apply(gLocal, genr.EdgeBatch(gLocal, 30, true))
				l.Update(applied)
			}
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < 3; b++ {
				l.Update(delta.Apply(gLocal, crossBatch(rng, l, 20)))
			}
			ts := l.getTask()
			for _, s := range l.subs {
				fresh := &Subgraph{ID: s.ID, proxies: s.proxies,
					Local: &localFrame{ids: s.Local.ids}, Entries: s.Entries, NumExits: s.NumExits, Internal: s.Internal}
				l.buildLocalFrame(fresh)
				l.deduceShortcuts(fresh, ts)
				for _, u := range s.Entries {
					cu := l.localIdx[u]
					mem, ref := s.scVec[cu], fresh.scVec[cu]
					for i := range mem {
						mi, ri := mem[i], ref[i]
						if math.IsInf(mi, 1) != math.IsInf(ri, 1) {
							t.Logf("seed %d sub %d entry %d idx %d: inf mismatch %v vs %v", seed, s.ID, u, i, mi, ri)
							return false
						}
						if !math.IsInf(mi, 1) && math.Abs(mi-ri) > 1e-6 {
							t.Logf("seed %d sub %d entry %d idx %d: %v vs %v", seed, s.ID, u, i, mi, ri)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexGrowthRemapsProxies(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 800, MeanCommunity: 40, IntraDegree: 8, InterDegree: 0.2,
		HubFraction: 0.03, HubDegree: 40, Weighted: true, Seed: 12,
	})
	l := New(g, algo.NewSSSP(0), Options{})
	if l.OfflineStats.Proxies == 0 {
		t.Skip("no proxies on this layout")
	}
	// Adding vertices forces the proxy segment past the new cap; so does a
	// vertex the same batch creates and deletes again, which grows the ID
	// space without listing an added vertex.
	genr := delta.NewGenerator(5)
	for b, batch := range []func() delta.Batch{
		func() delta.Batch { return genr.VertexBatch(g, 10, 0, 4, true) },
		func() delta.Batch {
			v := graph.VertexID(g.Cap())
			return delta.Batch{{Kind: delta.AddVertex, U: v}, {Kind: delta.DelVertex, U: v}}
		},
	} {
		l.Update(delta.Apply(g, batch()))
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if i := slices.IndexFunc(l.proxyHost[:g.Cap()], func(h graph.VertexID) bool { return h != NoHost }); i >= 0 {
			t.Fatalf("batch %d: graph vertex %d holds a proxy", b, i)
		}
		want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
		if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
			t.Fatalf("batch %d: states diverge after proxy remap", b)
		}
	}
}

// The absorbing-frame in-edges are read off the flat in-rows. After build
// and after every churn batch (edge churn, vertex adds and deletes, on a
// layout with proxies) they must be exactly the reverse of the absorbing
// view's out-rows.
func TestDerivedInEdgesReverseOutRows(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"sssp":     func() algo.Algorithm { return algo.NewSSSP(0) },
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		t.Run(name, func(t *testing.T) {
			g, _ := gen.CommunityGraph(gen.CommunityConfig{
				Vertices: 800, MeanCommunity: 40, IntraDegree: 8, InterDegree: 0.2,
				HubFraction: 0.03, HubDegree: 40, Weighted: true, Seed: 12,
			})
			l := New(g, mk(), Options{Workers: 2})
			if l.OfflineStats.Proxies == 0 {
				t.Fatal("layout has no proxies")
			}
			genr := delta.NewGenerator(21)
			for b := 0; ; b++ {
				if err := derivedInEdgesDiff(l); err != nil {
					t.Fatalf("after %d batches: %v", b, err)
				}
				if b == 5 {
					break
				}
				batch := genr.EdgeBatch(g, 80, true)
				for _, u := range genr.VertexBatch(g, 2, 2, 2, true) {
					if u.Kind != delta.DelVertex || u.U != 0 { // keep the source alive
						batch = append(batch, u)
					}
				}
				l.Update(delta.Apply(g, batch))
			}
		})
	}
}

// A deletion resets a boundary vertex whose only intact skeleton in-edge is
// another entry's shortcut. In twoBlockGraph plus source edges 0→12 and
// 0→20 and an exit edge 20→5, vertex 20 takes its value from the source;
// deleting 0→20 resets it while it stays an exit, and the shortcut from
// entry 12 (whose value the deletion leaves intact) is its only skeleton
// in-edge left. Its subgraph's upload re-seeds it from its whole flat
// in-row; the answer must equal a restart.
func TestResetBoundaryReseededThroughShortcut(t *testing.T) {
	g := twoBlockGraph()
	g.AddEdge(0, 12, 1)
	g.AddEdge(0, 20, 1)
	g.AddEdge(20, 5, 5)
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12), Workers: 1})
	const v = graph.VertexID(20)
	if l.parent[v] != 0 || l.parent[12] != 0 {
		t.Fatalf("parents of 20 and 12 are %d and %d, want the source", l.parent[v], l.parent[12])
	}
	l.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: v}}))
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var srcs []graph.VertexID
	for u, row := range l.upOut {
		for _, e := range row {
			if e.To == v {
				srcs = append(srcs, graph.VertexID(u))
			}
		}
	}
	if l.role[v] != RoleExit || !slices.Equal(srcs, []graph.VertexID{12}) {
		t.Fatalf("vertex 20 is %v with skeleton in-edges from %v, want an exit with entry 12's shortcut only", l.role[v], srcs)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge from restart")
	}
}

// A batch confined to one subgraph recomputes the skeleton rows of the
// vertices whose roles it recomputed and of the entries whose shortcut
// vectors it moved at a slot of another non-internal member, and no other
// entry's row. Each batch adds one edge between two internal members of a
// subgraph: no role changes and nothing resets, so an entry moved exactly
// when its vector's values changed at such a slot. The batches run until
// one has moved some entries and left others outside the role-recomputed
// set alone; CheckInvariants' upOut check must hold after every one.
func TestSkeletonRowsFollowShortcutDiff(t *testing.T) {
	g := testGraph(3)
	l := New(g, algo.NewSSSP(0), Options{Workers: 2})
	snapshot := func(s *Subgraph) map[graph.VertexID][]float64 {
		vecs := map[graph.VertexID][]float64{}
		for _, u := range s.Entries {
			vecs[u] = slices.Clone(l.shortcutVec(s, u))
		}
		return vecs
	}
	tries := 0
	for _, s := range subgraphList(l.subs) {
		for _, u := range s.Internal {
			for _, v := range s.Internal {
				if _, ok := g.HasEdge(u, v); ok || u == v || int(u) >= g.Cap() || int(v) >= g.Cap() {
					continue
				}
				if tries++; tries > 200 {
					t.Fatal("no internal edge moved some entries and left others alone")
				}
				before, rows := snapshot(s), l.upRows.Load()
				l.Update(delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: u, V: v, W: 1}}))
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("edge %d→%d: %v", u, v, err)
				}
				if l.role[u] != RoleInternal || l.role[v] != RoleInternal {
					t.Fatalf("edge %d→%d changed an endpoint's role", u, v)
				}
				roleSeen := l.scratch.roleSeen
				moved, still := 0, 0
				for _, e := range s.Entries {
					if roleSeen.Has(e) {
						continue
					}
					old, vec, ce := before[e], l.shortcutVec(s, e), int(l.localIdx[e])
					changed := false
					for c := range vec {
						changed = changed || (c != ce && vec[c] != old[c] && l.role[s.Local.ids[c]] != RoleInternal)
					}
					if changed {
						moved++
					} else {
						still++
					}
				}
				if got, want := l.upRows.Load()-rows, int64(len(roleSeen.List)+moved); got != want {
					t.Fatalf("edge %d→%d: %d skeleton rows recomputed, want %d (%d role-recomputed vertices, %d moved entries)",
						u, v, got, want, len(roleSeen.List), moved)
				}
				if moved > 0 && still > 0 {
					t.Logf("edge %d→%d, batch %d: %d entries moved, %d left alone, %d role-recomputed vertices",
						u, v, tries, moved, still, len(roleSeen.List))
					return
				}
			}
		}
	}
	t.Fatal("no subgraph has two internal members without an edge")
}

// derivedInEdgesDiff compares absorbIn on every frame member with the
// reverse of the absorbing view l.absorbing(s), as edge multisets.
func derivedInEdgesDiff(l *Layph) error {
	var got []engine.WEdge
	add := func(src graph.VertexID, w float64) { got = append(got, engine.WEdge{To: src, W: w}) }
	reverse := func(rows engine.Rows) [][]engine.WEdge {
		rev := make([][]engine.WEdge, rows.N())
		for u := range rev {
			for _, e := range rows.Row(graph.VertexID(u)) {
				rev[e.To] = append(rev[e.To], engine.WEdge{To: graph.VertexID(u), W: e.W})
			}
		}
		return rev
	}
	same := func(a, b []engine.WEdge) bool {
		byEdge := func(x, y engine.WEdge) int { return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.W, y.W)) }
		return slices.Equal(slices.SortedFunc(slices.Values(a), byEdge), slices.SortedFunc(slices.Values(b), byEdge))
	}
	for _, s := range subgraphList(l.subs) {
		absWant := reverse(l.absorbing(s))
		for c := range s.Local.ids {
			got = got[:0]
			if l.absorbIn(s, graph.VertexID(c), add); !same(got, absWant[c]) {
				return fmt.Errorf("sub %d member %d: absorbing in-edges %v, reverse of the absorbing view %v", s.ID, s.Local.ids[c], got, absWant[c])
			}
		}
	}
	return nil
}

func commCfg(maxSize int) (c community.Config) { c.MaxSize = maxSize; return c }
