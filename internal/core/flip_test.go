package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
)

// confinedBatch draws n updates alternating add and delete, valid against
// g's current edges, with both endpoints of each in one of comms, the
// member lists of planted communities (comm is the planted assignment).
// Each update draws its community at random; a single community costs no
// draw, so its sequences do not depend on the community count.
func confinedBatch(rng *rand.Rand, g *graph.Graph, comm []int, comms [][]graph.VertexID, n int) delta.Batch {
	used := map[[2]graph.VertexID]bool{}
	var b delta.Batch
	for tries := 0; len(b) < n && tries < 100*n; tries++ {
		members := comms[0]
		if len(comms) > 1 {
			members = comms[rng.Intn(len(comms))]
		}
		u := members[rng.Intn(len(members))]
		var upd delta.Update
		if len(b)%2 == 0 {
			v := members[rng.Intn(len(members))]
			if _, exists := g.HasEdge(u, v); u == v || exists {
				continue
			}
			upd = delta.Update{Kind: delta.AddEdge, U: u, V: v, W: 1 + 9*rng.Float64()}
		} else {
			outs := g.Out(u)
			if len(outs) == 0 {
				continue
			}
			v := outs[rng.Intn(len(outs))].To
			if comm[v] != comm[u] {
				continue
			}
			upd = delta.Update{Kind: delta.DelEdge, U: u, V: v}
		}
		if key := [2]graph.VertexID{upd.U, upd.V}; !used[key] {
			used[key] = true
			b = append(b, upd)
		}
	}
	return b
}

// TestConfinedSplitCommunityMatchesRestart replays batches confined to
// planted communities larger than K = 64, which community detection splits
// into several subgraphs: "internal" edits of such a community cross
// subgraphs, flip roles on both sides and re-route the proxies of
// neighbours. Every batch must land on the restart answer.
//
// The first row confines each sequence to one community just larger than
// K (65–72 vertices) at UK ×0.1. Rebuilding every subgraph a flip touched
// used to leave stale flat rows on the entry proxies replicating rebuilt
// members and stale roles in the neighbouring subgraph, which put PageRank
// off by 0.1–0.2 within 24 batches on three of these four sequences (two
// of them within the 12 that -short replays).
//
// The second row is the benchmark's local workload without its
// community-size limit: batches of 256 adds and deletes at UK ×0.25, each
// update inside one of the planted communities larger than K. An add that
// crosses subgraphs there once left states above the restart's
// (benchmark/README.md, "Found while building"). Shortcut sums round
// differently from the flat relaxation, hence its SSSP tolerance.
func TestConfinedSplitCommunityMatchesRestart(t *testing.T) {
	sssp := func() algo.Algorithm { return algo.NewSSSP(0) }
	pagerank := func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) }
	// The restart reference converges to refTol, well inside tol.
	type run struct {
		name        string
		mk          func() algo.Algorithm
		tol, refTol float64
	}
	for _, row := range []struct {
		scale            float64
		minSize, maxSize int  // planted community sizes drawn from
		together         bool // one sequence over all of them, not one each
		batchSize        int
		batches, short   int // batches per sequence, in full and under -short
		seeds            []int64
		shortSeeds       int // how many of seeds -short replays
		workers          int
		runs             []run
	}{
		{0.1, 65, 72, false, 16, 24, 12, []int64{3, 5}, 2, 1, []run{
			{"sssp", sssp, 1e-9, 0},
			{"pagerank", pagerank, 1e-4, 1e-7},
		}},
		{0.25, 65, math.MaxInt, true, 256, 60, 10, []int64{1, 2, 3}, 1, 2, []run{
			{"sssp", sssp, 1e-6, 0},
		}},
	} {
		batches, seeds := row.batches, row.seeds
		if testing.Short() {
			batches, seeds = row.short, seeds[:row.shortSeeds]
		}
		g0, comm := gen.CommunityGraph(gen.PresetConfig(gen.PresetUK, row.scale))
		byComm := map[int][]graph.VertexID{}
		for v, c := range comm {
			byComm[c] = append(byComm[c], graph.VertexID(v))
		}
		var groups [][][]graph.VertexID
		var labels []string
		for c := 0; c < len(byComm); c++ {
			if n := len(byComm[c]); n < row.minSize || n > row.maxSize {
				continue
			}
			if row.together && len(groups) > 0 {
				groups[0] = append(groups[0], byComm[c])
				continue
			}
			groups = append(groups, [][]graph.VertexID{byComm[c]})
			labels = append(labels, fmt.Sprint(c))
		}
		if row.together {
			labels[0] = fmt.Sprintf("%d-above-K", len(groups[0]))
		}
		if len(groups) == 0 || row.together && len(groups[0]) < 2 {
			t.Fatalf("UK ×%g: too few planted communities of %d–%d vertices", row.scale, row.minSize, row.maxSize)
		}
		for _, r := range row.runs {
			for i, comms := range groups {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("%s/comm=%s/seed=%d", r.name, labels[i], seed), func(t *testing.T) {
						g := g0.Clone()
						l := New(g, r.mk(), Options{Workers: row.workers})
						if l.opt.Community.MaxSize != 64 {
							t.Fatalf("default K = %d, want 64", l.opt.Community.MaxSize)
						}
						rng := rand.New(rand.NewSource(seed))
						for b := 0; b < batches; b++ {
							batch := confinedBatch(rng, g, comm, comms, row.batchSize)
							if len(batch) != row.batchSize {
								t.Fatalf("batch %d: drew %d updates, want %d", b, len(batch), row.batchSize)
							}
							l.Update(delta.Apply(g, batch))
							want := engine.RunBatch(g, r.mk(), engine.Options{Tolerance: r.refTol})
							if got := l.States()[:g.Cap()]; !algo.StatesClose(got, want.X, r.tol) {
								t.Fatalf("batch %d: states differ from restart by %g", b, algo.MaxStateDiff(got, want.X))
							}
							if err := l.CheckInvariants(); err != nil {
								t.Fatalf("batch %d: %v", b, err)
							}
						}
					})
				}
			}
		}
	}
}

// flipGraph is twoBlockGraph plus four parallel edges from vertex 0 into
// block 2, so block 2 replicates vertex 0 as an entry proxy.
func flipGraph() *graph.Graph {
	g := twoBlockGraph()
	for _, v := range []graph.VertexID{13, 14, 15, 16} {
		g.AddEdge(0, v, 3)
	}
	return g
}

// TestFlipOnlyBatchIsAnEdit pins that a batch whose only structural effect
// is a role flip — an internal vertex gaining its first external in-edge,
// and losing it again — edits the subgraph in place: no community is
// re-evaluated, no subgraph rebuilt, the proxies keep their ids and no
// memoized state is reset.
func TestFlipOnlyBatchIsAnEdit(t *testing.T) {
	for _, mk := range []func() algo.Algorithm{
		func() algo.Algorithm { return algo.NewSSSP(0) },
		func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		g := flipGraph()
		l := New(g, mk(), Options{Community: commCfg(12), Workers: 1})
		sub := l.subOf[13]
		s := l.subs[sub]
		if s == nil || len(s.proxies) == 0 {
			t.Fatal("block 2 is not a dense subgraph with a proxy")
		}
		var victim graph.VertexID
		for _, v := range s.Local.ids {
			if l.role[v] == RoleInternal && v != 13 {
				victim = v
				break
			}
		}
		if victim == 0 {
			t.Fatal("no internal vertex in block 2")
		}
		proxies := append([]graph.VertexID(nil), s.proxies...)
		for _, step := range []struct {
			upd  delta.Update
			want func(Role) bool
		}{
			// Vertex 1 has one edge into block 2: below the replication
			// threshold, so the edge flips the victim without a proxy
			// decision. The weight keeps every shortest path as it was.
			{delta.Update{Kind: delta.AddEdge, U: 1, V: victim, W: 1000}, Role.IsEntry},
			{delta.Update{Kind: delta.DelEdge, U: 1, V: victim}, func(r Role) bool { return r == RoleInternal }},
		} {
			before := append([]float64(nil), l.States()...)
			evals, builds := l.evaluations, l.builds
			st := l.Update(delta.Apply(g, delta.Batch{step.upd}))
			if !step.want(l.role[victim]) {
				t.Fatalf("%v: victim role %v", step.upd, l.role[victim])
			}
			if l.evaluations != evals || l.builds != builds {
				t.Fatalf("%v: %d evaluations and %d builds for a flip-only batch", step.upd, l.evaluations-evals, l.builds-builds)
			}
			if l.subs[sub] != s || fmt.Sprint(s.proxies) != fmt.Sprint(proxies) {
				t.Fatalf("%v: subgraph or proxies replaced: %v vs %v", step.upd, s.proxies, proxies)
			}
			if l.a.Semiring().Idempotent() {
				if st.Resets != 0 {
					t.Fatalf("%v: %d resets", step.upd, st.Resets)
				}
				for v := range before {
					if math.Float64bits(before[v]) != math.Float64bits(l.States()[v]) {
						t.Fatalf("%v: state of %d moved %v -> %v", step.upd, v, before[v], l.States()[v])
					}
				}
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", step.upd, err)
			}
			assertFreshShortcuts(t, l, 1e-9)
			want := engine.RunBatch(g, mk(), engine.Options{})
			if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-6) {
				t.Fatalf("%v: states differ from restart by %g", step.upd, algo.MaxStateDiff(l.States()[:g.Cap()], want.X))
			}
		}
	}
}

// TestEditThatFailsDensityDissolves makes every vertex of both blocks an
// entry and an exit with one-edge links (below the replication threshold,
// so no structural rebuild): 12×12 boundary pairs exceed the 132 internal
// edges of a block, so the edits' own density test must dissolve both
// subgraphs, without evaluating a community.
func TestEditThatFailsDensityDissolves(t *testing.T) {
	for _, mk := range []func() algo.Algorithm{
		func() algo.Algorithm { return algo.NewSSSP(0) },
		func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		g := twoBlockGraph()
		l := New(g, mk(), Options{Community: commCfg(12), Workers: 1})
		if len(l.subs) != 2 {
			t.Fatalf("want 2 dense subgraphs, got %d", len(l.subs))
		}
		var batch delta.Batch
		for i := graph.VertexID(0); i < 12; i++ {
			batch = append(batch,
				delta.Update{Kind: delta.AddEdge, U: i, V: 12 + (i+1)%12, W: 5},
				delta.Update{Kind: delta.AddEdge, U: 12 + i, V: (i + 3) % 12, W: 5})
		}
		evals := l.evaluations
		l.Update(delta.Apply(g, batch))
		if len(l.subs) != 0 {
			t.Fatalf("%d subgraphs survived a batch that leaves both below the density test", len(l.subs))
		}
		if l.evaluations != evals {
			t.Fatalf("%d community evaluations: the dissolution should come from the edits", l.evaluations-evals)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		want := engine.RunBatch(g, mk(), engine.Options{})
		if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-6) {
			t.Fatalf("states differ from restart by %g", algo.MaxStateDiff(l.States()[:g.Cap()], want.X))
		}
	}
}

// TestSumDriftStaysBounded flips the same vertex back and forth for
// hundreds of batches under PageRank: every memoized shortcut vector must
// stay within 1e-6 of a fresh deduction, the job of the patch budget.
func TestSumDriftStaysBounded(t *testing.T) {
	g := flipGraph()
	l := New(g, algo.NewPageRank(0.85, 1e-10), Options{Community: commCfg(12), Workers: 1})
	sub := l.subOf[13]
	var victims []graph.VertexID
	for _, v := range l.subs[sub].Local.ids {
		if l.role[v] == RoleInternal {
			victims = append(victims, v)
		}
	}
	if len(victims) < 2 {
		t.Fatal("too few internal vertices in block 2")
	}
	for b := 0; b < 320; b++ {
		v := victims[(b/2)%len(victims)]
		upd := delta.Update{Kind: delta.AddEdge, U: graph.VertexID(1 + b%5), V: v, W: 2}
		if b%2 == 1 {
			upd = delta.Update{Kind: delta.DelEdge, U: graph.VertexID(1 + (b-1)%5), V: v}
		}
		l.Update(delta.Apply(g, delta.Batch{upd}))
		if b%40 == 39 {
			assertFreshShortcuts(t, l, 1e-6)
		}
	}
	if l.builds != 0 {
		t.Fatalf("flips rebuilt %d subgraphs", l.builds)
	}
	for _, s := range l.subs {
		if s.Local.patches > patchBudget {
			t.Fatalf("sub %d carries %d patches, past the budget of %d", s.ID, s.Local.patches, patchBudget)
		}
	}
	want := engine.RunBatch(g, algo.NewPageRank(0.85, 1e-10), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-6) {
		t.Fatalf("states differ from restart by %g", algo.MaxStateDiff(l.States()[:g.Cap()], want.X))
	}
}

// assertFreshShortcuts compares every memoized shortcut vector with a
// fresh deduction over the subgraph's current frame.
func assertFreshShortcuts(t *testing.T, l *Layph, tol float64) {
	t.Helper()
	if err := freshShortcutsDiff(l, tol); err != nil {
		t.Fatal(err)
	}
}

func freshShortcutsDiff(l *Layph, tol float64) error {
	ts := l.getTask()
	defer l.putTask(ts)
	for _, s := range subgraphList(l.subs) {
		fresh := &Subgraph{ID: s.ID, Local: s.Local, Entries: s.Entries}
		l.deduceShortcuts(fresh, ts)
		for _, u := range s.Entries {
			cu := l.localIdx[u]
			mem, ref := s.scVec[cu], fresh.scVec[cu]
			for i := range mem {
				mi, ri := mem[i], ref[i]
				if math.IsInf(mi, 1) != math.IsInf(ri, 1) || (!math.IsInf(mi, 1) && math.Abs(mi-ri) > tol) {
					return fmt.Errorf("sub %d entry %d slot %d: memoized %v, fresh %v", s.ID, u, i, mi, ri)
				}
			}
		}
	}
	return nil
}

// TestRemoveThenReviveProxyHost deletes a replicated host, then revives it
// with its edges: the proxy must be orphaned and come back under the same
// id, with the structure intact and the answer equal to a restart.
func TestRemoveThenReviveProxyHost(t *testing.T) {
	for name, mk := range map[string]func() algo.Algorithm{
		"sssp":     func() algo.Algorithm { return algo.NewSSSP(0) },
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
	} {
		t.Run(name, func(t *testing.T) {
			g := flipGraph()
			const host = 5 // block 1, replicated into block 2 below
			for _, v := range []graph.VertexID{17, 18, 19, 20} {
				g.AddEdge(host, v, 2)
			}
			l := New(g, mk(), Options{Community: commCfg(12), Workers: 1})
			sub := l.subOf[17]
			p, ok := l.proxyOf(true, sub, host)
			if !ok {
				t.Fatal("host is not replicated")
			}
			var revive delta.Batch
			revive = append(revive, delta.Update{Kind: delta.AddVertex, U: host})
			for _, e := range g.Out(host) {
				revive = append(revive, delta.Update{Kind: delta.AddEdge, U: host, V: e.To, W: e.W})
			}
			for _, e := range g.In(host) {
				revive = append(revive, delta.Update{Kind: delta.AddEdge, U: e.To, V: host, W: e.W})
			}
			check := func(stage string) {
				t.Helper()
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				want := engine.RunBatch(g, mk(), engine.Options{})
				if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-6) {
					t.Fatalf("%s: states differ from restart by %g", stage, algo.MaxStateDiff(l.States()[:g.Cap()], want.X))
				}
			}
			l.Update(delta.Apply(g, delta.Batch{{Kind: delta.DelVertex, U: host}}))
			if l.flatAlive(p) || slices.ContainsFunc(l.proxiesOf[host], func(r proxyRef) bool { return r.entry && l.flatAlive(r.p) }) {
				t.Fatal("proxy of a removed host survived")
			}
			check("removed")
			l.Update(delta.Apply(g, revive))
			if q, ok := l.proxyOf(true, sub, host); !ok || q != p {
				t.Fatal("revived host's proxy did not come back under its id")
			}
			check("revived")
			// A batch of edits inside block 2 right after the revival.
			l.Update(delta.Apply(g, delta.Batch{
				{Kind: delta.DelEdge, U: 17, V: 18},
				{Kind: delta.AddEdge, U: 1, V: 21, W: 1},
			}))
			check("edited")
		})
	}
}

// TestCheckInvariantsCatchesStaleEdits corrupts, one at a time, each piece
// of state an in-place edit has to keep in step, and expects
// CheckInvariants to report it.
func TestCheckInvariantsCatchesStaleEdits(t *testing.T) {
	// slot returns the first shortcut slot of entry cu's vector in s whose
	// member is another boundary vertex (internal false) or an internal
	// vertex (internal true), or -1.
	slot := func(l *Layph, s *Subgraph, cu int32, internal bool) int {
		vec := s.scVec[cu]
		for c := range vec {
			if c != int(cu) && l.isShortcut(vec, int(cu), c) && (l.role[s.Local.ids[c]] == RoleInternal) == internal {
				return c
			}
		}
		return -1
	}
	// pick returns block 2's subgraph, one of its entries with a non-empty
	// frame row and shortcuts to both boundary and internal members, and
	// one internal member.
	pick := func(l *Layph) (s *Subgraph, entry, internal graph.VertexID) {
		s = l.subs[l.subOf[13]]
		for _, v := range s.Entries {
			if cu := l.localIdx[v]; len(s.Local.out[cu]) > 0 && slot(l, s, cu, false) >= 0 && slot(l, s, cu, true) >= 0 {
				entry = v
			}
		}
		internal = s.Internal[0]
		return s, entry, internal
	}
	for name, corrupt := range map[string]func(l *Layph){
		"entry missing from Entries": func(l *Layph) {
			s, u, _ := pick(l)
			s.Entries = slices.DeleteFunc(slices.Clone(s.Entries), func(v graph.VertexID) bool { return v == u })
		},
		"entry listed as internal": func(l *Layph) {
			s, u, _ := pick(l)
			s.Internal = append(slices.Clone(s.Internal), u)
		},
		"frame row off its flat row": func(l *Layph) {
			s, u, _ := pick(l)
			cu := l.localIdx[u]
			row := slices.Clone(s.Local.out[cu])
			row[0].W++
			s.Local.out[cu] = row
		},
		"entry without a shortcut vector": func(l *Layph) {
			s, u, _ := pick(l)
			s.scVec[l.localIdx[u]] = nil
		},
		"internal vertex with a shortcut vector": func(l *Layph) {
			s, _, v := pick(l)
			s.scVec[l.localIdx[v]] = make([]float64, s.Local.size())
		},
		"skeleton row off its shortcut vector": func(l *Layph) {
			// A boundary slot moves but upOut is not refreshed: the up-row
			// check must catch the stale skeleton edge.
			s, u, _ := pick(l)
			cu := l.localIdx[u]
			s.scVec[cu][slot(l, s, cu, false)]++
		},
		"deduction parent off the frame": func(l *Layph) {
			s, u, _ := pick(l)
			cu := l.localIdx[u]
			c := slot(l, s, cu, true)
			s.scParent[cu][c] = graph.VertexID(c)
		},
		"skeleton count off its roles": func(l *Layph) {
			l.skel++
		},
		"live count off its roles": func(l *Layph) {
			l.live--
		},
		"stale flat row": func(l *Layph) {
			// Reweight one flat edge on both mirrors: only the derivation
			// from the graph can tell.
			v := graph.VertexID(2)
			row := slices.Clone(l.flatOut[v])
			row[0].W++
			l.flatOut[v] = row
			in := slices.Clone(l.flatIn[row[0].To])
			for i := range in {
				if in[i].To == v {
					in[i].W++
				}
			}
			l.flatIn[row[0].To] = in
		},
	} {
		l := New(flipGraph(), algo.NewSSSP(0), Options{Community: commCfg(12), Workers: 1})
		if _, u, _ := pick(l); u == 0 {
			t.Fatal("no entry with both shortcut kinds in block 2")
		}
		expectReported(t, name, l, corrupt)
	}
	// Dependency-forest corruptions run under CC: every vertex is reachable
	// from vertex 0, so every label is 0 and every weight the tropical one,
	// and each corruption passes every check but the one it targets.
	for name, corrupt := range map[string]func(l *Layph){
		"parent two-cycle": func(l *Layph) {
			l.parent[3], l.parent[4] = 4, 3
		},
		"parent not an in-neighbour": func(l *Layph) {
			l.parent[5] = 20
		},
		"non-root vertex without a parent": func(l *Layph) {
			l.parent[6] = engine.NoParent
		},
	} {
		l := New(flipGraph(), algo.NewCC(), Options{Community: commCfg(12), Workers: 1})
		for _, v := range []graph.VertexID{3, 4, 5, 6, 20} {
			if l.x[v] != 0 {
				t.Fatalf("vertex %d has label %v, want 0", v, l.x[v])
			}
		}
		expectReported(t, name, l, corrupt)
	}
}

// expectReported checks that CheckInvariants accepts l, applies corrupt and
// expects CheckInvariants to report it.
func expectReported(t *testing.T, name string, l *Layph, corrupt func(*Layph)) {
	t.Helper()
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("%s: clean structure rejected: %v", name, err)
	}
	corrupt(l)
	if err := l.CheckInvariants(); err == nil {
		t.Errorf("%s: not detected", name)
	} else {
		t.Logf("%s: %v", name, err)
	}
}
