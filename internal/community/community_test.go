package community

import (
	"slices"
	"testing"
	"testing/quick"

	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
)

func plantedGraph(seed int64, n, mean int) (*graph.Graph, []int) {
	return gen.CommunityGraph(gen.CommunityConfig{
		Vertices: n, MeanCommunity: mean, IntraDegree: 8, InterDegree: 0.15,
		Weighted: false, Seed: seed,
	})
}

func TestDetectRecoversPlantedStructure(t *testing.T) {
	g, planted := plantedGraph(3, 600, 30)
	p := Detect(g, Config{})
	if p.NumComms < 5 {
		t.Fatalf("found only %d communities", p.NumComms)
	}
	// Quality: detected partition should score high modularity and beat the
	// trivial all-in-one partition by far.
	q := Modularity(g, p)
	if q < 0.5 {
		t.Fatalf("modularity %v too low for a strongly planted graph", q)
	}
	// Agreement: most intra-planted-community edges should stay intra.
	intra, agree := 0, 0
	g.Edges(func(u, v graph.VertexID, w float64) {
		if planted[u] == planted[v] {
			intra++
			if p.Comm[u] == p.Comm[v] {
				agree++
			}
		}
	})
	if agree*10 < intra*7 {
		t.Fatalf("only %d/%d planted intra edges kept intra", agree, intra)
	}
}

func TestDetectPartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := plantedGraph(seed, 300, 25)
		p := Detect(g, Config{MaxSize: 60})
		if len(p.Comm) != g.Cap() {
			return false
		}
		seenLive := true
		g.Vertices(func(v graph.VertexID) {
			if p.Comm[v] < 0 || int(p.Comm[v]) >= p.NumComms {
				seenLive = false
			}
		})
		if !seenLive {
			return false
		}
		for _, s := range p.Sizes() {
			if s > 60 {
				t.Logf("seed %d: community size %d exceeds cap", seed, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDeadVertices(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.DeleteVertex(4)
	p := Detect(g, Config{})
	if p.Comm[4] != NoCommunity {
		t.Fatal("dead vertex got a community")
	}
	if p.Comm[0] < 0 || p.Comm[1] < 0 {
		t.Fatal("live vertices unassigned")
	}
}

func TestDetectEmptyAndSingleton(t *testing.T) {
	p := Detect(graph.New(0), Config{})
	if p.NumComms != 0 {
		t.Fatalf("empty graph: %d communities", p.NumComms)
	}
	g := graph.New(1)
	p = Detect(g, Config{})
	if p.NumComms != 1 || p.Comm[0] != 0 {
		t.Fatalf("singleton: %+v", p)
	}
}

func TestMembersAndSizes(t *testing.T) {
	g, _ := plantedGraph(9, 200, 25)
	p := Detect(g, Config{})
	members := p.Members()
	sizes := p.Sizes()
	total := 0
	for c, m := range members {
		if len(m) != sizes[c] {
			t.Fatalf("community %d: members %d != size %d", c, len(m), sizes[c])
		}
		total += len(m)
	}
	if total != g.NumVertices() {
		t.Fatalf("partition covers %d of %d vertices", total, g.NumVertices())
	}
	ids := p.SortedBySize()
	for i := 1; i < len(ids); i++ {
		if sizes[ids[i-1]] < sizes[ids[i]] {
			t.Fatal("SortedBySize not descending")
		}
	}
}

func TestModularityBounds(t *testing.T) {
	g, planted := plantedGraph(5, 300, 30)
	p := &Partition{Comm: make([]int32, g.Cap())}
	max := int32(0)
	for v, c := range planted {
		p.Comm[v] = int32(c)
		if int32(c) > max {
			max = int32(c)
		}
	}
	p.NumComms = int(max) + 1
	q := Modularity(g, p)
	if q <= 0 || q > 1 {
		t.Fatalf("planted modularity %v out of expected range", q)
	}
	// All-singletons partition scores lower than planted.
	sing := &Partition{Comm: make([]int32, g.Cap()), NumComms: g.Cap()}
	for v := range sing.Comm {
		sing.Comm[v] = int32(v)
	}
	if Modularity(g, sing) >= q {
		t.Fatal("singleton partition should not beat planted structure")
	}
}

func TestAdjustKeepsPartitionValid(t *testing.T) {
	g, _ := plantedGraph(11, 400, 30)
	p := Detect(g, Config{MaxSize: 80})
	genr := delta.NewGenerator(2)
	for i := 0; i < 5; i++ {
		batch := genr.EdgeBatch(g, 40, false)
		batch = append(batch, genr.VertexBatch(g, 4, 4, 3, false)...)
		applied := delta.Apply(g, batch)
		changed := AdjustDetailed(g, p, Config{MaxSize: 80}, applied).Changed
		if len(p.Comm) < g.Cap() {
			t.Fatal("assignment not grown")
		}
		ok := true
		g.Vertices(func(v graph.VertexID) {
			if p.Comm[v] < 0 || int(p.Comm[v]) >= p.NumComms {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("batch %d: live vertex without community", i)
		}
		for v := 0; v < g.Cap(); v++ {
			if !g.Alive(graph.VertexID(v)) && p.Comm[v] != NoCommunity {
				t.Fatalf("batch %d: dead vertex %d keeps community", i, v)
			}
		}
		_ = changed
	}
}

func TestAdjustReportsChangedCommunities(t *testing.T) {
	g, _ := plantedGraph(13, 300, 30)
	p := Detect(g, Config{})
	// Delete a vertex: its community must be reported.
	var victim graph.VertexID
	g.Vertices(func(v graph.VertexID) {
		if victim == 0 && g.OutDegree(v) > 0 {
			victim = v
		}
	})
	c := p.Comm[victim]
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelVertex, U: victim}})
	changed := AdjustDetailed(g, p, Config{}, applied).Changed
	if _, ok := changed[c]; !ok {
		t.Fatalf("community %d of deleted vertex not reported (got %v)", c, changed)
	}
}

func TestAdjustNewVertexJoinsNeighborCommunity(t *testing.T) {
	g, _ := plantedGraph(17, 300, 30)
	p := Detect(g, Config{})
	// Wire a new vertex densely into community of vertex 0.
	target := p.Comm[0]
	var batch delta.Batch
	nv := graph.VertexID(g.Cap())
	batch = append(batch, delta.Update{Kind: delta.AddVertex, U: nv})
	count := 0
	g.Vertices(func(v graph.VertexID) {
		if p.Comm[v] == target && count < 5 {
			batch = append(batch, delta.Update{Kind: delta.AddEdge, U: nv, V: v, W: 1})
			batch = append(batch, delta.Update{Kind: delta.AddEdge, U: v, V: nv, W: 1})
			count++
		}
	})
	applied := delta.Apply(g, batch)
	AdjustDetailed(g, p, Config{}, applied)
	if p.Comm[nv] != target {
		t.Fatalf("new vertex joined %d, want %d", p.Comm[nv], target)
	}
}

// TestAdjustDeterministic pins the determinism fix: identical graph,
// partition, and batch sequence must produce byte-identical assignments
// across repeated runs. Before the fix, the local-move loop ranged over a
// Go map, so tie-broken community choices depended on iteration order.
func TestAdjustDeterministic(t *testing.T) {
	g0, _ := plantedGraph(23, 400, 30)
	p0 := Detect(g0, Config{MaxSize: 80})
	run := func() []int32 {
		g := g0.Clone()
		p := &Partition{Comm: append([]int32(nil), p0.Comm...), NumComms: p0.NumComms}
		genr := delta.NewGenerator(7)
		for i := 0; i < 8; i++ {
			batch := genr.EdgeBatch(g, 60, true)
			batch = append(batch, genr.VertexBatch(g, 5, 3, 3, true)...)
			applied := delta.Apply(g, batch)
			AdjustDetailed(g, p, Config{MaxSize: 80}, applied)
		}
		return append([]int32(nil), p.Comm...)
	}
	want := run()
	for rep := 0; rep < 5; rep++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("rep %d: assignment length %d != %d", rep, len(got), len(want))
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("rep %d: vertex %d assigned %d, want %d (nondeterministic tie-break)", rep, v, got[v], want[v])
			}
		}
	}
}

// TestAdjustDetailedMovesMatchAssignment cross-checks the move log: replaying
// Moved over the pre-adjust assignment must reproduce the post-adjust one.
func TestAdjustDetailedMovesMatchAssignment(t *testing.T) {
	g, _ := plantedGraph(29, 300, 30)
	p := Detect(g, Config{MaxSize: 60})
	genr := delta.NewGenerator(3)
	for i := 0; i < 6; i++ {
		before := append([]int32(nil), p.Comm...)
		batch := genr.EdgeBatch(g, 50, false)
		batch = append(batch, genr.VertexBatch(g, 4, 3, 3, false)...)
		applied := delta.Apply(g, batch)
		res := AdjustDetailed(g, p, Config{MaxSize: 60}, applied)
		replay := append([]int32(nil), before...)
		for len(replay) < len(p.Comm) {
			replay = append(replay, NoCommunity)
		}
		for _, m := range res.Moved {
			if replay[m.V] != m.From {
				t.Fatalf("batch %d: move %+v expects From=%d but vertex was in %d", i, m, m.From, replay[m.V])
			}
			replay[m.V] = m.To
			if m.From >= 0 {
				if _, ok := res.Changed[m.From]; !ok {
					t.Fatalf("batch %d: move %+v source community not in Changed", i, m)
				}
			}
			if m.To >= 0 {
				if _, ok := res.Changed[m.To]; !ok {
					t.Fatalf("batch %d: move %+v target community not in Changed", i, m)
				}
			}
		}
		for v := range p.Comm {
			if replay[v] != p.Comm[v] {
				t.Fatalf("batch %d: replayed assignment diverges at %d: %d != %d", i, v, replay[v], p.Comm[v])
			}
		}
	}
}

// TestAdjustLongChurnBoundedComms pins the dead-id-leak fix: under sustained
// churn NumComms grows monotonically (ids are stable between re-layers), but
// a periodic re-detection aligned onto the adjusted partition — what a
// re-layer lands — must reclaim dead ids and keep the live count bounded by
// the vertex count.
func TestAdjustLongChurnBoundedComms(t *testing.T) {
	g, _ := plantedGraph(31, 300, 25)
	p := Detect(g, Config{MaxSize: 60})
	genr := delta.NewGenerator(5)
	maxAfterAlign := 0
	for i := 0; i < 40; i++ {
		batch := genr.EdgeBatch(g, 40, false)
		batch = append(batch, genr.VertexBatch(g, 6, 6, 3, false)...)
		applied := delta.Apply(g, batch)
		AdjustDetailed(g, p, Config{MaxSize: 60}, applied)
		if p.LiveComms() > p.NumComms {
			t.Fatalf("round %d: live %d > NumComms %d", i, p.LiveComms(), p.NumComms)
		}
		if i%10 == 9 {
			fresh := Detect(g, Config{MaxSize: 60})
			before := append([]int32(nil), fresh.Comm...)
			remap := Align(p, fresh)
			p = fresh
			if p.NumComms != p.LiveComms() {
				t.Fatalf("round %d: Align left %d ids for %d live communities", i, p.NumComms, p.LiveComms())
			}
			for v, c := range before {
				switch {
				case c < 0 && p.Comm[v] != NoCommunity:
					t.Fatalf("round %d: Align assigned dead/fresh vertex %d", i, v)
				case c >= 0 && p.Comm[v] != remap[c]:
					t.Fatalf("round %d: vertex %d remapped to %d, want remap[%d]=%d", i, v, p.Comm[v], c, remap[c])
				}
			}
			if p.NumComms > maxAfterAlign {
				maxAfterAlign = p.NumComms
			}
		}
	}
	if maxAfterAlign > g.Cap() {
		t.Fatalf("aligned NumComms %d exceeds vertex capacity %d", maxAfterAlign, g.Cap())
	}
	// The real assertion: churn created and emptied many singleton ids; after
	// the final alignment the id space must be dense again.
	if p.NumComms != p.LiveComms() {
		t.Fatalf("final: %d ids vs %d live communities", p.NumComms, p.LiveComms())
	}
}

// TestAlign pins the id policy of a landing re-detection: identical
// partitions map to themselves, a community whose members stay together
// keeps its id through a renumbering, and empty communities are dropped
// with the freed ids handed out in ascending order.
func TestAlign(t *testing.T) {
	g, _ := plantedGraph(37, 300, 25)
	live := Detect(g, Config{MaxSize: 60})
	fresh := &Partition{Comm: slices.Clone(live.Comm), NumComms: live.NumComms}
	for c, to := range Align(live, fresh) {
		if to != int32(c) {
			t.Fatalf("identical partitions: id %d mapped to %d", c, to)
		}
	}
	if !slices.Equal(fresh.Comm, live.Comm) || fresh.NumComms != live.NumComms {
		t.Fatal("identical partitions: Align changed the assignment")
	}

	// Reverse the fresh ids: overlap alone must restore the live ones.
	n := int32(live.NumComms)
	fresh = &Partition{Comm: slices.Clone(live.Comm), NumComms: live.NumComms}
	for v, c := range fresh.Comm {
		if c >= 0 {
			fresh.Comm[v] = n - 1 - c
		}
	}
	Align(live, fresh)
	if !slices.Equal(fresh.Comm, live.Comm) {
		t.Fatal("renumbered partition not aligned back onto the live ids")
	}

	// live: {0,1} {2,3} {4,5} with ids 0, 1, 2. fresh merges the last two
	// communities under id 5 and leaves ids 1..4 empty, so the id space
	// shrinks to 2 and live id 2 is no longer eligible: the merged
	// community takes 1.
	live = &Partition{Comm: []int32{0, 0, 1, 1, 2, 2, NoCommunity}, NumComms: 3}
	fresh = &Partition{Comm: []int32{0, 0, 5, 5, 5, 5, NoCommunity}, NumComms: 6}
	remap := Align(live, fresh)
	if want := []int32{0, NoCommunity, NoCommunity, NoCommunity, NoCommunity, 1}; !slices.Equal(remap, want) {
		t.Fatalf("remap %v, want %v", remap, want)
	}
	if want := []int32{0, 0, 1, 1, 1, 1, NoCommunity}; !slices.Equal(fresh.Comm, want) || fresh.NumComms != 2 {
		t.Fatalf("aligned %v (%d ids), want %v (2 ids)", fresh.Comm, fresh.NumComms, want)
	}

	// Equal overlaps go to the lower live id.
	live = &Partition{Comm: []int32{0, 0, 1, 1, 2}, NumComms: 3}
	fresh = &Partition{Comm: []int32{0, 0, 0, 0, 1}, NumComms: 2}
	Align(live, fresh)
	if want := []int32{0, 0, 0, 0, 1}; !slices.Equal(fresh.Comm, want) {
		t.Fatalf("tie: aligned %v, want %v", fresh.Comm, want)
	}

	// A community whose best live id is out of range takes a free id.
	live = &Partition{Comm: []int32{3, 3, 0, 0}, NumComms: 4}
	fresh = &Partition{Comm: []int32{0, 0, 1, 1}, NumComms: 2}
	Align(live, fresh)
	if want := []int32{1, 1, 0, 0}; !slices.Equal(fresh.Comm, want) {
		t.Fatalf("aligned %v, want %v", fresh.Comm, want)
	}
}

func TestAdjustIsolatedNewVertexGetsSingleton(t *testing.T) {
	g, _ := plantedGraph(19, 200, 25)
	p := Detect(g, Config{})
	before := p.NumComms
	nv := graph.VertexID(g.Cap())
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddVertex, U: nv}})
	AdjustDetailed(g, p, Config{}, applied)
	if p.Comm[nv] < 0 {
		t.Fatal("isolated new vertex unassigned")
	}
	if p.NumComms != before+1 {
		t.Fatalf("NumComms %d, want %d", p.NumComms, before+1)
	}
}
