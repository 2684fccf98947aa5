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

// TestAlignLongChurnBoundedComms pins id reclamation: a partition frozen
// under sustained edge and vertex churn loses members to removals (and
// gains none, as fresh vertices stay outliers until a landing), and a
// periodic re-detection aligned onto it — what a landing does — must make
// the id space dense again and keep it bounded by the vertex count.
func TestAlignLongChurnBoundedComms(t *testing.T) {
	g, _ := plantedGraph(31, 300, 25)
	p := Detect(g, Config{MaxSize: 60})
	genr := delta.NewGenerator(5)
	maxAfterAlign := 0
	for i := 0; i < 40; i++ {
		batch := genr.EdgeBatch(g, 40, false)
		batch = append(batch, genr.VertexBatch(g, 6, 6, 3, false)...)
		applied := delta.Apply(g, batch)
		for _, v := range applied.RemovedVertices {
			if int(v) < len(p.Comm) {
				p.Comm[v] = NoCommunity
			}
		}
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
	// The real assertion: churn emptied communities whose ids the frozen
	// partition kept; after the final alignment the id space must be dense
	// again.
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
