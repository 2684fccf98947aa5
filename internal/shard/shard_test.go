package shard

import (
	"fmt"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/graph"
	"layph/internal/inc"
)

// factories returns one NamedFactory per shard count; each builds an
// independent sharded group over its own graph clone.
func factories(counts ...int) []enginetest.NamedFactory {
	var out []enginetest.NamedFactory
	for _, k := range counts {
		out = append(out, enginetest.NamedFactory{
			Name: fmt.Sprintf("sharded-%d", k),
			New: func(g *graph.Graph, a algo.Algorithm) inc.System {
				return New(g, a, Options{Shards: k})
			},
		})
	}
	return out
}

// TestShardedDifferential runs every workload through the cross-engine
// differential fuzzer with Shards in {1, 2, 4}: after each random batch,
// each shard count must match a from-scratch restart on the updated graph
// (exactly for min-semiring workloads, within tolerance otherwise).
func TestShardedDifferential(t *testing.T) {
	cfg := enginetest.DefaultDifferentialConfig()
	if testing.Short() {
		cfg = enginetest.ShortDifferentialConfig()
	}
	engines := factories(1, 2, 4)
	for name, mk := range enginetest.AllAlgorithms() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			enginetest.RunDifferential(t, engines, mk, cfg)
		})
	}
}

// TestShardedChurny is the acceptance stream: ~10k seeded edge and vertex
// updates in churny batches, checked against the restart oracle after
// every batch for each shard count. Under -short the stream is trimmed so
// the race-detector job stays within budget.
func TestShardedChurny(t *testing.T) {
	cfg := enginetest.DifferentialConfig{
		Seeds:       []int64{42},
		Vertices:    500,
		Batches:     25,
		BatchSize:   400,
		AddVertices: 6,
		DelVertices: 5,
		Atol:        1e-6,
		Weighted:    true,
	}
	if testing.Short() {
		cfg.Batches = 5
		cfg.BatchSize = 100
	}
	engines := factories(1, 2, 4)
	for _, name := range []string{"sssp", "pagerank"} {
		mk := enginetest.AllAlgorithms()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			enginetest.RunDifferential(t, engines, mk, cfg)
		})
	}
}

// ring builds a weighted directed cycle 0→1→…→n-1→0 plus a chord web so
// communities are non-trivial.
func ring(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
		if v%3 == 0 {
			g.AddEdge(graph.VertexID(v), graph.VertexID((v+5)%n), 2.5)
		}
	}
	return g
}

// check asserts a group's live states match a batch restart on g.
func check(t *testing.T, g *graph.Graph, gr *Group, a algo.Algorithm, msg string) {
	t.Helper()
	want := engine.RunBatch(g, a, engine.Options{})
	got := gr.States()
	ok := true
	g.Vertices(func(v graph.VertexID) {
		if ok && !algo.StatesClose(got[v:v+1], want.X[v:v+1], 1e-6) {
			ok = false
			t.Errorf("%s: vertex %d: got %v want %v", msg, v, got[v], want.X[v])
		}
	})
}

// TestRouterAdversarial drives one group through the batch shapes a shard
// router must not mishandle: edges landing on brand-new vertices beyond
// the current capacity, cross-shard inserts and deletes of the same edges,
// a batch that nets out to nothing, and deletion of a boundary vertex.
func TestRouterAdversarial(t *testing.T) {
	for _, mkName := range []string{"sssp", "pagerank"} {
		mk := enginetest.AllAlgorithms()[mkName]
		t.Run(mkName, func(t *testing.T) {
			g := ring(60)
			gr := New(g, mk(), Options{Shards: 3})
			check(t, g, gr, mk(), "initial")

			steps := []struct {
				name  string
				batch delta.Batch
			}{
				{"unknown-vertices", delta.Batch{
					// Edge endpoints far past the current capacity: the graph
					// grows, the router must assign owners to every implied
					// intermediate vertex.
					{Kind: delta.AddVertex, U: 75},
					{Kind: delta.AddEdge, U: 10, V: 75, W: 0.5},
					{Kind: delta.AddEdge, U: 75, V: 82, W: 0.25},
				}},
				{"cross-shard-churn", func() delta.Batch {
					// Delete and re-insert edges that cross shard boundaries,
					// plus fresh cross-shard chords.
					var b delta.Batch
					for v := 0; v < 60; v += 7 {
						u, w := graph.VertexID(v), graph.VertexID((v+1)%60)
						if gr.Owner(u) != gr.Owner(w) {
							b = append(b, delta.Update{Kind: delta.DelEdge, U: u, V: w})
							b = append(b, delta.Update{Kind: delta.AddEdge, U: u, V: w, W: 3})
						}
					}
					b = append(b,
						delta.Update{Kind: delta.AddEdge, U: 2, V: 41, W: 0.1},
						delta.Update{Kind: delta.AddEdge, U: 41, V: 2, W: 0.1},
					)
					return b
				}()},
				{"net-nothing", delta.Batch{
					{Kind: delta.AddEdge, U: 5, V: 50, W: 9},
					{Kind: delta.DelEdge, U: 5, V: 50},
				}},
				{"boundary-vertex-delete", func() delta.Batch {
					// Remove a vertex that is mirrored somewhere (any vertex
					// with a cross-shard out-edge qualifies on this ring).
					for v := 1; v < 60; v++ {
						u, w := graph.VertexID(v), graph.VertexID((v+1)%60)
						if gr.Owner(u) != gr.Owner(w) {
							return delta.Batch{{Kind: delta.DelVertex, U: u}}
						}
					}
					return nil
				}()},
			}
			for _, st := range steps {
				applied := delta.Apply(g, st.batch)
				gr.Update(applied)
				check(t, g, gr, mk(), st.name)
			}
		})
	}
}

// TestEmptyShards asks for more shards than the graph has communities:
// some shards own nothing, and the group must still match the restart
// oracle through updates.
func TestEmptyShards(t *testing.T) {
	g := graph.New(8)
	for v := 0; v < 7; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	mk := enginetest.AllAlgorithms()["sssp"]
	gr := New(g, mk(), Options{Shards: 8})
	check(t, g, gr, mk(), "initial")

	empty := 0
	for _, in := range gr.ShardInfos() {
		if in.OwnedVertices == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected at least one empty shard with 8 shards over 8 vertices, infos=%+v", gr.ShardInfos())
	}

	applied := delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 3, V: 4},
		{Kind: delta.AddEdge, U: 3, V: 4, W: 7},
		{Kind: delta.AddEdge, U: 0, V: 7, W: 0.5},
	})
	gr.Update(applied)
	check(t, g, gr, mk(), "after update")
}

// TestOwnerAndInfos checks the partition invariants: every live vertex
// has exactly one owner in range, the per-shard summaries account for all
// live vertices and all edges, and Owner is total (out-of-range ids map
// to -1).
func TestOwnerAndInfos(t *testing.T) {
	g := ring(50)
	gr := New(g, algo.NewSSSP(0), Options{Shards: 4})

	live, owned, edges := 0, 0, 0
	g.Vertices(func(v graph.VertexID) {
		live++
		if o := gr.Owner(v); o < 0 || o >= gr.NumShards() {
			t.Fatalf("vertex %d: owner %d out of range", v, o)
		}
	})
	for _, in := range gr.ShardInfos() {
		owned += in.OwnedVertices
		edges += in.Edges
	}
	if owned != live {
		t.Fatalf("shard infos account for %d owned vertices, want %d live", owned, live)
	}
	if edges != g.NumEdges() {
		t.Fatalf("shard infos account for %d edges, want %d", edges, g.NumEdges())
	}
	if got := gr.Owner(graph.VertexID(10_000)); got != -1 {
		t.Fatalf("Owner(out of range) = %d, want -1", got)
	}
	if gr.Name() != "sharded" {
		t.Fatalf("Name() = %q", gr.Name())
	}
}
