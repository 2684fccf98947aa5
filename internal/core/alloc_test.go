package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

// allocWorkload builds a community graph plus a pair of inverse batches:
// addB inserts fresh edges, delB removes exactly those edges. Applying
// add+update then del+update returns the graph to its original edge set,
// so the cycle can repeat indefinitely — a steady-state incremental
// workload with no drift in graph size.
func allocWorkload(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch) {
	g := allocGraph(vertices)
	addB := make(delta.Batch, 0, batch)
	delB := make(delta.Batch, 0, batch)
	// Deterministic fresh edges: stride enumeration. Every (u, u+d) pair
	// with a fixed stride d is distinct across strides, so pairs never
	// repeat and the scan terminates as soon as `batch` non-edges are
	// found. Large strides cross community boundaries.
	n := graph.VertexID(vertices)
outer:
	for d := n / 3; d > 0; d-- {
		for u := graph.VertexID(0); u < n; u++ {
			v := (u + d) % n
			if _, ok := g.HasEdge(u, v); ok {
				continue
			}
			w := 1 + float64((u+v)%5)
			addB = append(addB, delta.Update{Kind: delta.AddEdge, U: u, V: v, W: w})
			delB = append(delB, delta.Update{Kind: delta.DelEdge, U: u, V: v})
			if len(addB) == batch {
				break outer
			}
		}
	}
	return g, addB, delB
}

func allocGraph(vertices int) *graph.Graph {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices:      vertices,
		MeanCommunity: 40,
		IntraDegree:   8,
		InterDegree:   0.3,
		Weighted:      true,
		Seed:          7,
	})
	return g
}

// spreadWorkload is allocWorkload with uniformly random endpoints: nearly
// every added edge crosses communities, so the cycle flips roles in most of
// the subgraphs it enters.
func spreadWorkload(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch) {
	g := allocGraph(vertices)
	var addB, delB delta.Batch
	rng := rand.New(rand.NewSource(11))
	seen := map[[2]graph.VertexID]bool{}
	for len(addB) < batch {
		u, v := graph.VertexID(rng.Intn(vertices)), graph.VertexID(rng.Intn(vertices))
		if _, ok := g.HasEdge(u, v); ok || u == v || seen[[2]graph.VertexID{u, v}] {
			continue
		}
		seen[[2]graph.VertexID{u, v}] = true
		addB = append(addB, delta.Update{Kind: delta.AddEdge, U: u, V: v, W: 1 + 9*rng.Float64()})
		delB = append(delB, delta.Update{Kind: delta.DelEdge, U: u, V: v})
	}
	return g, addB, delB
}

// leafWorkload removes, then restores, the shortest-path dependency edge of
// `batch` leaves of the SSSP tree from vertex 0, lowest IDs first. Each leaf
// resets alone, is re-seeded from its in-neighbours and settles back, and
// nothing downstream depends on it: the cycle runs the ⊥ walk and the
// local, skeleton and assignment phases over a footprint that is the same
// at every graph size, so whatever cost still grows with the graph is
// per-batch overhead.
func leafWorkload(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch) {
	g := allocGraph(vertices)
	parent := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{TrackParents: true}).Parent
	hasChild := make([]bool, len(parent))
	for _, p := range parent {
		if p != engine.NoParent {
			hasChild[p] = true
		}
	}
	var delB, addB delta.Batch
	for v, p := range parent {
		if p == engine.NoParent || hasChild[v] || len(delB) == batch {
			continue
		}
		w, _ := g.HasEdge(p, graph.VertexID(v))
		delB = append(delB, delta.Update{Kind: delta.DelEdge, U: p, V: graph.VertexID(v)})
		addB = append(addB, delta.Update{Kind: delta.AddEdge, U: p, V: graph.VertexID(v), W: w})
	}
	return g, delB, addB
}

// cycleOnce applies the add batch, updates, applies the inverse delete
// batch, and updates again — one steady-state round trip. Returns the F
// applications the two updates spent.
func cycleOnce(l *Layph, g *graph.Graph, addB, delB delta.Batch) int64 {
	acts := l.Update(delta.Apply(g, addB)).Activations
	return acts + l.Update(delta.Apply(g, delB)).Activations
}

// steadyStateAllocs measures the allocation count of one warm add+del
// allocWorkload cycle on a community graph with `vertices` vertices.
func steadyStateAllocs(a algo.Algorithm, vertices, batch int) float64 {
	g, addB, delB := allocWorkload(vertices, batch)
	l := New(g, a, Options{Workers: 1})
	// Warm the scratch buffers: the first cycles grow sets, runners and
	// proxy capacity to their steady size.
	for i := 0; i < 3; i++ {
		cycleOnce(l, g, addB, delB)
	}
	return testing.AllocsPerRun(5, func() {
		cycleOnce(l, g, addB, delB)
	})
}

// cycleCost is the measured cost of one warm update cycle.
type cycleCost struct {
	bytes, allocs float64       // heap bytes and allocations, mean of the runs
	best          time.Duration // fastest run
}

// measureCycles warms every cycle up, then runs them in turn `runs` times
// and records each one's heap traffic and fastest wall time. Interleaving
// the cycles exposes them to the same machine load.
func measureCycles(cycles []func(), runs int) []cycleCost {
	// Warm the scratch buffers: the first cycles grow sets, runners and
	// proxy capacity to their steady size.
	for _, cycle := range cycles {
		for i := 0; i < 3; i++ {
			cycle()
		}
	}
	costs := make([]cycleCost, len(cycles))
	for i := range costs {
		costs[i].best = time.Duration(math.MaxInt64)
	}
	runtime.GC()
	var before, after runtime.MemStats
	for r := 0; r < runs; r++ {
		for i, cycle := range cycles {
			runtime.ReadMemStats(&before)
			start := time.Now()
			cycle()
			costs[i].best = min(costs[i].best, time.Since(start))
			runtime.ReadMemStats(&after)
			costs[i].bytes += float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
			costs[i].allocs += float64(after.Mallocs-before.Mallocs) / float64(runs)
		}
	}
	return costs
}

// steadyStateCycle builds a fresh engine on a community graph with
// `vertices` vertices — Layph, or the Ingress kernel — and returns one
// leafWorkload cycle on it.
func steadyStateCycle(a algo.Algorithm, kernel bool, vertices, batch int) func() {
	g, delB, addB := leafWorkload(vertices, batch)
	var update func(*delta.Applied)
	if kernel {
		k := inc.NewKernel(g, a)
		update = func(ap *delta.Applied) { k.Update(ap) }
	} else {
		l := New(g, a, Options{Workers: 1})
		update = func(ap *delta.Applied) { l.Update(ap) }
	}
	return func() {
		update(delta.Apply(g, delB))
		update(delta.Apply(g, addB))
	}
}

// TestUpdateSteadyStateAllocs asserts that a warm incremental batch costs
// in proportion to its touched footprint, not to the graph, with two
// workloads.
//
// The leafWorkload batch runs on graphs of n, 4n and 16n vertices, and the
// heap bytes per cycle at 16n must stay within 1.5x of those at n — one
// reintroduced n-sized make, copy or runner set-up per batch is 16x at 16n
// and fails loudly. The min-scheme engines (Layph and Ingress SSSP) must
// also keep their fastest cycle at 16n within 2x of that at n; the
// sum-scheme Layph path still scans and snapshots its state vectors, which
// costs time but no allocation.
//
// The allocWorkload batch adds and removes cross-community edges, so it
// runs the added-edge offers and the role flips the leaf batch does not
// reach. Its added edges join vertices n/3 apart, so the SSSP states a
// cycle changes grow with the graph (about 2k at n, 11k at 4n, 28k at
// 16n), and it bounds the allocation count only: at 4n it must stay within
// 2x of that at n, which any per-vertex allocation on the offer or flip
// path breaks.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("building graphs of 16n vertices is slow in -short CI lanes")
	}
	const (
		small = 4000
		batch = 200
	)
	for _, tc := range []struct {
		name   string
		mk     func() algo.Algorithm
		kernel bool
		timed  bool
	}{
		{"SSSP", func() algo.Algorithm { return algo.NewSSSP(0) }, false, true},
		{"PageRank", func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) }, false, false},
		{"IngressSSSP", func() algo.Algorithm { return algo.NewSSSP(0) }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scales := []int{1, 4, 16}
			var cycles []func()
			for _, scale := range scales {
				cycles = append(cycles, steadyStateCycle(tc.mk(), tc.kernel, scale*small, batch))
			}
			costs := measureCycles(cycles, 5)
			for i, c := range costs {
				t.Logf("n=%d: %.0f B, %.0f allocs, %v per cycle", scales[i]*small, c.bytes, c.allocs, c.best)
			}
			base, big := costs[0], costs[2]
			if big.bytes > 1.5*base.bytes {
				t.Errorf("heap bytes per cycle scale with graph size: %.0f at n=%d vs %.0f at n=%d", big.bytes, 16*small, base.bytes, small)
			}
			if tc.timed && !raceEnabled && big.best > 2*base.best {
				t.Errorf("cycle time scales with graph size: %v at n=%d vs %v at n=%d", big.best, 16*small, base.best, small)
			}
			if tc.kernel {
				return
			}
			at := steadyStateAllocs(tc.mk(), small, batch)
			ab := steadyStateAllocs(tc.mk(), 4*small, batch)
			t.Logf("allocWorkload: %.0f allocs/cycle at n=%d, %.0f at n=%d (ratio %.2f)", at, small, ab, 4*small, ab/at)
			if ab > 2*at+1000 {
				t.Errorf("allocations scale with graph size (%.0f at n=%d vs %.0f at n=%d): steady-state hot path regressed to per-vertex allocation",
					ab, 4*small, at, small)
			}
		})
	}
}

// BenchmarkUpdate measures the incremental-update hot path end to end
// (apply inverse batches + Update) with allocation reporting; run with
// -benchmem to track bytes/op and allocs/op across layout changes:
//
//	go test ./internal/core -bench BenchmarkUpdate -benchmem
//
// Each cycle case also reports acts/op, the F applications (summed
// Stats.Activations) of one cycle, so a change that trades work for
// exactness shows its price beside ns/op. The spread cases draw uniformly
// random endpoints, so most batches flip roles across the subgraphs they
// enter. The CC case runs the zero-weight label ties through the
// shortcut-mapped dependency parents. The grow case adds one vertex and one
// edge to it per batch on the benchmark's UK ×1 graph, whose layout has
// proxies, so every batch moves the proxy segment past the grown ID space.
func BenchmarkUpdate(b *testing.B) {
	b.Run("SSSP/grow", func(b *testing.B) {
		g := gen.Build(gen.PresetUK, 1)
		l := New(g, algo.NewSSSP(0), Options{Workers: 1})
		if l.OfflineStats.Proxies == 0 {
			b.Fatal("no proxies to move on this layout")
		}
		grow := func() {
			v := graph.VertexID(g.Cap())
			l.Update(delta.Apply(g, delta.Batch{{Kind: delta.AddVertex, U: v}, {Kind: delta.AddEdge, U: 1, V: v, W: 1}}))
		}
		grow() // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			grow()
		}
	})
	for _, name := range []string{"SSSP", "PageRank", "CC"} {
		run := func(label string, workload func(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch), batch int) {
			b.Run(fmt.Sprintf("%s/%sbatch=%d", name, label, batch), func(b *testing.B) {
				g, addB, delB := workload(8000, batch)
				var a algo.Algorithm
				switch name {
				case "SSSP":
					a = algo.NewSSSP(0)
				case "PageRank":
					a = algo.NewPageRank(0.85, 1e-6)
				default:
					a = algo.NewCC()
				}
				l := New(g, a, Options{Workers: 1})
				cycleOnce(l, g, addB, delB) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				var acts int64
				for i := 0; i < b.N; i++ {
					acts += cycleOnce(l, g, addB, delB)
				}
				b.ReportMetric(float64(acts)/float64(b.N), "acts/op")
			})
		}
		if name == "CC" {
			run("", allocWorkload, 1000)
			continue
		}
		for _, batch := range []int{100, 1000} {
			run("", allocWorkload, batch)
		}
		run("spread/", spreadWorkload, 1000)
	}
}

// BenchmarkNew measures construction — detection, layering and the initial
// run — on the benchmark's UK ×1 graph under SSSP and PageRank; run with
// -benchmem to track the bytes a build allocates:
//
//	go test ./internal/core -run '^$' -bench BenchmarkNew -benchmem
//
// initial-s/op is the initial run's share (OfflineStats.InitialSeconds).
func BenchmarkNew(b *testing.B) {
	g := gen.Build(gen.PresetUK, 1)
	for _, mk := range []func() algo.Algorithm{
		func() algo.Algorithm { return algo.NewSSSP(0) },
		func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) },
	} {
		b.Run(mk().Name(), func(b *testing.B) {
			initial := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				initial += New(g, mk(), Options{Workers: 1}).OfflineStats.InitialSeconds
			}
			b.ReportMetric(initial/float64(b.N), "initial-s/op")
		})
	}
}
