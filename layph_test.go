package layph

import (
	"math"
	"slices"
	"strings"
	"testing"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/enginetest"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

func demoGraph() *Graph {
	return GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 400, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 7,
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := demoGraph()
	sys := NewLayph(g, SSSP(0), Config{Threads: 2})
	gen := NewBatchGenerator(1)
	for i := 0; i < 3; i++ {
		batch := gen.EdgeBatch(g, 40, true)
		applied := ApplyBatch(g, batch)
		st := sys.Update(applied)
		if st.Duration <= 0 {
			t.Fatal("no duration recorded")
		}
		want := Run(g, SSSP(0), 2)
		if !StatesClose(sys.States()[:g.Cap()], want, 1e-6) {
			t.Fatalf("batch %d: incremental != restart", i)
		}
	}
}

func TestAllSystemConstructors(t *testing.T) {
	g := demoGraph()
	minSystems := []System{
		NewLayph(g.Clone(), SSSP(0), Config{}),
		NewIngress(g.Clone(), SSSP(0), 2),
		NewKickStarter(g.Clone(), SSSP(0)),
		NewRisGraph(g.Clone(), SSSP(0)),
	}
	sumSystems := []System{
		NewLayph(g.Clone(), PageRank(0.85, 1e-8), Config{}),
		NewIngress(g.Clone(), PageRank(0.85, 1e-8), 2),
		NewGraphBolt(g.Clone(), PageRank(0.85, 1e-8)),
		NewDZiG(g.Clone(), PageRank(0.85, 1e-8)),
	}
	names := map[string]bool{}
	for _, s := range append(minSystems, sumSystems...) {
		if len(s.States()) < g.Cap() {
			t.Fatalf("%s: short state vector", s.Name())
		}
		names[s.Name()] = true
	}
	for _, want := range []string{"layph", "ingress", "kickstarter", "risgraph", "graphbolt", "dzig"} {
		if !names[want] {
			t.Fatalf("missing system %q (got %v)", want, names)
		}
	}
}

// differentialConfig sizes the cross-engine fuzzer for the CI budget:
// full size normally, trimmed under -short (the race-detector job).
func differentialConfig() enginetest.DifferentialConfig {
	if testing.Short() {
		return enginetest.ShortDifferentialConfig()
	}
	return enginetest.DefaultDifferentialConfig()
}

// layphFactory builds Layph at a fixed thread count for the fuzzer; the
// Threads=1 twin is the sequential determinism baseline, Threads=8
// exercises the parallel lower layer.
func layphFactory(threads int) enginetest.Factory {
	return func(g *graph.Graph, a algo.Algorithm) inc.System {
		return NewLayph(g, a, Config{Threads: threads})
	}
}

// TestDifferentialFuzzMin cross-checks Layph (sequential and parallel)
// against Restart and the min-scheme baselines (Ingress, KickStarter,
// RisGraph) on random add/del edge+vertex sequences, after every batch.
func TestDifferentialFuzzMin(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
		{Name: "ingress", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewIngress(g, a, 2) }},
		{Name: "kickstarter", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewKickStarter(g, a) }},
		{Name: "risgraph", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewRisGraph(g, a) }},
	}
	for name, mk := range enginetest.MinAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, differentialConfig())
		})
	}
}

// TestDifferentialFuzzSum is the sum-scheme counterpart: Layph vs Restart
// vs Ingress, GraphBolt and DZiG on PageRank/PHP.
func TestDifferentialFuzzSum(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
		{Name: "ingress", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewIngress(g, a, 2) }},
		{Name: "graphbolt", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewGraphBolt(g, a) }},
		{Name: "dzig", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewDZiG(g, a) }},
	}
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, differentialConfig())
		})
	}
}

// minBaselines are the min-scheme comparators the CC runs below drive next
// to Layph. CC's zero-weight label cycles are where value-matched
// dependency parents go unsupported; every engine here takes its parents
// from the fixpoint that set each value.
func minBaselines() []enginetest.NamedFactory {
	return []enginetest.NamedFactory{
		{Name: "ingress", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewIngress(g, a, 2) }},
		{Name: "kickstarter", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewKickStarter(g, a) }},
		{Name: "risgraph", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewRisGraph(g, a) }},
	}
}

// TestDifferentialFuzzChurn drives Layph (sequential and parallel) through
// the vertex-churn schedule: heavy vertex churn every batch tombstones
// vertices whose rows and dependency subtrees are live and makes Layph
// rewire its entry proxies around them. The cc run adds the min baselines
// on a seed where zero-weight label cycles once left parents without
// support. States are cross-checked against the restart oracle after every
// batch.
func TestDifferentialFuzzChurn(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
	}
	algos := map[string]enginetest.AlgoMaker{
		"sssp":     enginetest.MinAlgorithms()["sssp"],
		"pagerank": enginetest.SumAlgorithms()["pagerank"],
	}
	for name, mk := range algos {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, enginetest.ChurnDifferentialConfig())
		})
	}
	t.Run("cc", func(t *testing.T) {
		cfg := enginetest.ChurnDifferentialConfig()
		cfg.Seeds, cfg.Batches = []int64{118}, 12
		enginetest.RunDifferential(t, append(engines, minBaselines()...), enginetest.MinAlgorithms()["cc"], cfg)
	})
}

// relanding is Layph with the relayer's drift repair made deterministic
// for the fuzzer: every third batch it re-detects on a clone of its graph,
// and it lands that partition after the next batch, so each landing also
// migrates around the vertices added and removed since its clone.
type relanding struct {
	*core.Layph
	g       *graph.Graph
	batches int
	land    func() inc.Stats
	count   *relandCount
}

// relandCount tallies the landings and membership moves of every relanding
// engine a test builds (RunDifferential drives them on one goroutine).
type relandCount struct{ landings, moves int64 }

func (r *relanding) Update(applied *delta.Applied) inc.Stats {
	st := r.Layph.Update(applied)
	if r.land != nil {
		ls := r.land()
		r.land = nil
		r.count.landings++
		r.count.moves += ls.MembershipMoves
	}
	if r.batches++; r.batches%3 == 0 {
		r.land = r.Redetect(r.g.Clone())
	}
	return st
}

// layphRelandFactory builds relanding engines at a fixed thread count.
func layphRelandFactory(threads int, count *relandCount) enginetest.Factory {
	return func(g *graph.Graph, a algo.Algorithm) inc.System {
		return &relanding{Layph: NewLayph(g, a, Config{Threads: threads}), g: g, count: count}
	}
}

// TestDifferentialFuzzDrift drives the community-migration churn schedule:
// every batch rewires a vertex cluster into a different community
// neighborhood, so a frozen layering drifts, while the relanding engines
// repair it with a landing every third batch. Relanding Layph (sequential
// and parallel) and frozen Layph are all checked against the restart
// oracle after every batch; the cc run adds the min baselines on the seeds
// where value-matched parents once made Layph diverge.
func TestDifferentialFuzzDrift(t *testing.T) {
	run := func(t *testing.T, extra []enginetest.NamedFactory, mk enginetest.AlgoMaker, cfg enginetest.DifferentialConfig) {
		var count relandCount
		engines := append([]enginetest.NamedFactory{
			{Name: "layph-reland-t1", New: layphRelandFactory(1, &count)},
			{Name: "layph-reland-t8", New: layphRelandFactory(8, &count)},
			{Name: "layph-frozen-t1", New: layphFactory(1)},
		}, extra...)
		enginetest.RunDifferential(t, engines, mk, cfg)
		t.Logf("%d landings, %d membership moves", count.landings, count.moves)
		if count.moves == 0 {
			t.Fatal("no landing moved a vertex")
		}
	}
	cfg := enginetest.DriftDifferentialConfig()
	if testing.Short() {
		cfg.Batches = 4
	}
	algos := map[string]enginetest.AlgoMaker{
		"sssp":     enginetest.MinAlgorithms()["sssp"],
		"pagerank": enginetest.SumAlgorithms()["pagerank"],
	}
	for name, mk := range algos {
		t.Run(name, func(t *testing.T) { run(t, nil, mk, cfg) })
	}
	t.Run("cc", func(t *testing.T) {
		cfg := enginetest.DriftDifferentialConfig()
		cfg.Seeds, cfg.Batches = []int64{101, 114, 123, 124, 129, 133, 141, 150}, 12
		run(t, minBaselines(), enginetest.MinAlgorithms()["cc"], cfg)
	})
}

// TestSumStatesIndependentOfThreads pins the determinism contract's sum
// half: every sum-semiring run, the initial one from m0 included, is the
// engine's sequential worklist, so a PageRank build and five edge batches
// on the UK preset give byte-identical states at Threads 1, 2 and 4.
func TestSumStatesIndependentOfThreads(t *testing.T) {
	run := func(threads int) []float64 {
		g := gen.Build(gen.PresetUK, 0.2)
		sys := NewLayph(g, PageRank(0.85, 1e-6), Config{Threads: threads})
		bg := NewBatchGenerator(3)
		for i := 0; i < 5; i++ {
			sys.Update(ApplyBatch(g, bg.EdgeBatch(g, 400, true)))
		}
		return append([]float64(nil), sys.States()[:g.Cap()]...)
	}
	want := run(1)
	for _, threads := range []int{2, 4} {
		got := run(threads)
		differ := 0
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("Threads %d: %d of %d states differ in their bits from Threads 1", threads, differ, len(want))
		}
	}
}

// TestMinStatesIndependentOfThreads pins the determinism contract's min
// half: every min run is the engine's sequential worklist and the
// subgraph tasks are merged in deterministic order, so SSSP, BFS and CC
// builds and five edge batches on the UK preset give byte-identical states
// and dependency parents at Threads 1, 2 and 4.
func TestMinStatesIndependentOfThreads(t *testing.T) {
	type result struct {
		x      []float64
		parent []VertexID
	}
	for _, a := range []Algorithm{SSSP(0), BFS(0), CC()} {
		run := func(threads int) result {
			g := gen.Build(gen.PresetUK, 0.2)
			sys := NewLayph(g, a, Config{Threads: threads})
			bg := NewBatchGenerator(3)
			for i := 0; i < 5; i++ {
				sys.Update(ApplyBatch(g, bg.EdgeBatch(g, 400, true)))
			}
			return result{slices.Clone(sys.States()), slices.Clone(sys.Parents())}
		}
		want := run(1)
		for _, threads := range []int{2, 4} {
			got := run(threads)
			if !slices.EqualFunc(got.x, want.x, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s Threads %d: states differ in their bits from Threads 1 (max %v)", a.Name(), threads, algo.MaxStateDiff(got.x, want.x))
			}
			if !slices.Equal(got.parent, want.parent) {
				t.Errorf("%s Threads %d: dependency parents differ from Threads 1", a.Name(), threads)
			}
		}
	}
}

func TestAlgorithmsExposed(t *testing.T) {
	for _, a := range []Algorithm{SSSP(0), BFS(0), PageRank(0.85, 1e-6), PHP(0, 0.8, 1e-6)} {
		if a.Name() == "" || a.Semiring() == nil {
			t.Fatalf("bad algorithm %T", a)
		}
	}
}

func TestReadEdgeListExposed(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2\n1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestManualBatch(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	sys := NewIngress(g, BFS(0), 1)
	applied := ApplyBatch(g, Batch{
		{Kind: AddEdge, U: 1, V: 2, W: 1},
	})
	sys.Update(applied)
	if sys.States()[2] != 2 {
		t.Fatalf("x2 = %v", sys.States()[2])
	}
	UndoBatch(g, applied)
	if _, ok := g.HasEdge(1, 2); ok {
		t.Fatal("undo failed")
	}
}
