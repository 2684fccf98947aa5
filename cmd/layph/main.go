// Command layph runs an algorithm incrementally over a graph, either
// replaying random update batches (the default mode) or serving a
// continuous update stream through the micro-batching pipeline (`layph
// serve`).
//
// Usage:
//
//	layph -preset UK -scale 0.25 -algo sssp -batches 5 -batchsize 5000
//	layph -graph web.el -algo pagerank -system ingress
//	layph serve -preset UK -scale 0.05 -algo sssp -rand 20000
//	graphgen ... | layph serve -graph web.el -algo sssp -input -
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"layph/internal/algo"
	"layph/internal/bench"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/shard"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	runMain(os.Args[1:])
}

// engineFlags are the graph/workload/engine selection flags shared by
// the replay and serve modes.
type engineFlags struct {
	graphPath, preset, algoName, system string
	scale                               float64
	source                              uint
	threads                             int
	shards                              int
	// relayer is serve's -relayer, validated here with the engine it needs.
	relayer bool
}

func registerEngineFlags(fs *flag.FlagSet) *engineFlags {
	ef := &engineFlags{}
	fs.StringVar(&ef.graphPath, "graph", "", "edge-list file (overrides -preset)")
	fs.StringVar(&ef.preset, "preset", "UK", "generated preset: UK, IT, SK, WB")
	fs.Float64Var(&ef.scale, "scale", 0.25, "preset scale factor")
	fs.StringVar(&ef.algoName, "algo", "sssp", "sssp | bfs | cc | pagerank | php")
	fs.StringVar(&ef.system, "system", "layph", "layph | layph-norepl | ingress | kickstarter | risgraph | graphbolt | dzig | restart")
	fs.UintVar(&ef.source, "source", 0, "source vertex for sssp/bfs/php")
	fs.IntVar(&ef.threads, "threads", 0, "size of Layph's subgraph pool (0 = GOMAXPROCS); every other engine, and each shard, runs sequentially")
	fs.IntVar(&ef.shards, "shards", 0, "community-aware shard count (0 = unsharded; >1 overrides -system)")
	return ef
}

// algorithms maps each -algo value to its constructor.
var algorithms = map[string]func(source graph.VertexID) algo.Algorithm{
	"sssp":     func(s graph.VertexID) algo.Algorithm { return algo.NewSSSP(s) },
	"bfs":      func(s graph.VertexID) algo.Algorithm { return algo.NewBFS(s) },
	"cc":       func(graph.VertexID) algo.Algorithm { return algo.NewCC() },
	"pagerank": func(graph.VertexID) algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) },
	"php":      func(s graph.VertexID) algo.Algorithm { return algo.NewPHP(s, 0.8, 1e-6) },
}

// systems maps each -system value to the algorithm schemes it runs:
// KickStarter and RisGraph are min-only, GraphBolt and DZiG sum-only.
var systems = map[bench.SystemKind]struct{ min, sum bool }{
	bench.Layph:       {true, true},
	bench.LayphNoRepl: {true, true},
	bench.Ingress:     {true, true},
	bench.Restart:     {true, true},
	bench.KickStarter: {true, false},
	bench.RisGraph:    {true, false},
	bench.GraphBolt:   {false, true},
	bench.DZiG:        {false, true},
}

// validate rejects flag values the engines cannot run, before any graph is
// loaded: an unknown -algo, -system or -preset, a system that does not
// support the algorithm's scheme, and -relayer on an engine that cannot
// re-detect communities.
func (ef *engineFlags) validate() error {
	mk, ok := algorithms[ef.algoName]
	if !ok {
		return fmt.Errorf("unknown -algo %q (want one of: %s)", ef.algoName, oneOf(slices.Sorted(maps.Keys(algorithms))))
	}
	if ef.graphPath == "" && !slices.Contains(gen.AllPresets, gen.Preset(ef.preset)) {
		return fmt.Errorf("unknown -preset %q (want one of: %s)", ef.preset, oneOf(gen.AllPresets))
	}
	kind := bench.SystemKind(ef.system)
	sys, ok := systems[kind]
	if !ok {
		return fmt.Errorf("unknown -system %q (want one of: %s)", ef.system, oneOf(slices.Sorted(maps.Keys(systems))))
	}
	if ef.relayer && (ef.shards > 1 || kind != bench.Layph && kind != bench.LayphNoRepl) {
		return fmt.Errorf("-relayer requires -system layph or layph-norepl, unsharded")
	}
	if ef.shards > 1 {
		return nil // -shards overrides -system
	}
	if idem := mk(0).Semiring().Idempotent(); idem && !sys.min || !idem && !sys.sum {
		scheme := "sum"
		if idem {
			scheme = "min"
		}
		return fmt.Errorf("-system %s does not run %s-scheme algorithms such as -algo %s", ef.system, scheme, ef.algoName)
	}
	return nil
}

// oneOf lists a flag's valid values for an error message.
func oneOf[S ~string](vals []S) string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = string(v)
	}
	return strings.Join(names, ", ")
}

// mustValidate exits with status 2 on a flag value validate rejects.
func (ef *engineFlags) mustValidate() {
	if err := ef.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// build loads the selected graph, prints its stats, and constructs the
// selected engine over it (running the initial batch computation).
func (ef *engineFlags) build() (*graph.Graph, inc.System, *core.Layph) {
	g := ef.loadGraph()
	sys, layered := ef.buildOn(g)
	return g, sys, layered
}

// loadGraph loads the selected graph and prints its stats.
func (ef *engineFlags) loadGraph() *graph.Graph {
	g, err := loadGraph(ef.graphPath, ef.preset, ef.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("graph: %s\n", graph.ComputeStats(g))
	return g
}

// buildOn constructs the selected engine over an existing graph (running
// the initial batch computation) — used by the durable serve path, where
// the graph may come from a recovered checkpoint instead of -graph.
func (ef *engineFlags) buildOn(g *graph.Graph) (inc.System, *core.Layph) {
	mk := makeAlgo(ef.algoName, graph.VertexID(ef.source))
	if ef.shards > 1 {
		return shard.New(g, mk(), shard.Options{Shards: ef.shards}), nil
	}
	return bench.Build(bench.SystemKind(ef.system), g, mk, ef.threads)
}

// runMain is the original replay mode: pre-sized random batches, one
// Update per batch, per-batch statistics.
func runMain(args []string) {
	fs := flag.NewFlagSet("layph", flag.ExitOnError)
	ef := registerEngineFlags(fs)
	var (
		batches   = fs.Int("batches", 5, "number of update batches")
		batchSize = fs.Int("batchsize", 5000, "|dG| per batch")
		seed      = fs.Int64("seed", 42, "update stream seed")
	)
	fs.Parse(args)
	ef.mustValidate()

	g, sys, layered := ef.build()
	if layered != nil {
		st := layered.OfflineStats
		fmt.Printf("offline: build=%.3fs (detect=%.3fs) initial=%.3fs subgraphs=%d proxies=%d shortcuts=%d\n",
			st.BuildSeconds, st.DetectSeconds, st.InitialSeconds, st.DenseSubgraphs, st.Proxies, st.ShortcutCount)
		upV, upE := layered.UpperLayerSize()
		fmt.Printf("skeleton: %d vertices, %d edges (graph: %d / %d)\n",
			upV, upE, g.NumVertices(), g.NumEdges())
	}

	genr := delta.NewGenerator(*seed)
	for i := 0; i < *batches; i++ {
		batch := genr.EdgeBatch(g, *batchSize, true)
		applied := delta.Apply(g, batch)
		st := sys.Update(applied)
		fmt.Printf("batch %2d: %8v  activations=%-10d rounds=%-4d resets=%d\n",
			i+1, st.Duration.Round(1000), st.Activations, st.Rounds, st.Resets)
		if layered != nil {
			fmt.Printf("          phases: %s\n", layered.LastPhases)
		}
	}
}

// makeAlgo returns a factory for the named workload (systems must not
// share algorithm instances); validate has checked the name.
func makeAlgo(name string, source graph.VertexID) bench.AlgoMaker {
	return func() algo.Algorithm { return algorithms[name](source) }
}

func loadGraph(path, preset string, scale float64) (*graph.Graph, error) {
	if path == "" {
		return gen.Build(gen.Preset(preset), scale), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}
