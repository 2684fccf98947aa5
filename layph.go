// Package layph is a from-scratch Go reproduction of "Layph: Making Change
// Propagation Constraint in Incremental Graph Processing by Layering Graph"
// (ICDE 2023).
//
// Layph accelerates incremental graph computation by splitting the graph
// into two layers: a small upper-layer skeleton (boundary vertices of dense
// subgraphs, outliers, and shortcuts that teleport messages across dense
// subgraphs) and a lower layer of disjoint dense subgraphs. When the graph
// changes, iterative computation is confined to the skeleton plus the few
// subgraphs actually touched by the update batch.
//
// The package exposes:
//
//   - the graph substrate (NewGraph, ReadEdgeList, generators),
//   - the four paper workloads in asynchronous accumulative form
//     (SSSP, BFS, PageRank, PHP),
//   - batch execution (Run — the "Restart" baseline),
//   - Layph itself (NewLayph) and the five baseline incremental engines the
//     paper compares against (NewIngress, NewKickStarter, NewRisGraph,
//     NewGraphBolt, NewDZiG), all behind the System interface,
//   - update-stream helpers (NewBatchGenerator, ApplyBatch),
//   - a continuous streaming pipeline (NewStream) that micro-batches a
//     live feed of unit updates, drives any System incrementally, and
//     serves consistent read snapshots between batches.
//
// Quick start:
//
//	g := layph.GenerateCommunityGraph(layph.CommunityGraphConfig{
//		Vertices: 10000, MeanCommunity: 40, IntraDegree: 8,
//		InterDegree: 0.3, Weighted: true, Seed: 1,
//	})
//	sys := layph.NewLayph(g, layph.SSSP(0), layph.Config{})
//	gen := layph.NewBatchGenerator(42)
//	batch := gen.EdgeBatch(g, 5000, true)
//	applied := layph.ApplyBatch(g, batch)
//	stats := sys.Update(applied)
//	fmt.Println(stats.Duration, stats.Activations, sys.States()[7])
package layph

import (
	"context"
	"io"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/graphbolt"
	"layph/internal/inc"
	"layph/internal/ingress"
	"layph/internal/kickstarter"
	"layph/internal/risgraph"
	"layph/internal/server"
	"layph/internal/stream"
)

// Graph is the mutable directed weighted graph all engines operate on.
type Graph = graph.Graph

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Algorithm is a vertex-centric computation in the paper's accumulative
// model (message generation F, aggregation G, initial states and messages).
type Algorithm = algo.Algorithm

// System is an incremental engine: construct on a graph (runs the batch
// computation), then alternate ApplyBatch and Update.
type System = inc.System

// Stats describes one incremental update run.
type Stats = inc.Stats

// Batch is an ordered sequence of unit graph updates (ΔG).
type Batch = delta.Batch

// Update is one unit update within a batch.
type Update = delta.Update

// Applied records the net effect of a batch on a graph.
type Applied = delta.Applied

// Update kinds for constructing batches by hand.
const (
	AddEdge   = delta.AddEdge
	DelEdge   = delta.DelEdge
	AddVertex = delta.AddVertex
	DelVertex = delta.DelVertex
)

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadEdgeList parses "u v [w]" edge-list text into a graph.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// CommunityGraphConfig parameterizes GenerateCommunityGraph.
type CommunityGraphConfig = gen.CommunityConfig

// GenerateCommunityGraph builds a deterministic synthetic graph with planted
// dense communities — the structure Layph exploits.
func GenerateCommunityGraph(cfg CommunityGraphConfig) *Graph {
	g, _ := gen.CommunityGraph(cfg)
	return g
}

// SSSP returns single-source shortest paths rooted at source.
func SSSP(source VertexID) Algorithm { return algo.NewSSSP(source) }

// BFS returns hop distance from source.
func BFS(source VertexID) Algorithm { return algo.NewBFS(source) }

// PageRank returns PageRank with damping d and tolerance tol (the paper
// uses d=0.85, tol=1e-6).
func PageRank(d, tol float64) Algorithm { return algo.NewPageRank(d, tol) }

// PHP returns penalized hitting probability from source with decay d.
func PHP(source VertexID, d, tol float64) Algorithm { return algo.NewPHP(source, d, tol) }

// CC returns connected-component labels by min-label propagation: each
// vertex converges to the smallest vertex id that reaches it (the weakly
// connected component label on graphs with symmetric edges). It runs on
// the same min-semiring machinery as SSSP/BFS, so every min-scheme engine
// supports it.
func CC() Algorithm { return algo.NewCC() }

// Run executes the algorithm on the graph from scratch and returns the
// converged states — the paper's "Restart" baseline. The run is the
// engine's sequential worklist: threads no longer changes anything and is
// kept only because the repository benchmark passes it; a change to the
// benchmark removes it.
func Run(g *Graph, a Algorithm, threads int) []float64 {
	return engine.RunBatch(g, a, engine.Options{}).X
}

// Config tunes Layph construction (zero value = paper defaults). The
// engine keeps the dense subgraphs it detects at construction frozen, as
// the paper does; a Stream's relayer (StreamConfig.Relayer) re-detects them
// under drift and lands the result on the live engine.
type Config struct {
	// Threads sizes the shared pool that refines independent touched
	// subgraphs concurrently (0 = GOMAXPROCS); Threads=1 runs strictly
	// sequentially. The upper-layer iteration, the initial computation
	// and every subgraph's local fixpoint are each one sequential
	// worklist in the engine, for min and sum semirings alike.
	//
	// Determinism contract: identical inputs produce byte-identical state
	// vectors, and for min-semiring algorithms (SSSP, BFS, CC)
	// byte-identical dependency parents, for every Threads value —
	// subgraph tasks are independent, each engine run is sequential, and
	// task results are merged in deterministic order.
	Threads int
	// DisableReplication turns vertex replication off (Figure 8 ablation).
	// The paper's other two parameters are fixed: the replication
	// threshold R is 3, and the community size cap K is ~0.1% of |V|,
	// clamped to [64, 4096].
	DisableReplication bool
}

// NewLayph builds the layered graph for g under a (offline phase), runs the
// initial batch computation, and returns the incremental engine.
func NewLayph(g *Graph, a Algorithm, cfg Config) *core.Layph {
	return core.New(g, a, core.Options{
		Workers:            cfg.Threads,
		DisableReplication: cfg.DisableReplication,
	})
}

// NewIngress returns the Ingress baseline (memoization-free for PageRank and
// PHP, memoization-path for SSSP and BFS) — the engine Layph extends. Its
// runs are sequential: threads no longer changes anything and is kept only
// because the repository benchmark passes it; a change to the benchmark
// removes it.
func NewIngress(g *Graph, a Algorithm, threads int) System {
	return ingress.New(g, a)
}

// NewKickStarter returns the KickStarter baseline (SSSP/BFS only), which
// runs sequentially.
func NewKickStarter(g *Graph, a Algorithm) System {
	return kickstarter.New(g, a)
}

// NewRisGraph returns the RisGraph baseline (SSSP/BFS only), which runs
// sequentially.
func NewRisGraph(g *Graph, a Algorithm) System {
	return risgraph.New(g, a)
}

// NewGraphBolt returns the GraphBolt baseline (PageRank/PHP only).
func NewGraphBolt(g *Graph, a Algorithm) System {
	return graphbolt.New(g, a, graphbolt.ModePull)
}

// NewDZiG returns the DZiG baseline (PageRank/PHP only).
func NewDZiG(g *Graph, a Algorithm) System {
	return graphbolt.New(g, a, graphbolt.ModeSparseAware)
}

// BatchGenerator produces seeded random update batches.
type BatchGenerator = delta.Generator

// NewBatchGenerator returns a seeded batch generator.
func NewBatchGenerator(seed int64) *BatchGenerator { return delta.NewGenerator(seed) }

// ApplyBatch mutates g according to the batch and returns the net changes to
// hand to System.Update.
func ApplyBatch(g *Graph, b Batch) *Applied { return delta.Apply(g, b) }

// UndoBatch reverses the effects recorded by ApplyBatch.
func UndoBatch(g *Graph, a *Applied) { delta.Undo(g, a) }

// StatesClose reports whether two state vectors agree within atol (infinite
// entries must match exactly); useful for validating incremental results
// against Run.
func StatesClose(a, b []float64, atol float64) bool { return algo.StatesClose(a, b, atol) }

// Stream is an ordered micro-batching ingestion pipeline feeding one
// incremental engine: Push unit updates from any goroutine, Query
// consistent snapshots between micro-batches, Drain/Close to flush.
type Stream = stream.Stream

// StreamConfig tunes micro-batching, backpressure and metrics of a Stream
// (zero value = defaults: 1024-update batches, 50ms window, blocking
// backpressure).
type StreamConfig = stream.Config

// StreamSnapshot is an immutable consistent view of the streamed state.
type StreamSnapshot = stream.Snapshot

// StreamMetrics summarizes stream counters and rolling rates.
type StreamMetrics = stream.Metrics

// RelayerConfig configures the re-layering drift controller of a Stream
// over Layph (StreamConfig.Relayer), the engine's only drift repair: Layph
// keeps its layering frozen, and decayed layering quality triggers a
// background re-detection that lands on the live engine at a batch boundary.
type RelayerConfig = stream.RelayerConfig

// RelayerMetrics reports the drift controller's state (StreamMetrics.Relayer
// and the /metrics "relayer" block).
type RelayerMetrics = stream.RelayerMetrics

// Backpressure policies for StreamConfig.Policy.
const (
	// BlockWhenFull makes Stream.Push wait for queue space (lossless).
	BlockWhenFull = stream.Block
	// DropWhenFull makes Stream.Push fail fast with ErrStreamQueueFull.
	DropWhenFull = stream.Drop
)

// Streaming sentinel errors (compare with errors.Is).
var (
	// ErrStreamClosed reports a Push/Drain on a closed Stream.
	ErrStreamClosed = stream.ErrClosed
	// ErrStreamQueueFull reports an update dropped under DropWhenFull.
	ErrStreamQueueFull = stream.ErrQueueFull
)

// NewStream starts a streaming pipeline over g driving sys (construct sys
// on g first, e.g. with NewLayph). After NewStream, mutate the graph only
// by pushing updates into the stream.
func NewStream(g *Graph, sys System, cfg StreamConfig) *Stream {
	return stream.New(g, sys, cfg)
}

// ParseUpdate parses one line of the text wire format used by `layph
// serve` ("a u v [w]", "d u v", "av u", "dv u").
func ParseUpdate(line string) (Update, error) { return delta.ParseUpdate(line) }

// ReadUpdates parses a whole text update stream into a Batch.
func ReadUpdates(r io.Reader) (Batch, error) { return delta.ReadUpdates(r) }

// WriteUpdates renders a batch in the text wire format.
func WriteUpdates(w io.Writer, b Batch) error { return delta.WriteUpdates(w, b) }

// Server is the HTTP/JSON daemon over a Stream: POST /push ingests
// update batches, GET /query reads point states and top-k from the
// current snapshot, GET /metrics and GET /healthz expose liveness and
// rolling throughput. See `layph serve -listen`.
type Server = server.Server

// ServerConfig tunes a Server (zero value = defaults: 127.0.0.1:8090,
// 8 MiB request bodies, 1024 vertices per query, top-k <= 100).
type ServerConfig = server.Config

// NewServer wraps st in an HTTP daemon without starting a listener; use
// its Handler for custom mux mounting, or Start/Shutdown directly.
func NewServer(st *Stream, cfg ServerConfig) *Server { return server.New(st, cfg) }

// Serve runs an HTTP daemon over st until ctx is cancelled, then shuts
// down gracefully: the stream drains (acknowledged pushes reach a final
// snapshot) before the listener stops. The stream is closed on return.
func Serve(ctx context.Context, st *Stream, cfg ServerConfig) error {
	srv := server.New(st, cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}
