// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation section (Section VI). Each runner generates the
// scaled dataset stand-in, replays identical update batches through the
// requested systems, and prints rows shaped like the paper's plots.
//
// Absolute numbers differ from the paper (different hardware, Go instead of
// C++, scaled datasets); the claims under test are the shapes: which system
// wins, by roughly what factor, and where the crossovers fall.
package bench

import (
	"fmt"
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
)

// SystemKind names one of the systems under comparison.
type SystemKind string

// The systems of the paper's evaluation.
const (
	Restart     SystemKind = "restart"
	KickStarter SystemKind = "kickstarter"
	RisGraph    SystemKind = "risgraph"
	GraphBolt   SystemKind = "graphbolt"
	DZiG        SystemKind = "dzig"
	Ingress     SystemKind = "ingress"
	Layph       SystemKind = "layph"
	// LayphNoRepl is Layph with vertex replication disabled (Figure 8).
	LayphNoRepl SystemKind = "layph-norepl"
)

// MinSystems and SumSystems mirror the paper's per-algorithm comparisons
// (KickStarter/RisGraph lack PageRank/PHP; GraphBolt/DZiG lack SSSP/BFS).
var (
	MinSystems = []SystemKind{Restart, KickStarter, RisGraph, Ingress, Layph}
	SumSystems = []SystemKind{Restart, GraphBolt, DZiG, Ingress, Layph}
)

// AlgoMaker builds a fresh algorithm instance (systems must not share).
type AlgoMaker func() algo.Algorithm

// Algorithms returns the four workloads keyed by the paper's names.
func Algorithms() map[string]AlgoMaker {
	return map[string]AlgoMaker{
		"SSSP": func() algo.Algorithm { return algo.NewSSSP(0) },
		"BFS":  func() algo.Algorithm { return algo.NewBFS(0) },
		"PR":   func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) },
		"PHP":  func() algo.Algorithm { return algo.NewPHP(0, 0.80, 1e-6) },
	}
}

// SystemsFor returns the comparison set for an algorithm name.
func SystemsFor(algoName string) []SystemKind {
	if algoName == "SSSP" || algoName == "BFS" {
		return MinSystems
	}
	return SumSystems
}

// Workload is a dataset plus a pre-generated batch sequence, replayable
// identically across systems.
type Workload struct {
	Name    string
	Graph   *graph.Graph
	Batches []delta.Batch
}

// NewWorkload builds the preset at the given scale and pre-generates
// nBatches random edge batches of batchSize updates each.
func NewWorkload(p gen.Preset, scale float64, nBatches, batchSize int, seed int64) *Workload {
	g := gen.Build(p, scale)
	w := &Workload{Name: string(p), Graph: g}
	w.Batches = makeBatches(g, nBatches, batchSize, false, seed)
	return w
}

// NewVertexWorkload builds the preset with vertex-update batches (the
// paper's 1,000 changed vertices: half added, half deleted, Figure 5e).
func NewVertexWorkload(p gen.Preset, scale float64, nBatches, perBatch int, seed int64) *Workload {
	g := gen.Build(p, scale)
	w := &Workload{Name: string(p) + "-vertex", Graph: g}
	clone := g.Clone()
	genr := delta.NewGenerator(seed)
	for i := 0; i < nBatches; i++ {
		b := genr.VertexBatch(clone, perBatch/2, perBatch/2, 4, true)
		w.Batches = append(w.Batches, b)
		delta.Apply(clone, b)
	}
	return w
}

func makeBatches(g *graph.Graph, n, size int, weighted bool, seed int64) []delta.Batch {
	clone := g.Clone()
	genr := delta.NewGenerator(seed)
	out := make([]delta.Batch, 0, n)
	for i := 0; i < n; i++ {
		b := genr.EdgeBatch(clone, size, true)
		out = append(out, b)
		delta.Apply(clone, b)
	}
	return out
}

// SystemResult aggregates one system's performance over a workload.
type SystemResult struct {
	System SystemKind
	// InitSeconds is construction + initial batch run (Layph: offline phase
	// included).
	InitSeconds float64
	// UpdateSeconds and Activations are totals over all batches.
	UpdateSeconds float64
	Activations   int64
	// PerBatchSeconds lists individual batch times (Fig 11b accumulation).
	PerBatchSeconds []float64
	// Layered carries Layph-only detail (nil otherwise).
	Layered *core.Layph
	// LastStats is the stats record of the final batch.
	LastStats inc.Stats
	// Stats aggregates every batch's record (durations and counters sum;
	// PoolUtilization is the duration-weighted mean).
	Stats inc.Stats
}

// restartSystem wraps batch recomputation behind the System interface.
type restartSystem struct {
	g  *graph.Graph
	mk AlgoMaker
	x  []float64
}

func (r *restartSystem) Name() string      { return string(Restart) }
func (r *restartSystem) States() []float64 { return r.x }
func (r *restartSystem) Update(*delta.Applied) inc.Stats {
	start := time.Now()
	res := engine.RunBatch(r.g, r.mk(), engine.Options{})
	r.x = res.X
	return inc.Stats{Activations: res.Activations, Rounds: res.Rounds, Duration: time.Since(start)}
}

// buildSystem constructs the engine over g (running its initial batch
// computation) and returns it with the Layph handle when applicable.
func buildSystem(kind SystemKind, g *graph.Graph, mk AlgoMaker, threads int) (inc.System, *core.Layph) {
	switch kind {
	case Restart:
		r := &restartSystem{g: g, mk: mk}
		res := engine.RunBatch(g, mk(), engine.Options{})
		r.x = res.X
		return r, nil
	case KickStarter:
		return kickstarter.New(g, mk(), engine.Options{}), nil
	case RisGraph:
		return risgraph.New(g, mk(), engine.Options{}), nil
	case GraphBolt:
		return graphbolt.New(g, mk(), graphbolt.ModePull), nil
	case DZiG:
		return graphbolt.New(g, mk(), graphbolt.ModeSparseAware), nil
	case Ingress:
		return ingress.New(g, mk(), engine.Options{}), nil
	case Layph:
		l := core.New(g, mk(), core.Options{Workers: threads})
		return l, l
	case LayphNoRepl:
		l := core.New(g, mk(), core.Options{Workers: threads, DisableReplication: true})
		return l, l
	default:
		panic(fmt.Sprintf("bench: unknown system %q", kind))
	}
}

// RunSystem replays the workload through one system.
func RunSystem(w *Workload, kind SystemKind, mk AlgoMaker, threads int) SystemResult {
	g := w.Graph.Clone()
	start := time.Now()
	sys, layered := buildSystem(kind, g, mk, threads)
	res := SystemResult{System: kind, InitSeconds: time.Since(start).Seconds(), Layered: layered}
	for _, b := range w.Batches {
		applied := delta.Apply(g, b)
		st := sys.Update(applied)
		res.UpdateSeconds += st.Duration.Seconds()
		res.PerBatchSeconds = append(res.PerBatchSeconds, st.Duration.Seconds())
		res.Activations += st.Activations
		res.LastStats = st
		res.Stats.Add(st)
	}
	return res
}

// Compare replays the workload through every listed system.
func Compare(w *Workload, kinds []SystemKind, mk AlgoMaker, threads int) []SystemResult {
	out := make([]SystemResult, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, RunSystem(w, k, mk, threads))
	}
	return out
}

// --- formatting helpers -----------------------------------------------

// Table accumulates aligned rows for printing.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row (values are formatted with %v).
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	printRow(sep)
	for _, r := range t.rows {
		printRow(r)
	}
}

// Build constructs the named system over g (running the initial batch
// computation); the second return is non-nil for the Layph kinds. threads
// sizes Layph's subgraph pool; the other systems run sequentially.
func Build(kind SystemKind, g *graph.Graph, mk AlgoMaker, threads int) (inc.System, *core.Layph) {
	return buildSystem(kind, g, mk, threads)
}
