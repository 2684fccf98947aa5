package layph

// Benchmarks: one per table/figure of the paper's evaluation (Section VI).
// Each benchmark measures the incremental-update path of one (system,
// algorithm, dataset) cell; `go test -bench . -benchmem` therefore
// regenerates the raw material behind every figure, and
// `go run ./cmd/layph-bench -experiment all` prints the paper-shaped tables.
//
// The reported custom metrics are:
//
//	activations/op — edge activations per update batch (Figures 1 and 6)

import (
	"fmt"
	"testing"

	"layph/internal/bench"
	"layph/internal/delta"
	"layph/internal/gen"
)

// benchScale keeps the full matrix affordable; cmd/layph-bench exposes the
// scale as a flag for larger runs.
const benchScale = 0.1

// benchBatch is the paper's default |ΔG|.
const benchBatch = 5000

func benchUpdates(b *testing.B, p gen.Preset, algoName string, kind bench.SystemKind, batchSize int) {
	b.Helper()
	wl := bench.NewWorkload(p, benchScale, 1, batchSize, 42)
	g := wl.Graph.Clone()
	mk := bench.Algorithms()[algoName]
	sys := benchBuild(kind, g, mk)
	genr := delta.NewGenerator(7)
	b.ResetTimer()
	var acts int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := genr.EdgeBatch(g, batchSize, true)
		b.StartTimer()
		applied := delta.Apply(g, batch)
		st := sys.Update(applied)
		acts += st.Activations
	}
	b.ReportMetric(float64(acts)/float64(b.N), "activations/op")
}

func benchBuild(kind bench.SystemKind, g *Graph, mk bench.AlgoMaker) System {
	switch kind {
	case bench.Restart:
		return &restartAdapter{g: g, mk: mk}
	case bench.KickStarter:
		return NewKickStarter(g, mk())
	case bench.RisGraph:
		return NewRisGraph(g, mk())
	case bench.GraphBolt:
		return NewGraphBolt(g, mk())
	case bench.DZiG:
		return NewDZiG(g, mk())
	case bench.Ingress:
		return NewIngress(g, mk(), 0)
	case bench.Layph:
		return NewLayph(g, mk(), Config{})
	case bench.LayphNoRepl:
		return NewLayph(g, mk(), Config{DisableReplication: true})
	}
	panic("unknown kind")
}

type restartAdapter struct {
	g  *Graph
	mk bench.AlgoMaker
	x  []float64
}

func (r *restartAdapter) Name() string      { return "restart" }
func (r *restartAdapter) States() []float64 { return r.x }
func (r *restartAdapter) Update(*Applied) Stats {
	r.x = Run(r.g, r.mk(), 0)
	return Stats{}
}

// --- Figure 1: activations + runtime, SSSP and PR on UK, |ΔG|=5000 ------

func BenchmarkFig1_SSSP(b *testing.B) {
	for _, kind := range bench.MinSystems {
		b.Run(string(kind), func(b *testing.B) {
			benchUpdates(b, gen.PresetUK, "SSSP", kind, benchBatch)
		})
	}
}

func BenchmarkFig1_PageRank(b *testing.B) {
	for _, kind := range bench.SumSystems {
		b.Run(string(kind), func(b *testing.B) {
			benchUpdates(b, gen.PresetUK, "PR", kind, benchBatch)
		})
	}
}

// --- Figures 5 and 6: the full comparison matrix -------------------------
// (time is the benchmark result; activations/op is the Figure 6 series)

func BenchmarkFig5_Matrix(b *testing.B) {
	for _, algoName := range []string{"SSSP", "BFS", "PR", "PHP"} {
		for _, p := range gen.AllPresets {
			for _, kind := range bench.SystemsFor(algoName) {
				if kind == bench.Restart {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%s", algoName, p, kind), func(b *testing.B) {
					benchUpdates(b, p, algoName, kind, benchBatch)
				})
			}
		}
	}
}

// --- Figure 5e: vertex updates -------------------------------------------

func BenchmarkFig5e_VertexUpdates(b *testing.B) {
	for _, kind := range []bench.SystemKind{bench.Ingress, bench.Layph} {
		b.Run(string(kind), func(b *testing.B) {
			wl := bench.NewVertexWorkload(gen.PresetUK, benchScale, 1, 1000, 42)
			g := wl.Graph.Clone()
			sys := benchBuild(kind, g, bench.Algorithms()["PR"])
			genr := delta.NewGenerator(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := genr.VertexBatch(g, 500, 500, 4, true)
				b.StartTimer()
				sys.Update(delta.Apply(g, batch))
			}
		})
	}
}

// --- Figure 7: Layph phase breakdown --------------------------------------

func BenchmarkFig7_Breakdown(b *testing.B) {
	for _, algoName := range []string{"SSSP", "BFS", "PR", "PHP"} {
		b.Run(algoName, func(b *testing.B) {
			wl := bench.NewWorkload(gen.PresetUK, benchScale, 1, benchBatch, 42)
			g := wl.Graph.Clone()
			l := NewLayph(g, bench.Algorithms()[algoName](), Config{})
			genr := delta.NewGenerator(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := genr.EdgeBatch(g, benchBatch, true)
				b.StartTimer()
				l.Update(delta.Apply(g, batch))
			}
			b.StopTimer()
			for name, frac := range l.LastPhases.Fractions() {
				b.ReportMetric(frac, name+"-frac")
			}
		})
	}
}

// --- Figure 8: replication ablation ---------------------------------------

func BenchmarkFig8_ReplicationSSSP(b *testing.B) {
	for _, kind := range []bench.SystemKind{bench.Ingress, bench.LayphNoRepl, bench.Layph} {
		b.Run(string(kind), func(b *testing.B) {
			benchUpdates(b, gen.PresetUK, "SSSP", kind, benchBatch)
		})
	}
}

func BenchmarkFig8_ReplicationPageRank(b *testing.B) {
	for _, kind := range []bench.SystemKind{bench.Ingress, bench.LayphNoRepl, bench.Layph} {
		b.Run(string(kind), func(b *testing.B) {
			benchUpdates(b, gen.PresetUK, "PR", kind, benchBatch)
		})
	}
}

// --- Figure 9: thread scaling ---------------------------------------------

func BenchmarkFig9_Threads(b *testing.B) {
	for _, algoName := range []string{"SSSP", "PR"} {
		for _, th := range []int{1, 2, 4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/threads=%d", algoName, th), func(b *testing.B) {
				wl := bench.NewWorkload(gen.PresetUK, benchScale, 1, benchBatch, 42)
				g := wl.Graph.Clone()
				l := NewLayph(g, bench.Algorithms()[algoName](), Config{Threads: th})
				genr := delta.NewGenerator(7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					batch := genr.EdgeBatch(g, benchBatch, true)
					b.StartTimer()
					l.Update(delta.Apply(g, batch))
				}
			})
		}
	}
}

// --- Figure 10: batch-size sweep -------------------------------------------

func BenchmarkFig10_BatchSize(b *testing.B) {
	for _, algoName := range []string{"SSSP", "PR"} {
		for _, bs := range []int{10, 100, 1000, 10000} {
			for _, kind := range []bench.SystemKind{bench.Ingress, bench.Layph} {
				b.Run(fmt.Sprintf("%s/batch=%d/%s", algoName, bs, kind), func(b *testing.B) {
					benchUpdates(b, gen.PresetUK, algoName, kind, bs)
				})
			}
		}
	}
}

// --- Figure 11: offline cost amortization ----------------------------------

func BenchmarkFig11b_Amortization(b *testing.B) {
	// Measures the offline phase itself; the amortization table is printed
	// by `layph-bench -experiment fig11b`.
	wl := bench.NewWorkload(gen.PresetUK, benchScale, 1, benchBatch, 42)
	mk := bench.Algorithms()["SSSP"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := wl.Graph.Clone()
		l := NewLayph(g, mk(), Config{})
		_ = l.OfflineStats
	}
}
