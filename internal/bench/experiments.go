package bench

import (
	"fmt"
	"io"
	"runtime"

	"layph/internal/gen"
	"layph/internal/graph"
)

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies the preset sizes (1.0 = full bench scale; the quick
	// default keeps every experiment in seconds on a laptop).
	Scale float64
	// Threads sizes Layph's subgraph pool (the paper runs 16 workers);
	// the other systems run sequentially.
	Threads int
	// Batches is how many update batches are averaged per measurement.
	Batches int
	// BatchSize is |ΔG| per batch (the paper's default is 5,000).
	BatchSize int
	Seed      int64
}

// DefaultOptions returns the quick-run configuration.
func DefaultOptions() Options {
	threads := runtime.GOMAXPROCS(0)
	if threads > 16 {
		threads = 16
	}
	return Options{Scale: 0.25, Threads: threads, Batches: 2, BatchSize: 5000, Seed: 42}
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Scale == 0 {
		o.Scale = d.Scale
	}
	if o.Threads == 0 {
		o.Threads = d.Threads
	}
	if o.Batches == 0 {
		o.Batches = d.Batches
	}
	if o.BatchSize == 0 {
		o.BatchSize = d.BatchSize
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Experiment is a named runner for one table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Fig 1: edge activations and runtime, SSSP & PR on UK, 5000 edge updates", Fig1},
		{"table1", "Table I: datasets (scaled synthetic stand-ins)", Table1},
		{"fig5", "Fig 5: normalized response time, 4 algorithms x 4 graphs", Fig5},
		{"fig5e", "Fig 5e: PR vertex updates, Ingress vs Layph", Fig5e},
		{"fig6", "Fig 6: normalized edge activations, 4 algorithms x 4 graphs", Fig6},
		{"fig7", "Fig 7: Layph runtime breakdown on UK", Fig7},
		{"fig8", "Fig 8: effect of vertex replication (sizes and runtime)", Fig8},
		{"fig9", "Fig 9: scaling threads 1..32, SSSP & PR on UK", Fig9},
		{"fig10", "Fig 10: speedup over competitors vs batch size, SSSP & PR on UK", Fig10},
		{"fig11a", "Fig 11a: additional space cost of shortcuts", Fig11a},
		{"fig11b", "Fig 11b: offline preprocessing amortization, SSSP on UK", Fig11b},
		{"stream", "Streaming: sustained micro-batched ingestion throughput, SSSP on UK", StreamingExperiment},
		{"parallel", "Parallel: Layph incremental-update speedup vs threads, SSSP on the community graph", ParallelExperiment},
		{"serve", "Serve: HTTP read QPS and latency under a live write stream", ServeExperiment},
		{"drift", "Drift: update latency and touched-subgraph-ratio trend under community-migration churn, frozen vs relayer, SSSP on the community graph", DriftExperiment},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig1 reproduces Figure 1: absolute edge activations and runtime for SSSP
// and PageRank on UK with 5000 random edge updates across all systems.
func Fig1(w io.Writer, o Options) {
	o = o.normalize()
	algos := Algorithms()
	for _, name := range []string{"SSSP", "PR"} {
		wl := NewWorkload(gen.PresetUK, o.Scale, o.Batches, o.BatchSize, o.Seed)
		fmt.Fprintf(w, "Figure 1 (%s on UK, |dG|=%d x %d batches)\n", name, o.BatchSize, o.Batches)
		t := NewTable("system", "activations", "runtime-s")
		for _, r := range Compare(wl, SystemsFor(name), algos[name], o.Threads) {
			t.Row(string(r.System), r.Activations, r.UpdateSeconds)
		}
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Table1 reproduces Table I with the scaled stand-in datasets.
func Table1(w io.Writer, o Options) {
	o = o.normalize()
	fmt.Fprintf(w, "Table I (scaled stand-ins, scale=%.2f)\n", o.Scale)
	t := NewTable("graph", "vertices", "edges", "avg-degree", "max-out-degree")
	for _, p := range gen.AllPresets {
		g := gen.Build(p, o.Scale)
		s := graph.ComputeStats(g)
		t.Row(string(p), s.Vertices, s.Edges, s.AvgDegree, s.MaxOutDegree)
	}
	t.Print(w)
}

// fig56 runs the full comparison matrix once; fig5 prints times, fig6
// activations, both normalized to Layph = 1 as in the paper.
func fig56(w io.Writer, o Options, metric string) {
	o = o.normalize()
	algos := Algorithms()
	for _, name := range []string{"SSSP", "BFS", "PR", "PHP"} {
		fmt.Fprintf(w, "%s (normalized to Layph = 1)\n", name)
		kinds := SystemsFor(name)
		header := []string{"graph"}
		for _, k := range kinds {
			if k != Restart {
				header = append(header, string(k))
			}
		}
		t := NewTable(header...)
		for _, p := range gen.AllPresets {
			wl := NewWorkload(p, o.Scale, o.Batches, o.BatchSize, o.Seed)
			rs := Compare(wl, kinds, algos[name], o.Threads)
			var base float64
			for _, r := range rs {
				if r.System == Layph {
					if metric == "time" {
						base = r.UpdateSeconds
					} else {
						base = float64(r.Activations)
					}
				}
			}
			row := []interface{}{string(p)}
			for _, r := range rs {
				if r.System == Restart {
					continue
				}
				v := r.UpdateSeconds
				if metric != "time" {
					v = float64(r.Activations)
				}
				if base > 0 {
					row = append(row, v/base)
				} else {
					row = append(row, 0.0)
				}
			}
			t.Row(row...)
		}
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Fig5 reproduces Figure 5a-d: normalized response time.
func Fig5(w io.Writer, o Options) { fig56(w, o, "time") }

// Fig6 reproduces Figure 6a-d: normalized edge activations.
func Fig6(w io.Writer, o Options) { fig56(w, o, "activations") }

// Fig5e reproduces Figure 5e: PageRank under vertex updates (500 added +
// 500 deleted per batch), Ingress vs Layph.
func Fig5e(w io.Writer, o Options) {
	o = o.normalize()
	mk := Algorithms()["PR"]
	fmt.Fprintln(w, "Figure 5e (PR, 1000 vertex updates per batch, normalized to Layph = 1)")
	t := NewTable("graph", "ingress", "layph")
	for _, p := range gen.AllPresets {
		wl := NewVertexWorkload(p, o.Scale, o.Batches, 1000, o.Seed)
		rs := Compare(wl, []SystemKind{Ingress, Layph}, mk, o.Threads)
		var ing, lay float64
		for _, r := range rs {
			if r.System == Ingress {
				ing = r.UpdateSeconds
			} else {
				lay = r.UpdateSeconds
			}
		}
		if lay > 0 {
			t.Row(string(p), ing/lay, 1.0)
		}
	}
	t.Print(w)
}

// Fig7 reproduces Figure 7: the share of Layph's four online phases on UK.
func Fig7(w io.Writer, o Options) {
	o = o.normalize()
	fmt.Fprintln(w, "Figure 7 (Layph runtime breakdown on UK, fraction of update time)")
	phases := []string{"layered-update", "upload", "lup-iteration", "assignment"}
	t := NewTable(append([]string{"algorithm"}, phases...)...)
	for _, name := range []string{"SSSP", "BFS", "PR", "PHP"} {
		wl := NewWorkload(gen.PresetUK, o.Scale, o.Batches, o.BatchSize, o.Seed)
		r := RunSystem(wl, Layph, Algorithms()[name], o.Threads)
		fr := r.Layered.LastPhases.Fractions()
		row := []interface{}{name}
		for _, ph := range phases {
			row = append(row, fr[ph])
		}
		t.Row(row...)
	}
	t.Print(w)
}

// Fig8 reproduces Figure 8: skeleton sizes with/without replication and the
// SSSP / PR runtimes of Ingress vs Layph w/o replication vs Layph.
func Fig8(w io.Writer, o Options) {
	o = o.normalize()
	fmt.Fprintln(w, "Figure 8a (graph sizes, edges normalized to original graph = 1)")
	ts := NewTable("graph", "original", "Lup(no-replication)", "reshaped-Lup")
	for _, p := range gen.AllPresets {
		g := gen.Build(p, o.Scale)
		mk := Algorithms()["SSSP"]
		_, with := buildSystem(Layph, g.Clone(), mk, o.Threads)
		_, without := buildSystem(LayphNoRepl, g.Clone(), mk, o.Threads)
		_, withE := with.UpperLayerSize()
		_, withoutE := without.UpperLayerSize()
		total := float64(g.NumEdges())
		ts.Row(string(p), 1.0, float64(withoutE)/total, float64(withE)/total)
	}
	ts.Print(w)
	fmt.Fprintln(w)
	for _, name := range []string{"SSSP", "PR"} {
		fmt.Fprintf(w, "Figure 8b/c (%s runtime, normalized to Layph = 1)\n", name)
		t := NewTable("graph", "ingress", "layph-norepl", "layph")
		for _, p := range gen.AllPresets {
			wl := NewWorkload(p, o.Scale, o.Batches, o.BatchSize, o.Seed)
			rs := Compare(wl, []SystemKind{Ingress, LayphNoRepl, Layph}, Algorithms()[name], o.Threads)
			var base float64
			for _, r := range rs {
				if r.System == Layph {
					base = r.UpdateSeconds
				}
			}
			row := []interface{}{string(p)}
			for _, r := range rs {
				row = append(row, r.UpdateSeconds/base)
			}
			t.Row(row...)
		}
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Fig9 reproduces Figure 9: runtime while scaling threads 1..32.
func Fig9(w io.Writer, o Options) {
	o = o.normalize()
	threads := []int{1, 2, 4, 8, 16, 32}
	for _, name := range []string{"SSSP", "PR"} {
		fmt.Fprintf(w, "Figure 9 (%s on UK, runtime seconds vs threads)\n", name)
		kinds := SystemsFor(name)[1:] // drop restart, as in the paper
		header := []string{"threads"}
		for _, k := range kinds {
			header = append(header, string(k))
		}
		t := NewTable(header...)
		wl := NewWorkload(gen.PresetUK, o.Scale, o.Batches, o.BatchSize, o.Seed)
		for _, th := range threads {
			row := []interface{}{th}
			for _, k := range kinds {
				r := RunSystem(wl, k, Algorithms()[name], th)
				row = append(row, r.UpdateSeconds)
			}
			t.Row(row...)
		}
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Fig10 reproduces Figure 10: Layph's speedup over each competitor while
// varying the batch size (capped at 10% of |E| at small scales).
func Fig10(w io.Writer, o Options) {
	o = o.normalize()
	for _, name := range []string{"SSSP", "PR"} {
		fmt.Fprintf(w, "Figure 10 (%s on UK, Layph speedup over competitors vs batch size)\n", name)
		kinds := SystemsFor(name)
		header := []string{"batch-size"}
		for _, k := range kinds {
			if k != Restart && k != Layph {
				header = append(header, string(k))
			}
		}
		t := NewTable(header...)
		g := gen.Build(gen.PresetUK, o.Scale)
		maxBatch := g.NumEdges() / 10
		for _, bs := range []int{10, 100, 1000, 10000, 100000, 1000000} {
			if bs > maxBatch {
				break
			}
			wl := NewWorkload(gen.PresetUK, o.Scale, 1, bs, o.Seed)
			rs := Compare(wl, kinds, Algorithms()[name], o.Threads)
			var lay float64
			for _, r := range rs {
				if r.System == Layph {
					lay = r.UpdateSeconds
				}
			}
			row := []interface{}{bs}
			for _, r := range rs {
				if r.System == Restart || r.System == Layph {
					continue
				}
				row = append(row, r.UpdateSeconds/lay)
			}
			t.Row(row...)
		}
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Fig11a reproduces Figure 11a: shortcut count relative to original edges.
func Fig11a(w io.Writer, o Options) {
	o = o.normalize()
	fmt.Fprintln(w, "Figure 11a (additional space: shortcuts / original edges)")
	t := NewTable("graph", "edges", "shortcuts", "overhead-%")
	for _, p := range gen.AllPresets {
		g := gen.Build(p, o.Scale)
		_, l := buildSystem(Layph, g.Clone(), Algorithms()["SSSP"], o.Threads)
		sc := l.ShortcutCount()
		t.Row(string(p), g.NumEdges(), sc, 100*float64(sc)/float64(g.NumEdges()))
	}
	t.Print(w)
}

// Fig11b reproduces Figure 11b: cumulative runtime over successive
// incremental runs — Layph's offline cost plus its accumulated update time
// crosses below Ingress's accumulated update time after a few runs.
func Fig11b(w io.Writer, o Options) {
	o = o.normalize()
	const runs = 15
	wl := NewWorkload(gen.PresetUK, o.Scale, runs, o.BatchSize, o.Seed)
	mk := Algorithms()["SSSP"]
	lay := RunSystem(wl, Layph, mk, o.Threads)
	ing := RunSystem(wl, Ingress, mk, o.Threads)
	offline := lay.Layered.OfflineStats.BuildSeconds
	fmt.Fprintf(w, "Figure 11b (SSSP on UK, cumulative seconds; Layph offline = %.3fs)\n", offline)
	t := NewTable("run", "layph-offline+acc", "ingress-acc")
	cl, ci := offline, 0.0
	for i := 0; i < runs; i++ {
		cl += lay.PerBatchSeconds[i]
		ci += ing.PerBatchSeconds[i]
		t.Row(i+1, cl, ci)
	}
	t.Print(w)
}

// SpeedupSummary prints the headline comparison of the abstract: Layph's
// speedup range over each competitor across the full Fig 5 matrix.
func SpeedupSummary(w io.Writer, o Options) {
	o = o.normalize()
	mins := make(map[SystemKind]float64)
	maxs := make(map[SystemKind]float64)
	algos := Algorithms()
	for _, name := range []string{"SSSP", "BFS", "PR", "PHP"} {
		for _, p := range gen.AllPresets {
			wl := NewWorkload(p, o.Scale, o.Batches, o.BatchSize, o.Seed)
			rs := Compare(wl, SystemsFor(name), algos[name], o.Threads)
			var lay float64
			for _, r := range rs {
				if r.System == Layph {
					lay = r.UpdateSeconds
				}
			}
			for _, r := range rs {
				if r.System == Layph || r.System == Restart || lay == 0 {
					continue
				}
				sp := r.UpdateSeconds / lay
				if cur, ok := mins[r.System]; !ok || sp < cur {
					mins[r.System] = sp
				}
				if cur, ok := maxs[r.System]; !ok || sp > cur {
					maxs[r.System] = sp
				}
			}
		}
	}
	t := NewTable("competitor", "min-speedup", "max-speedup")
	for _, k := range []SystemKind{KickStarter, RisGraph, GraphBolt, DZiG, Ingress} {
		t.Row(string(k), mins[k], maxs[k])
	}
	t.Print(w)
}
