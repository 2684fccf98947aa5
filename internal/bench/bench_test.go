package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{Scale: 0.02, Threads: 2, Batches: 1, BatchSize: 100, Seed: 7}
}

func TestWorkloadDeterministic(t *testing.T) {
	w1 := NewWorkload(gen.PresetUK, 0.02, 2, 50, 9)
	w2 := NewWorkload(gen.PresetUK, 0.02, 2, 50, 9)
	if len(w1.Batches) != 2 || len(w2.Batches) != 2 {
		t.Fatal("batch count")
	}
	for i := range w1.Batches {
		if len(w1.Batches[i]) != len(w2.Batches[i]) {
			t.Fatalf("batch %d length differs", i)
		}
		for j := range w1.Batches[i] {
			if w1.Batches[i][j] != w2.Batches[i][j] {
				t.Fatalf("batch %d item %d differs", i, j)
			}
		}
	}
}

func TestRunSystemAllKinds(t *testing.T) {
	wl := NewWorkload(gen.PresetUK, 0.02, 1, 60, 3)
	for _, k := range MinSystems {
		r := RunSystem(wl, k, Algorithms()["SSSP"], 2)
		if r.UpdateSeconds <= 0 {
			t.Fatalf("%s: no update time", k)
		}
	}
	for _, k := range SumSystems {
		r := RunSystem(wl, k, Algorithms()["PR"], 2)
		if r.UpdateSeconds <= 0 {
			t.Fatalf("%s: no update time", k)
		}
	}
	r := RunSystem(wl, LayphNoRepl, Algorithms()["PR"], 2)
	if r.Layered == nil {
		t.Fatal("layph-norepl should expose the layered handle")
	}
}

func TestSystemsAgreeOnStates(t *testing.T) {
	// All systems replay identical batches, so their final states must
	// agree with the restart baseline on the final graph's live vertices.
	wl := NewWorkload(gen.PresetWB, 0.02, 2, 80, 5)
	mk := Algorithms()["PR"]
	// Materialize the final graph to know which vertices are live.
	final := wl.Graph.Clone()
	for _, b := range wl.Batches {
		delta.Apply(final, b)
	}
	base := RunSystem(wl, Restart, mk, 2)
	baseSys, _ := buildSystem(Restart, final.Clone(), mk, 2)
	_ = base
	want := baseSys.States()
	for _, k := range []SystemKind{GraphBolt, DZiG, Ingress, Layph} {
		r := RunSystem(wl, k, mk, 2)
		sys := r
		got := stateOf(wl, k, mk)
		ok := true
		final.Vertices(func(v graph.VertexID) {
			if ok && mathAbs(got[v]-want[v]) > 1e-4 {
				ok = false
				t.Logf("%s: vertex %d got %v want %v", k, v, got[v], want[v])
			}
		})
		if !ok {
			t.Fatalf("%s diverges from restart (last stats %+v)", k, sys.LastStats)
		}
	}
}

func stateOf(w *Workload, k SystemKind, mk AlgoMaker) []float64 {
	g := w.Graph.Clone()
	sys, _ := buildSystem(k, g, mk, 2)
	for _, b := range w.Batches {
		applied := delta.Apply(g, b)
		sys.Update(applied)
	}
	return sys.States()
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestBuildSystemUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	buildSystem(SystemKind("nope"), nil, Algorithms()["PR"], 1)
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("a", "bee")
	tbl.Row("x", 1.23456)
	tbl.Row("longer", 2)
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "1.235") {
		t.Fatalf("table output: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want 4 lines, got %q", out)
	}
}

func TestExperimentsRunQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short")
	}
	t.Chdir(t.TempDir()) // the parallel experiment writes BENCH_parallel.json
	o := tiny()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, o)
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestParallelReportJSON(t *testing.T) {
	rep := RunParallel(tiny())
	if len(rep.Points) == 0 {
		t.Fatal("no measurement points")
	}
	if rep.Points[0].Threads != 1 {
		t.Fatalf("first point threads=%d, want 1 (baseline)", rep.Points[0].Threads)
	}
	if rep.Points[0].SpeedupVsT1 != 1 {
		t.Fatalf("baseline speedup = %v, want 1", rep.Points[0].SpeedupVsT1)
	}
	for _, p := range rep.Points {
		if p.UpdateSeconds <= 0 || p.SpeedupVsT1 <= 0 {
			t.Fatalf("point %+v not measured", p)
		}
		if p.SubgraphsParallel == 0 {
			t.Fatalf("threads=%d reported no subgraph tasks", p.Threads)
		}
		if p.PoolUtilization < 0 || p.PoolUtilization > 1 {
			t.Fatalf("threads=%d pool utilization out of range: %v", p.Threads, p.PoolUtilization)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	if err := WriteParallelJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ParallelReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algo != "SSSP" || len(back.Points) != len(rep.Points) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestMedian pins the helper PerfSmoke gates on: one outlier pair moves
// the median no further than its neighbour, and the input keeps its order.
func TestMedian(t *testing.T) {
	speedups := []float64{1.14, 0.75, 1.2, 1.1, 1.3}
	if got := median(speedups); got != 1.14 {
		t.Fatalf("median of five = %v, want 1.14", got)
	}
	if speedups[0] != 1.14 || speedups[1] != 0.75 {
		t.Fatalf("median reordered its input: %v", speedups)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Fatalf("median of four = %v, want the lower middle 2", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of none = %v, want 0", got)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig7"); !ok {
		t.Fatal("fig7 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestVertexWorkload(t *testing.T) {
	w := NewVertexWorkload(gen.PresetUK, 0.02, 2, 20, 3)
	if len(w.Batches) != 2 {
		t.Fatal("batches")
	}
	r := RunSystem(w, Layph, Algorithms()["PR"], 2)
	if r.UpdateSeconds <= 0 {
		t.Fatal("no time")
	}
}
