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

func TestSortedSystems(t *testing.T) {
	rs := []SystemResult{{System: Layph}, {System: Restart}, {System: Ingress}}
	out := SortedSystems(rs, []SystemKind{Restart, Ingress, Layph})
	if out[0].System != Restart || out[2].System != Layph {
		t.Fatalf("order: %v", out)
	}
}

func TestRecoveryReportJSON(t *testing.T) {
	rep, err := RunRecovery(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WritePath) != 4 || rep.WritePath[0].Mode != "no-wal" {
		t.Fatalf("write-path points: %+v", rep.WritePath)
	}
	if rep.WritePath[0].Overhead != 1 {
		t.Fatalf("baseline overhead = %v, want 1", rep.WritePath[0].Overhead)
	}
	for _, p := range rep.WritePath {
		if p.UPS <= 0 || p.Batches <= 0 {
			t.Fatalf("point %+v not measured", p)
		}
		if p.Mode != "no-wal" && p.WALBytes <= 0 {
			t.Fatalf("mode %s logged no bytes", p.Mode)
		}
	}
	if rep.WritePath[3].Mode != "fsync-batch" || rep.WritePath[3].Fsyncs != rep.WritePath[3].Batches {
		t.Fatalf("fsync-batch point %+v: want one fsync per batch", rep.WritePath[3])
	}
	if len(rep.Recovery) != len(recoveryCheckpointIntervals) {
		t.Fatalf("recovery points: %+v", rep.Recovery)
	}
	for _, p := range rep.Recovery {
		// The micro-batch sizing guarantees a non-empty replayable tail
		// at every measured cadence.
		if p.TailBatches <= 0 || p.ReplayedUpdates <= 0 {
			t.Fatalf("cadence %d left no tail: %+v", p.CheckpointEvery, p)
		}
		if p.RecoverMillis <= 0 || p.RecoverMillis < p.ReplayMillis {
			t.Fatalf("cadence %d timing inconsistent: %+v", p.CheckpointEvery, p)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_recovery.json")
	if err := WriteRecoveryJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RecoveryReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algo != "SSSP" || len(back.Recovery) != len(rep.Recovery) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}
