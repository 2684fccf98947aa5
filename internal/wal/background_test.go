package wal

// Tests of the periodic checkpoint split into a cut on the caller's
// goroutine and a file write in the background: crash images at every
// step of the write, a failing write, stale temp files, and the file's
// bytes.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"layph/internal/graph"
)

// copyFlatDir copies every file of src into a new directory under t's
// temp dir: the crash image of a durability directory.
func copyFlatDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkRecovers recovers a crash image and checks it lands on checkpoint
// ckpt with a tail running contiguously through last.
func checkRecovers(t *testing.T, dir string, ckpt, last uint64, what string) {
	t.Helper()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if rec.CheckpointSeq != ckpt {
		t.Fatalf("%s: recovered checkpoint %d, want %d", what, rec.CheckpointSeq, ckpt)
	}
	if got := uint64(len(rec.Tail)); got != last-ckpt {
		t.Fatalf("%s: tail of %d records, want %d..%d", what, got, ckpt+1, last)
	}
	if len(rec.Tail) > 0 && rec.Tail[len(rec.Tail)-1].Seq != last {
		t.Fatalf("%s: tail ends at %d, want %d", what, rec.Tail[len(rec.Tail)-1].Seq, last)
	}
}

// TestCrashAtEveryStepOfABackgroundWrite holds the writer after each step
// of two consecutive background writes, logs one more batch while it
// waits, and recovers a copy of the directory: before the rename the old
// checkpoint is the newest, from the rename on the new one, and either
// way the tail runs through the last logged batch.
func TestCrashAtEveryStepOfABackgroundWrite(t *testing.T) {
	g := testGraph(t)
	states := make([]float64, 6)
	const every = 8
	l, dir := openFresh(t, Config{CheckpointEvery: every, Sync: SyncOff}, g, states)
	defer l.Close()
	steps := make(chan string)
	resume := make(chan struct{})
	quit := make(chan struct{}) // frees a held writer when the test fails
	defer close(quit)
	l.onStep = func(step string) error {
		select {
		case steps <- step:
		case <-quit:
			return nil
		}
		select {
		case <-resume:
		case <-quit:
		}
		return nil
	}

	seq := uint64(0)
	logOne := func() {
		t.Helper()
		seq++
		if err := l.LogBatch(seq, batchN(seq, 2)); err != nil {
			t.Fatal(err)
		}
		if err := l.AfterBatch(seq, seq*2, g, states); err != nil {
			t.Fatal(err)
		}
	}
	order := []string{stepWrite, stepFsync, stepRename, stepSyncDir, stepPrune}
	prev := uint64(0)
	for cut := 0; cut < 2; cut++ {
		logOne()
		for seq%every != 0 {
			logOne()
		}
		cutSeq := seq
		if st := l.Stats(); st.Checkpoints != int64(cut+2) || st.LastCheckpointSeq != cutSeq {
			t.Fatalf("after the cut at %d: stats %+v", cutSeq, st)
		}
		for i, want := range order {
			step := <-steps
			if step != want {
				t.Fatalf("step %d of the write at %d is %q, want %q", i, cutSeq, step, want)
			}
			logOne() // the stream goes on while the file is written
			ckpt := prev
			if i >= 2 {
				ckpt = cutSeq
			}
			checkRecovers(t, copyFlatDir(t, dir), ckpt, seq, fmt.Sprintf("crash after %s of checkpoint %d", step, cutSeq))
			if step == stepPrune {
				cks, segs, err := scanDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(cks) != 1 || cks[0] != cutSeq || len(segs) != 1 || segs[0] != cutSeq+1 {
					t.Fatalf("after prune: checkpoints %v segments %v, want [%d] [%d]", cks, segs, cutSeq, cutSeq+1)
				}
			}
			resume <- struct{}{}
		}
		prev = cutSeq
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	checkRecovers(t, dir, prev, seq, "after the last write")
}

// TestFailedBackgroundWriteSurfaces: a write that fails in the background
// counts as a failure, is returned once by the next AfterBatch, removes
// its temp file and prunes nothing, so recovery still reaches the last
// logged batch from the previous checkpoint.
func TestFailedBackgroundWriteSurfaces(t *testing.T) {
	g := testGraph(t)
	states := make([]float64, 6)
	l, dir := openFresh(t, Config{CheckpointEvery: 3, Sync: SyncOff}, g, states)
	injected := errors.New("injected disk error")
	l.onStep = func(step string) error {
		if step == stepFsync {
			return injected
		}
		return nil
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 2)); err != nil {
			t.Fatal(err)
		}
		if err := l.AfterBatch(seq, seq*2, g, states); err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); l.Stats().Failures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failing write never finished")
		}
	}
	if err := l.LogBatch(4, batchN(4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AfterBatch(4, 8, g, states); !errors.Is(err, injected) {
		t.Fatalf("AfterBatch after the failed write returned %v, want the injected error", err)
	}
	if err := l.LogBatch(5, batchN(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AfterBatch(5, 10, g, states); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	if st := l.Stats(); st.Failures != 1 || st.Checkpoints != 2 || st.LastCheckpointSeq != 3 {
		t.Fatalf("stats %+v, want 1 failure and 2 checkpoints, the last cut at 3", st)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
		t.Fatalf("failed write left %v", tmps)
	}
	cks, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 || cks[0] != 0 || len(segs) != 2 || segs[0] != 1 || segs[1] != 4 {
		t.Fatalf("checkpoints %v segments %v, want [0] and [1 4]", cks, segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkRecovers(t, dir, 0, 5, "after a failed write")
}

// TestOpenRemovesStaleCheckpointTemp: the temp file of a write cut short
// by a crash is deleted by the next Open and changes nothing recovered.
func TestOpenRemovesStaleCheckpointTemp(t *testing.T) {
	g := testGraph(t)
	cfg := Config{CheckpointEvery: -1, Sync: SyncOff}
	l, dir := openFresh(t, cfg, g, make([]float64, 6))
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := checkpointPath(dir, 3) + tmpSuffix
	if err := os.WriteFile(tmp, []byte("layph-checkpoint v1\nseq 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
	if rec == nil || rec.CheckpointSeq != 0 || len(rec.Tail) != 3 || rec.Tail[2].Seq != 3 {
		t.Fatalf("recovery %+v, want checkpoint 0 and tail 1..3", rec)
	}
	if got, want := edgeList(t, rec.Graph), edgeList(t, g); got != want {
		t.Fatalf("recovered graph differs:\n%s\nwant:\n%s", got, want)
	}
}

// goldenCheckpoint is the file the first checkpoint writer produced for
// the graph and states of TestCheckpointBytes: the format must not drift.
const goldenCheckpoint = "layph-checkpoint v1\nseq 9\nupdates 17\nmeta algo=sssp system=layph\n" +
	"states 6\n0\n1\n3.5\n+Inf\nNaN\n-0.25\n" +
	"graph\n# vertices 6\n0 1 1\n0 4 7\n1 2 2.5\n2 3 1\n3 0 1e-07\n4 2 1e+21\n# dead 5\n" +
	"crc 1927516559\n"

// TestCheckpointBytes pins the file of a synchronous checkpoint and of a
// background one to the same golden bytes, the latter cut from a graph
// that changes right after the cut.
func TestCheckpointBytes(t *testing.T) {
	mkGraph := func() (*graph.Graph, []float64) {
		g := testGraph(t)
		g.AddEdge(3, 0, 1e-7)
		g.AddEdge(4, 2, 1e21)
		return g, []float64{0, 1, 3.5, math.Inf(1), math.NaN(), -0.25, 99}
	}
	const meta = "algo=sssp system=layph"

	g, states := mkGraph()
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 9, 17, meta, g, states); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(checkpointPath(dir, 9)); err != nil || string(got) != goldenCheckpoint {
		t.Fatalf("synchronous checkpoint (%v):\n%q\nwant:\n%q", err, got, goldenCheckpoint)
	}

	g, states = mkGraph()
	l, dir := openFresh(t, Config{CheckpointEvery: 9, Sync: SyncOff, Meta: meta}, g, states)
	for seq := uint64(1); seq <= 9; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
		updates := uint64(0)
		if seq == 9 {
			updates = 17
		}
		if err := l.AfterBatch(seq, updates, g, states); err != nil {
			t.Fatal(err)
		}
	}
	g.DeleteVertex(1) // the graph moves on while the file is written
	g.AddEdge(0, 3, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(checkpointPath(dir, 9)); err != nil || string(got) != goldenCheckpoint {
		t.Fatalf("background checkpoint (%v):\n%q\nwant:\n%q", err, got, goldenCheckpoint)
	}
}
