package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2.5)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 4, 7)
	g.DeleteVertex(5)
	return g
}

// writeCheckpoint persists checkpoint-<seq>.ckpt of g and states the
// way Log.Start and Log.Checkpoint do, without a Log.
func writeCheckpoint(dir string, seq, updates uint64, meta string, g *graph.Graph, states []float64) error {
	c, err := newCheckpoint(seq, updates, meta, g, states)
	if err != nil {
		return err
	}
	return c.write(dir, nil)
}

func edgeList(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func batchN(seq uint64, n int) delta.Batch {
	b := make(delta.Batch, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, delta.Update{Kind: delta.AddEdge, U: uint32(seq % 4), V: uint32(i % 6), W: float64(seq) + 0.5})
	}
	return b
}

// openFresh starts a Log in a new temp dir at seq 0 with the given state.
func openFresh(t *testing.T, cfg Config, g *graph.Graph, states []float64) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir produced recovery %+v", rec)
	}
	if err := l.Start(0, 0, g, states); err != nil {
		t.Fatal(err)
	}
	return l, dir
}

// TestCheckpointTruncatesReplicaStates: a state vector longer than the
// graph's vertex space (Layph keeps proxy-vertex states past g.Cap())
// persists only the graph-aligned prefix, and a shorter one is an error.
func TestCheckpointTruncatesReplicaStates(t *testing.T) {
	g := testGraph(t)
	flat := []float64{0, 1, 2, 3, 4, 5, 100, 200} // 2 replica states past Cap
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 3, 30, "", g, flat); err != nil {
		t.Fatal(err)
	}
	_, s2, _, _, err := readCheckpoint(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) != g.Cap() {
		t.Fatalf("round-tripped %d states, want %d", len(s2), g.Cap())
	}
	for i := range s2 {
		if s2[i] != flat[i] {
			t.Fatalf("state %d = %v, want %v", i, s2[i], flat[i])
		}
	}
	if err := writeCheckpoint(dir, 4, 40, "", g, flat[:g.Cap()-1]); err == nil {
		t.Fatal("short state vector accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := testGraph(t)
	states := []float64{0, 1, 3.5, math.Inf(1), math.NaN(), -0.25}
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 42, 900, "algo=sssp system=layph", g, states); err != nil {
		t.Fatal(err)
	}
	g2, s2, updates, meta, err := readCheckpoint(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	if updates != 900 || meta != "algo=sssp system=layph" {
		t.Fatalf("updates=%d meta=%q", updates, meta)
	}
	if len(s2) != len(states) {
		t.Fatalf("%d states, want %d", len(s2), len(states))
	}
	for i := range states {
		same := s2[i] == states[i] || (math.IsNaN(s2[i]) && math.IsNaN(states[i]))
		if !same {
			t.Fatalf("state %d: %v != %v", i, s2[i], states[i])
		}
	}
	if got, want := edgeList(t, g2), edgeList(t, g); got != want {
		t.Fatalf("graph round trip:\n%s\nwant:\n%s", got, want)
	}
}

func TestLogRecoverRoundTrip(t *testing.T) {
	g := testGraph(t)
	states := []float64{0, 1, 3.5, 4.5, 7, math.Inf(1)}
	l, dir := openFresh(t, Config{CheckpointEvery: -1}, g, states)
	var want []delta.Batch
	for seq := uint64(1); seq <= 5; seq++ {
		b := batchN(seq, 3)
		want = append(want, b)
		if err := l.LogBatch(seq, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("Recover returned nil for a populated dir")
	}
	if rec.CheckpointSeq != 0 || rec.CheckpointUpdates != 0 {
		t.Fatalf("checkpoint seq=%d updates=%d, want 0,0", rec.CheckpointSeq, rec.CheckpointUpdates)
	}
	if rec.DiscardedBytes != 0 {
		t.Fatalf("clean log discarded %d bytes", rec.DiscardedBytes)
	}
	if len(rec.Tail) != 5 {
		t.Fatalf("tail has %d records, want 5", len(rec.Tail))
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d", i, r.Seq)
		}
		if len(r.Batch) != len(want[i]) {
			t.Fatalf("tail[%d]: %d updates, want %d", i, len(r.Batch), len(want[i]))
		}
		for j := range r.Batch {
			if r.Batch[j] != want[i][j] {
				t.Fatalf("tail[%d][%d] = %v, want %v", i, j, r.Batch[j], want[i][j])
			}
		}
	}
	if got, want := edgeList(t, rec.Graph), edgeList(t, g); got != want {
		t.Fatalf("recovered graph differs:\n%s\nwant:\n%s", got, want)
	}
}

// A checkpoint cut mid-stream rotates the segment, prunes covered files,
// and recovery replays only the records past it.
func TestCheckpointRotatesAndPrunes(t *testing.T) {
	g := testGraph(t)
	states := make([]float64, 6)
	l, dir := openFresh(t, Config{CheckpointEvery: 3, Sync: SyncOff}, g, states)
	for seq := uint64(1); seq <= 7; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 2)); err != nil {
			t.Fatal(err)
		}
		// AfterBatch mirrors the stream hook: checkpoint every 3 batches.
		if err := l.AfterBatch(seq, seq*2, g, states); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	// Start's checkpoint plus the ones after seq 3 and 6.
	if st.Checkpoints != 3 || st.LastCheckpointSeq != 6 {
		t.Fatalf("stats %+v, want 3 checkpoints, last at 6", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cks, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 || cks[0] != 6 {
		t.Fatalf("checkpoints on disk: %v, want [6]", cks)
	}
	if len(segs) != 1 || segs[0] != 7 {
		t.Fatalf("segments on disk: %v, want [7]", segs)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointSeq != 6 || rec.CheckpointUpdates != 12 {
		t.Fatalf("recovered at seq=%d updates=%d, want 6,12", rec.CheckpointSeq, rec.CheckpointUpdates)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 7 {
		t.Fatalf("tail %+v, want single record seq 7", rec.Tail)
	}
}

// Restart resumes appending after the recovered position: Start cuts a
// fresh checkpoint there and new batches land in a new segment.
func TestReopenAndContinue(t *testing.T) {
	g := testGraph(t)
	states := make([]float64, 6)
	l, dir := openFresh(t, Config{Sync: SyncOff, CheckpointEvery: -1}, g, states)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, Config{Sync: SyncOff, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Tail) != 3 {
		t.Fatalf("recovery %+v, want 3-record tail", rec)
	}
	// Caller replays the tail, then restarts the log at the final seq.
	if err := l2.Start(3, 3, g, states); err != nil {
		t.Fatal(err)
	}
	if err := l2.LogBatch(4, batchN(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CheckpointSeq != 3 || len(rec2.Tail) != 1 || rec2.Tail[0].Seq != 4 {
		t.Fatalf("second recovery: ckpt=%d tail=%+v", rec2.CheckpointSeq, rec2.Tail)
	}
}

func TestLogBatchSeqContiguity(t *testing.T) {
	g := testGraph(t)
	l, _ := openFresh(t, Config{Sync: SyncOff}, g, make([]float64, 6))
	defer l.Close()
	if err := l.LogBatch(1, batchN(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.LogBatch(3, batchN(3, 1)); err == nil || !strings.Contains(err.Error(), "non-contiguous") {
		t.Fatalf("seq 3 after 1 gave %v", err)
	}
	if err := l.LogBatch(1, batchN(1, 1)); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if l.Stats().Failures < 2 {
		t.Fatalf("failures = %d, want >= 2", l.Stats().Failures)
	}
	// The log is still usable at the correct next seq.
	if err := l.LogBatch(2, batchN(2, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestStartTwiceRejected(t *testing.T) {
	g := testGraph(t)
	l, _ := openFresh(t, Config{Sync: SyncOff}, g, make([]float64, 6))
	defer l.Close()
	if err := l.Start(0, 0, g, make([]float64, 6)); err == nil {
		t.Fatal("second Start accepted")
	}
}

// A batch that cannot be encoded (corrupt Kind) must fail the append —
// this is the delta.FormatUpdate bugfix observed end to end.
func TestLogBatchRejectsCorruptUpdate(t *testing.T) {
	g := testGraph(t)
	l, dir := openFresh(t, Config{Sync: SyncOff}, g, make([]float64, 6))
	bad := delta.Batch{{Kind: delta.Kind(9), U: 1, V: 2}}
	if err := l.LogBatch(1, bad); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("corrupt batch gave %v", err)
	}
	// Nothing was acked, nothing may be replayed.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 0 {
		t.Fatalf("rejected batch surfaced in tail: %+v", rec.Tail)
	}
}

func TestSyncPolicies(t *testing.T) {
	g := testGraph(t)
	states := make([]float64, 6)

	l, _ := openFresh(t, Config{Sync: SyncEveryBatch, CheckpointEvery: -1}, g, states)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs < 4 {
		t.Fatalf("SyncEveryBatch fsyncs = %d, want >= 4", st.Fsyncs)
	}
	l.Close()

	l, _ = openFresh(t, Config{Sync: SyncOff, CheckpointEvery: -1}, g, states)
	base := l.Stats().Fsyncs
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != base {
		t.Fatalf("SyncOff fsynced %d times during appends", st.Fsyncs-base)
	}
	l.Close()

	// SyncInterval with a huge interval behaves like off; with a zero-ish
	// elapsed clock the first append after the interval elapses syncs.
	l, _ = openFresh(t, Config{Sync: SyncInterval, Interval: time.Hour, CheckpointEvery: -1}, g, states)
	base = l.Stats().Fsyncs
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.LogBatch(seq, batchN(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != base {
		t.Fatalf("SyncInterval(1h) fsynced %d times within the window", st.Fsyncs-base)
	}
	l.Close()
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || rec != nil {
		t.Fatalf("missing dir: rec=%+v err=%v", rec, err)
	}
	rec, err = Recover(t.TempDir())
	if err != nil || rec != nil {
		t.Fatalf("empty dir: rec=%+v err=%v", rec, err)
	}
}

func TestSegmentsWithoutCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("orphan segment gave %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"batch", SyncEveryBatch}, {"interval", SyncInterval}, {"off", SyncOff}} {
		p, err := ParseSyncPolicy(tc.in)
		if err != nil || p != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Fatalf("String() = %q, want %q", p.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("always"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
