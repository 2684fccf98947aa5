package layph

// Crash-recovery acceptance test: a seeded update stream runs through a
// durable pipeline, and at EVERY micro-batch boundary the durability
// directory is snapshotted exactly as a kill -9 would leave it. Each
// crash image is then recovered with OpenStream and its served states
// must equal a from-scratch Restart run on the same prefix of updates.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"layph/internal/engine"
	"layph/internal/gen"
)

// copyDir snapshots a durability directory (flat, as wal keeps it).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashRecoveryAtEveryBatchBoundary(t *testing.T) {
	nUpdates, batchSize, ckptEvery := 10000, 500, 8
	if testing.Short() {
		nUpdates, batchSize, ckptEvery = 2000, 500, 3
	}

	mkGraph := func() *Graph {
		return GenerateCommunityGraph(CommunityGraphConfig{
			Vertices: 1000, MeanCommunity: 30, IntraDegree: 7, InterDegree: 0.4,
			Weighted: true, Seed: 91,
		})
	}
	build := func(g *Graph) System {
		return NewLayph(g, SSSP(0), Config{Threads: 1})
	}

	g := mkGraph()
	seq := NewBatchGenerator(92).UnitSequence(g, nUpdates, true)

	dir := t.TempDir()
	images := t.TempDir()
	ds, err := OpenStream(g, build, DurableStreamConfig{
		Dir: dir,
		WAL: WALConfig{Sync: SyncOff, CheckpointEvery: ckptEvery, Meta: "algo=sssp system=layph"},
		// MaxDelay off: batches flush exactly on the count trigger, so
		// the boundary structure below is deterministic.
		Stream: StreamConfig{MaxBatch: batchSize, MaxDelay: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Recovery != nil {
		t.Fatalf("fresh dir reported recovery %+v", ds.Recovery)
	}

	// Drive the stream one micro-batch at a time; after each published
	// boundary, snapshot the WAL directory as crash image #seq. Crashes
	// in the middle of a checkpoint write are covered in internal/wal.
	nBatches := nUpdates / batchSize
	for b := 0; b < nBatches; b++ {
		for _, u := range seq[b*batchSize : (b+1)*batchSize] {
			if err := ds.Stream.Push(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Stream.Drain(); err != nil {
			t.Fatal(err)
		}
		snap := ds.Stream.Query()
		if snap.Seq != uint64(b+1) || snap.Updates != uint64((b+1)*batchSize) {
			t.Fatalf("after batch %d: seq=%d updates=%d", b, snap.Seq, snap.Updates)
		}
		// A checkpoint cut at this boundary is written in the
		// background; the image is taken once it is durable.
		if err := ds.Log.Wait(); err != nil {
			t.Fatal(err)
		}
		copyDir(t, dir, filepath.Join(images, fmt.Sprintf("crash-%03d", b+1)))
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: replay the same prefix onto a fresh copy of the graph
	// and Restart-compute the states at each boundary.
	refG := mkGraph()
	for b := 1; b <= nBatches; b++ {
		ApplyBatch(refG, Batch(seq[(b-1)*batchSize:b*batchSize]))
		want := engine.RunBatch(refG, SSSP(0), engine.Options{}).X

		img := filepath.Join(images, fmt.Sprintf("crash-%03d", b))
		rds, err := OpenStream(nil, build, DurableStreamConfig{
			Dir:    img,
			WAL:    WALConfig{Sync: SyncOff, CheckpointEvery: ckptEvery, Meta: "algo=sssp system=layph"},
			Stream: StreamConfig{MaxBatch: batchSize, MaxDelay: -1},
		})
		if err != nil {
			t.Fatalf("recover crash image %d: %v", b, err)
		}
		if rds.Recovery == nil {
			t.Fatalf("crash image %d recovered without recovery info", b)
		}
		if !rds.Recovery.StatesVerified {
			t.Fatalf("crash image %d: checkpoint states failed verification", b)
		}
		rsnap := rds.Stream.Query()
		if rsnap.Seq != uint64(b) || rsnap.Updates != uint64(b*batchSize) {
			t.Fatalf("crash image %d resumed at seq=%d updates=%d", b, rsnap.Seq, rsnap.Updates)
		}
		// The recovered tail length is the distance to the last checkpoint.
		if wantTail := int64(b % ckptEvery); rds.Recovery.ReplayedBatches != wantTail {
			t.Fatalf("crash image %d replayed %d batches, want %d", b, rds.Recovery.ReplayedBatches, wantTail)
		}
		if !StatesClose(rsnap.States, want, 1e-6) {
			t.Fatalf("crash image %d: recovered states diverge from Restart reference", b)
		}
		if err := rds.Close(); err != nil {
			t.Fatalf("close recovered stream %d: %v", b, err)
		}
	}

	// A recovered stream must also keep serving: recover the final image
	// once more and push fresh updates through it.
	final := filepath.Join(images, fmt.Sprintf("crash-%03d", nBatches))
	rds, err := OpenStream(nil, build, DurableStreamConfig{
		Dir:    final,
		WAL:    WALConfig{Sync: SyncOff, CheckpointEvery: ckptEvery, Meta: "algo=sssp system=layph"},
		Stream: StreamConfig{MaxBatch: 100, MaxDelay: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	more := NewBatchGenerator(93).UnitSequence(rds.Stream.Graph(), 100, true)
	for _, u := range more {
		if err := rds.Stream.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := rds.Stream.Drain(); err != nil {
		t.Fatal(err)
	}
	post := rds.Stream.Query()
	if post.Seq != uint64(nBatches)+1 || post.Updates != uint64(nUpdates+100) {
		t.Fatalf("post-recovery stream at seq=%d updates=%d", post.Seq, post.Updates)
	}
	ApplyBatch(refG, Batch(more))
	want := engine.RunBatch(refG, SSSP(0), engine.Options{}).X
	if !StatesClose(post.States, want, 1e-6) {
		t.Fatal("post-recovery pushes diverge from Restart reference")
	}
	if err := rds.Close(); err != nil {
		t.Fatal(err)
	}

	// And a clean Close leaves a replay-free image behind.
	rds2, err := OpenStream(nil, build, DurableStreamConfig{
		Dir:    final,
		WAL:    WALConfig{Sync: SyncOff, Meta: "algo=sssp system=layph"},
		Stream: StreamConfig{MaxBatch: 100, MaxDelay: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rds2.Recovery.ReplayedBatches != 0 {
		t.Fatalf("clean shutdown still replayed %d batches", rds2.Recovery.ReplayedBatches)
	}
	if !StatesClose(rds2.Stream.Query().States, want, 1e-6) {
		t.Fatal("clean-restart states diverge")
	}
	if err := rds2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryWithProxyVertices: Layph appends proxy/replica
// vertices past g.Cap() in its flat ID space, so its States() vector is
// longer than the graph. Checkpoints must persist only the real
// vertices (proxies are derived and rebuilt by NewLayph on recovery) —
// a flat-vector checkpoint used to fail its own round-trip with
// "N states but graph capacity M".
func TestCrashRecoveryWithProxyVertices(t *testing.T) {
	g := gen.Build(gen.PresetUK, 0.02)
	build := func(g *Graph) System {
		return NewLayph(g, SSSP(0), Config{Threads: 1})
	}
	if probe := build(g.Clone()); len(probe.States()) <= g.Cap() {
		t.Fatalf("preset no longer produces proxy vertices (states=%d cap=%d); pick another graph",
			len(probe.States()), g.Cap())
	}

	dir := t.TempDir()
	cfg := DurableStreamConfig{
		Dir:    dir,
		WAL:    WALConfig{Sync: SyncOff, CheckpointEvery: 2, Meta: "algo=sssp system=layph"},
		Stream: StreamConfig{MaxBatch: 200, MaxDelay: -1},
	}
	ds, err := OpenStream(g, build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewBatchGenerator(95).UnitSequence(g, 1000, true)
	for _, u := range seq {
		if err := ds.Stream.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Stream.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := ds.Stream.Query()
	img := t.TempDir()
	if err := ds.Log.Wait(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dir, img) // crash image with 5 batches, checkpoint at 4
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Dir = img
	rds, err := OpenStream(nil, build, cfg)
	if err != nil {
		t.Fatalf("recover proxy-bearing stream: %v", err)
	}
	if rds.Recovery == nil || !rds.Recovery.StatesVerified {
		t.Fatalf("recovery info %+v: checkpoint states failed verification", rds.Recovery)
	}
	rsnap := rds.Stream.Query()
	if rsnap.Seq != snap.Seq || rsnap.Updates != snap.Updates {
		t.Fatalf("recovered at seq=%d updates=%d, want seq=%d updates=%d",
			rsnap.Seq, rsnap.Updates, snap.Seq, snap.Updates)
	}
	// The recovered engine serves the same states for the real vertices.
	// Proxy tails may differ in length/order across rebuilds, so compare
	// the graph-aligned prefix only.
	cap := rds.Stream.Graph().Cap()
	if !StatesClose(rsnap.States[:cap], snap.States[:cap], 1e-6) {
		t.Fatal("recovered real-vertex states diverge from pre-crash snapshot")
	}
	if err := rds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStreamMetaMismatchRefused: resuming a directory under a
// different workload tag must fail instead of serving garbage.
func TestOpenStreamMetaMismatchRefused(t *testing.T) {
	g := GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 200, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.4,
		Weighted: true, Seed: 94,
	})
	dir := t.TempDir()
	build := func(g *Graph) System { return NewIngress(g, SSSP(0), 1) }
	ds, err := OpenStream(g, build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=sssp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStream(nil, build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=pagerank"},
	})
	if err == nil {
		t.Fatal("meta mismatch accepted")
	}
	// Same tag (or an empty one) resumes fine.
	ds2, err := OpenStream(nil, build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=sssp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStreamDirLocked verifies the exclusive-directory contract at
// the facade level: while a durable stream is live, a second OpenStream
// on the same directory fails with ErrWALLocked; after Close it succeeds.
func TestOpenStreamDirLocked(t *testing.T) {
	g := GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 200, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.4,
		Weighted: true, Seed: 95,
	})
	dir := t.TempDir()
	build := func(g *Graph) System { return NewIngress(g, SSSP(0), 1) }
	ds, err := OpenStream(g, build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=sssp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(g.Clone(), build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=sssp"},
	}); !errors.Is(err, ErrWALLocked) {
		t.Fatalf("second OpenStream: got err %v, want ErrWALLocked", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := OpenStream(nil, build, DurableStreamConfig{
		Dir: dir, WAL: WALConfig{Sync: SyncOff, Meta: "algo=sssp"},
	})
	if err != nil {
		t.Fatalf("OpenStream after Close: %v", err)
	}
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
}
