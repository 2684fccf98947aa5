package layph

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"layph/internal/stream"
)

// pushAll feeds a batch into the stream as unit updates and drains it.
func pushAll(t *testing.T, st *Stream, b Batch) {
	t.Helper()
	for _, u := range b {
		if err := st.Push(u); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// driftRound generates one community-migration churn round against the
// driver graph (which tracks the stream's logical graph state).
func driftRound(gen *BatchGenerator, driver *Graph) Batch {
	b := gen.MigrationBatch(driver, 15, 4, true)
	b = append(b, gen.EdgeBatch(driver, 40, true)...)
	return b
}

// TestStreamRelayerSwapsUnderDrift runs the full pipeline: a frozen
// Layph engine behind a stream with the drift controller enabled, under
// community-migration churn. It asserts that (a) at least one background
// full re-layer completes and is swapped in mid-stream, (b) every drained
// snapshot — before, across and after swaps — matches the restart oracle
// on the same logical graph (the atomic-swap consistency check), and (c)
// the relayer metrics are coherent.
func TestStreamRelayerSwapsUnderDrift(t *testing.T) {
	cfg := Config{Threads: 2}
	g := GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 600, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 11,
	})
	driver := g.Clone()
	rc := &RelayerConfig{}
	rc.MinBatches = 2
	rc.SkeletonGrowthFactor = 1.05
	st := NewStream(g, NewLayph(g, SSSP(0), cfg), StreamConfig{
		MaxBatch: 64, MaxDelay: -1, Relayer: rc,
	})
	defer st.Close()

	gen := NewBatchGenerator(23)
	check := func(round int) {
		snap := st.Query()
		want := Run(driver, SSSP(0), 2)
		if len(snap.States) < driver.Cap() {
			t.Fatalf("round %d: snapshot too short", round)
		}
		if !StatesClose(snap.States[:driver.Cap()], want, 1e-6) {
			t.Fatalf("round %d: snapshot diverged from restart oracle", round)
		}
	}
	for i := 0; i < 10; i++ {
		b := driftRound(gen, driver)
		ApplyBatch(driver, b)
		pushAll(t, st, b)
		check(i)
	}
	// The drift rounds push skeleton fraction past the (aggressive)
	// threshold; keep streaming small batches until the background build
	// lands and is swapped in.
	deadline := time.Now().Add(30 * time.Second)
	for st.Metrics().Relayer.FullRelayers == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no full re-layer completed; relayer metrics: %+v", st.Metrics().Relayer)
		}
		b := gen.EdgeBatch(driver, 20, true)
		ApplyBatch(driver, b)
		pushAll(t, st, b)
		check(-1)
	}
	// Post-swap: the stream must keep absorbing updates consistently on
	// the fresh engine.
	for i := 0; i < 3; i++ {
		b := driftRound(gen, driver)
		ApplyBatch(driver, b)
		pushAll(t, st, b)
		check(100 + i)
	}
	m := st.Metrics().Relayer
	if !m.Enabled || m.FullRelayers < 1 {
		t.Fatalf("relayer metrics incoherent: %+v", m)
	}
	if m.LastTrigger == "" {
		t.Fatal("swap completed without a recorded trigger reason")
	}
	if m.TouchedRatioEWMA < 0 || m.TouchedRatioEWMA > 1 || m.SkeletonFraction <= 0 {
		t.Fatalf("quality gauges out of range: %+v", m)
	}
}

// TestStreamRelayerMinDeterminism pins the determinism contract with the
// relayer enabled: background build *completion* is scheduling-dependent,
// but the swap lands exactly SwapLagBatches applied batches after the
// (deterministic) trigger, so which layering serves which batch is a pure
// function of the input stream — identical inputs at a fixed thread count
// must produce byte-identical drained snapshots and the same swap count.
func TestStreamRelayerMinDeterminism(t *testing.T) {
	run := func() ([]float64, int64) {
		cfg := Config{Threads: 4}
		g := GenerateCommunityGraph(CommunityGraphConfig{
			Vertices: 500, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
			Weighted: true, Seed: 31,
		})
		driver := g.Clone()
		rc := &RelayerConfig{}
		rc.MinBatches = 1
		rc.SkeletonGrowthFactor = 1.01
		rc.SwapLagBatches = 2
		st := NewStream(g, NewLayph(g, SSSP(0), cfg), StreamConfig{
			MaxBatch: 32, MaxDelay: -1, Relayer: rc,
		})
		gen := NewBatchGenerator(77)
		for i := 0; i < 8; i++ {
			b := driftRound(gen, driver)
			ApplyBatch(driver, b)
			pushAll(t, st, b)
		}
		snap := st.Query()
		out := append([]float64(nil), snap.States[:driver.Cap()]...)
		swaps := st.Metrics().Relayer.FullRelayers
		st.Close()
		return out, swaps
	}
	want, wantSwaps := run()
	if wantSwaps < 1 {
		t.Fatalf("determinism run never swapped (FullRelayers=%d); thresholds too lax for the schedule", wantSwaps)
	}
	for rep := 0; rep < 2; rep++ {
		got, swaps := run()
		if swaps != wantSwaps {
			t.Fatalf("rep %d: %d swaps, want %d (swap boundary not deterministic)", rep, swaps, wantSwaps)
		}
		if len(got) != len(want) {
			t.Fatalf("rep %d: length %d != %d", rep, len(got), len(want))
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("rep %d: vertex %d = %v, want %v (byte-identical contract broken with relayer on)", rep, v, got[v], want[v])
			}
		}
	}
}

// TestStreamRelayerDisabledMetrics pins the off state: a stream without a
// relayer reports Enabled=false and never swaps.
func TestStreamRelayerDisabledMetrics(t *testing.T) {
	g := demoGraph()
	st := NewStream(g, NewLayph(g, SSSP(0), Config{Threads: 2}), StreamConfig{MaxBatch: 32, MaxDelay: -1})
	defer st.Close()
	gen := NewBatchGenerator(3)
	pushAll(t, st, gen.EdgeBatch(g, 40, true))
	m := st.Metrics().Relayer
	if m.Enabled || m.FullRelayers != 0 || m.InFlight {
		t.Fatalf("relayer should be disabled: %+v", m)
	}
}

// TestRelayerCrashRecovery composes the relayer with the write-ahead log: a
// durable stream re-layers under drift, and at every batch from a trigger
// to two batches past its landing the OnBatch hook snapshots the
// durability directory as a kill -9 would leave it. Every image must
// recover with verified checkpoint states and serve the restart fixpoint
// of its logical graph.
func TestRelayerCrashRecovery(t *testing.T) {
	cfg := Config{Threads: 2}
	build := func(g *Graph) System { return NewLayph(g, SSSP(0), cfg) }
	g := GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 500, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 47,
	})
	driver := g.Clone()
	dir, images := t.TempDir(), t.TempDir()
	walCfg := WALConfig{Sync: SyncOff, CheckpointEvery: 3, Meta: "algo=sssp system=layph"}
	image := func(seq uint64) string { return filepath.Join(images, fmt.Sprintf("crash-%03d", seq)) }

	var ds *DurableStream
	var imaged []uint64
	// One micro-batch per round: every drift round is pushed and drained
	// whole, so batch seq is the round number.
	scfg := StreamConfig{MaxBatch: 1 << 20, MaxDelay: -1,
		Relayer: &RelayerConfig{MinBatches: 2, SkeletonGrowthFactor: 1.02, TouchedRatioThreshold: 0.95, SwapLagBatches: 2},
		OnBatch: func(r stream.BatchResult) {
			m := ds.Stream.Metrics().Relayer
			if !m.InFlight && (m.FullRelayers == 0 || r.Seq > m.LastSwapSeq+2) {
				return
			}
			if err := ds.Log.Wait(); err != nil {
				t.Error(err)
			}
			copyDir(t, dir, image(r.Seq))
			imaged = append(imaged, r.Seq)
		},
	}
	var err error
	ds, err = OpenStream(g, build, DurableStreamConfig{Dir: dir, WAL: walCfg, Stream: scfg})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewBatchGenerator(53)
	logical := []*Graph{driver.Clone()} // logical[seq]: the graph after batch seq
	for round := 0; round < 14; round++ {
		b := driftRound(gen, driver)
		b = append(b, gen.VertexBatch(driver, 2, 2, 3, true)...)
		ApplyBatch(driver, b)
		pushAll(t, ds.Stream, b)
		logical = append(logical, driver.Clone())
	}
	landings := ds.Stream.Metrics().Relayer.FullRelayers
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d landings, crash images at seqs %v", landings, imaged)
	if landings == 0 || len(imaged) < 3 {
		t.Fatalf("%d landings, %d crash images: thresholds too lax for the schedule", landings, len(imaged))
	}

	for _, seq := range imaged {
		rds, err := OpenStream(nil, build, DurableStreamConfig{
			Dir: image(seq), WAL: walCfg, Stream: StreamConfig{MaxBatch: 64, MaxDelay: -1},
		})
		if err != nil {
			t.Fatalf("recover crash image %d: %v", seq, err)
		}
		if rds.Recovery == nil || !rds.Recovery.StatesVerified {
			t.Fatalf("crash image %d: checkpoint states failed verification (%+v)", seq, rds.Recovery)
		}
		snap := rds.Stream.Query()
		want := Run(logical[seq], SSSP(0), 2)
		if snap.Seq != seq || len(snap.States) < len(want) || !StatesClose(snap.States[:len(want)], want, 1e-6) {
			t.Fatalf("crash image %d: resumed at seq %d with states diverging from restart", seq, snap.Seq)
		}
		if err := rds.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
