package layph

import (
	"testing"
)

// TestStreamedMatchesRestart10k is the streaming acceptance check: 10,000
// unit updates pushed through layph.NewStream with the Layph engine on
// SSSP must leave a final state vector matching both the one-shot
// ApplyBatch+Update path and the from-scratch Run restart baseline.
func TestStreamedMatchesRestart10k(t *testing.T) {
	g := GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 2000, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.3,
		Weighted: true, Seed: 11,
	})
	pristine := g.Clone()

	// Pre-generate 10k valid unit updates (the generator evolves a
	// private clone so deletions stay valid in sequence order).
	seq := NewBatchGenerator(17).UnitSequence(g, 10000, true)

	sys := NewLayph(g, SSSP(0), Config{Threads: 2})
	st := NewStream(g, sys, StreamConfig{MaxBatch: 500, MaxDelay: -1})
	for _, u := range seq {
		if err := st.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := st.Query()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Updates != 10000 {
		t.Fatalf("stream applied %d updates, want 10000", snap.Updates)
	}
	if m := st.Metrics(); m.Batches < 20 {
		t.Fatalf("stream flushed %d batches, want >= 20 with MaxBatch=500", m.Batches)
	}

	// One-shot path: the whole sequence as a single batch through a fresh
	// Layph engine on the pristine graph.
	oneShot := NewLayph(pristine, SSSP(0), Config{Threads: 2})
	oneShot.Update(ApplyBatch(pristine, Batch(seq)))
	n := g.Cap()
	if !StatesClose(snap.States[:n], oneShot.States()[:n], 1e-6) {
		t.Fatal("streamed states differ from one-shot ApplyBatch+Update")
	}

	// Restart baseline on the final (stream-mutated) graph.
	want := Run(g, SSSP(0), 2)
	if !StatesClose(snap.States[:n], want[:n], 1e-6) {
		t.Fatal("streamed states differ from Run restart baseline")
	}
}

// TestStreamTextFormatExposed exercises the public wire-format helpers.
func TestStreamTextFormatExposed(t *testing.T) {
	u, err := ParseUpdate("a 3 4 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if u.Kind != AddEdge || u.U != 3 || u.V != 4 || u.W != 2.5 {
		t.Fatalf("parsed %v", u)
	}
}
