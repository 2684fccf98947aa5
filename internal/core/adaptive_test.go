package core

import (
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/gen"
)

// TestAdaptiveDriftMigratesAndHoldsInvariants drives an adaptive engine
// through community-migration churn and pins that (a) the incremental
// adjustment actually migrates memberships, (b) every update leaves the
// layered structure invariant-clean (CheckInvariants after each Update), and (c) the quality
// gauges stay in range.
func TestAdaptiveDriftMigratesAndHoldsInvariants(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 3,
	})
	l := New(g, algo.NewSSSP(0), Options{Workers: 2, AdaptiveCommunities: true})
	genr := delta.NewGenerator(17)
	var moves int64
	for i := 0; i < 10; i++ {
		batch := genr.MigrationBatch(g, 15, 4, true)
		batch = append(batch, genr.EdgeBatch(g, 40, true)...)
		st := l.Update(delta.Apply(g, batch))
		moves += st.MembershipMoves
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: invariants violated after adaptive update: %v", i, err)
		}
		if st.TouchedSubgraphRatio < 0 || st.TouchedSubgraphRatio > 1 {
			t.Fatalf("batch %d: touched ratio out of range: %v", i, st.TouchedSubgraphRatio)
		}
		if st.SkeletonFraction <= 0 || st.SkeletonFraction > 1 {
			t.Fatalf("batch %d: skeleton fraction out of range: %v", i, st.SkeletonFraction)
		}
		if st.ShortcutHitRate < 0 || st.ShortcutHitRate > 1 {
			t.Fatalf("batch %d: shortcut hit rate out of range: %v", i, st.ShortcutHitRate)
		}
	}
	if moves == 0 {
		t.Fatal("adaptive mode never migrated a vertex under migration churn")
	}
	live, ids := l.CommunityStats()
	if live <= 0 || live > ids {
		t.Fatalf("CommunityStats out of range: live=%d ids=%d", live, ids)
	}
}

// TestAdaptiveOffLeavesPartitionFrozen pins the default: without
// AdaptiveCommunities no membership ever moves, whatever the churn.
func TestAdaptiveOffLeavesPartitionFrozen(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 400, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 4,
	})
	l := New(g, algo.NewSSSP(0), Options{Workers: 2})
	before := append([]int32(nil), l.part.Comm...)
	genr := delta.NewGenerator(5)
	for i := 0; i < 5; i++ {
		batch := genr.MigrationBatch(g, 12, 4, true)
		st := l.Update(delta.Apply(g, batch))
		if st.MembershipMoves != 0 {
			t.Fatalf("batch %d: frozen engine reported %d membership moves", i, st.MembershipMoves)
		}
	}
	for v, c := range before {
		if l.part.Comm[v] != c {
			t.Fatalf("vertex %d: community changed %d -> %d with adaptivity off", v, c, l.part.Comm[v])
		}
	}
}
