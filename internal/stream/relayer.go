package stream

import (
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
)

// RelayerConfig configures the adaptive re-layering controller (set as
// Config.Relayer). After every applied micro-batch the controller folds the
// engine's layering-quality signal (inc.Stats: touched-subgraph ratio,
// skeleton fraction, shortcut hit rate) into exponentially-weighted moving
// averages; when quality decays past the thresholds it launches a full
// re-layer — Build on a clone of the live graph — in the background, keeps
// streaming on the old engine while recording the applied micro-batches,
// then replays that tail on the fresh engine and atomically swaps it in at
// a deterministic batch boundary (SwapLagBatches after the trigger). The incremental half of adaptivity (per-batch subgraph
// splits/merges) lives in the engine itself (core.Options.
// AdaptiveCommunities); the controller is the backstop that bounds drift
// the incremental adjustment cannot repair, and a full re-layer is the
// point where dead community ids are reclaimed.
type RelayerConfig struct {
	// Build constructs a fresh engine over a snapshot graph: full community
	// re-detection, layer construction and the initial batch run. Required.
	// It runs on a background goroutine and must not share state with the
	// live engine.
	Build func(*graph.Graph) inc.System

	// TouchedRatioThreshold triggers a full re-layer when the EWMA of the
	// per-update touched-subgraph ratio exceeds it (0 = 0.35). A drifted
	// layering forces updates into ever more subgraphs.
	TouchedRatioThreshold float64
	// SkeletonGrowthFactor triggers when the skeleton fraction exceeds the
	// post-(re)layer baseline by this factor (0 = 1.5): community drift
	// dissolves dense subgraphs and the skeleton — the global-iteration
	// working set — swells.
	SkeletonGrowthFactor float64
	// DeadCommunityFraction triggers when the fraction of allocated
	// community ids without members exceeds it (0 = 0.5). Incremental
	// adjustment keeps ids stable, so dead ids accumulate until a full
	// re-layer compacts them; engines expose the gauge via
	// CommunityStats() (live, ids int).
	DeadCommunityFraction float64
	// MinBatches is the cooldown: applied batches that must pass after a
	// (re)build before the next trigger evaluation (0 = 16).
	MinBatches int
	// SwapLagBatches fixes the batch boundary the swap lands on: exactly
	// this many applied micro-batches after the trigger (0 = 8). The
	// background build has that window to complete; if it is still running
	// at the boundary the worker waits for it there. Pinning the boundary
	// to the update sequence — instead of "whenever the build happens to
	// finish" — is what keeps the determinism contract intact with the
	// relayer enabled: which layering serves which batch is a pure function
	// of the input stream, never of scheduling, so min-scheme runs stay
	// byte-identical across repeats.
	SwapLagBatches int
}

func (c RelayerConfig) withDefaults() RelayerConfig {
	if c.TouchedRatioThreshold == 0 {
		c.TouchedRatioThreshold = 0.35
	}
	if c.SkeletonGrowthFactor == 0 {
		c.SkeletonGrowthFactor = 1.5
	}
	if c.DeadCommunityFraction == 0 {
		c.DeadCommunityFraction = 0.5
	}
	if c.MinBatches == 0 {
		c.MinBatches = 16
	}
	if c.SwapLagBatches <= 0 {
		c.SwapLagBatches = 8
	}
	return c
}

// relayerAlpha is the smoothing factor of the quality-signal EWMAs.
const relayerAlpha = 0.2

// RelayerMetrics is the state of the drift controller; the json tags name
// the keys of the /metrics "relayer" block.
type RelayerMetrics struct {
	// Enabled reports whether a relayer is configured on the stream
	// (/metrics shows the block only then).
	Enabled bool `json:"-"`
	// FullRelayers counts completed background re-layer swaps; InFlight
	// reports a build currently running.
	FullRelayers int64 `json:"full_relayers"`
	InFlight     bool  `json:"in_flight"`
	// ReplayedBatches counts micro-batches replayed onto fresh engines
	// before their swaps (cumulative).
	ReplayedBatches int64 `json:"replayed_batches"`
	// TouchedRatioEWMA / ShortcutHitEWMA are the smoothed quality signals;
	// SkeletonFraction is the last observed raw value and SkeletonBaseline
	// the post-(re)layer reference it is compared against.
	TouchedRatioEWMA float64 `json:"touched_ratio_ewma"`
	ShortcutHitEWMA  float64 `json:"shortcut_hit_ewma"`
	SkeletonFraction float64 `json:"skeleton_fraction"`
	SkeletonBaseline float64 `json:"skeleton_baseline"`
	// MembershipMoves accumulates the engine's adaptive migration count.
	MembershipMoves int64 `json:"membership_moves"`
	// LiveCommunities / CommunityIDs mirror the engine's CommunityStats at
	// the last trigger evaluation (0/0 when the engine does not expose it).
	LiveCommunities int `json:"live_communities,omitempty"`
	CommunityIDs    int `json:"community_ids,omitempty"`
	// LastSwapSeq is the snapshot sequence the latest swap landed on;
	// LastTrigger names the threshold that fired it.
	LastSwapSeq uint64 `json:"last_swap_seq"`
	LastTrigger string `json:"last_trigger,omitempty"`
}

type relayerResult struct {
	g   *graph.Graph
	sys inc.System
}

// relayerState is worker-goroutine-owned; Metrics() reads the copy the
// worker publishes under Stream.mu after every step.
type relayerState struct {
	cfg     RelayerConfig
	resultC chan relayerResult
	// tail holds the micro-batches applied to the live engine since the
	// in-flight build's graph clone was taken; they are replayed on the
	// fresh engine before the swap so it lands at the same logical
	// position.
	tail     []delta.Batch
	inFlight bool
	// swapDue counts down the applied batches remaining until the
	// deterministic swap boundary (meaningful only while inFlight).
	swapDue    int
	sinceBuild int
	ewmaSeeded bool
	baseSeeded bool
	m          RelayerMetrics
}

// relayerStep runs on the worker after each flushed micro-batch: collect
// the tail while a build is in flight (swapping at the deterministic
// boundary), fold the quality signal, and evaluate the triggers.
func (s *Stream) relayerStep(batch delta.Batch, st inc.Stats, applied bool, snap *Snapshot) {
	rl := s.rl
	if rl.inFlight {
		rl.tail = append(rl.tail, batch)
		if applied {
			rl.swapDue--
		}
		if rl.swapDue <= 0 {
			// The deterministic boundary: block for the build if it is
			// still running (the SwapLagBatches window is its headroom), so
			// the swap position depends only on the update sequence.
			s.relayerSwap(<-rl.resultC, snap)
		}
	}
	if applied {
		rl.sinceBuild++
		if !rl.ewmaSeeded {
			rl.ewmaSeeded = true
			rl.m.TouchedRatioEWMA = st.TouchedSubgraphRatio
			rl.m.ShortcutHitEWMA = st.ShortcutHitRate
		} else {
			rl.m.TouchedRatioEWMA += relayerAlpha * (st.TouchedSubgraphRatio - rl.m.TouchedRatioEWMA)
			rl.m.ShortcutHitEWMA += relayerAlpha * (st.ShortcutHitRate - rl.m.ShortcutHitEWMA)
		}
		rl.m.SkeletonFraction = st.SkeletonFraction
		if !rl.baseSeeded {
			rl.baseSeeded = true
			rl.m.SkeletonBaseline = st.SkeletonFraction
		}
		rl.m.MembershipMoves += st.MembershipMoves
		s.relayerMaybeTrigger()
	}
	s.mu.Lock()
	s.rlm = rl.m
	s.mu.Unlock()
}

func (s *Stream) relayerMaybeTrigger() {
	rl := s.rl
	if rl.inFlight || rl.sinceBuild < rl.cfg.MinBatches {
		return
	}
	reason := ""
	switch {
	case rl.m.TouchedRatioEWMA > rl.cfg.TouchedRatioThreshold:
		reason = "touched-ratio"
	case rl.baseSeeded && rl.m.SkeletonBaseline > 0 &&
		rl.m.SkeletonFraction > rl.m.SkeletonBaseline*rl.cfg.SkeletonGrowthFactor:
		reason = "skeleton-growth"
	default:
		if cs, ok := s.sys.(interface{ CommunityStats() (int, int) }); ok {
			live, ids := cs.CommunityStats()
			rl.m.LiveCommunities, rl.m.CommunityIDs = live, ids
			if ids > 0 && float64(ids-live)/float64(ids) > rl.cfg.DeadCommunityFraction {
				reason = "dead-communities"
			}
		}
	}
	if reason == "" {
		return
	}
	rl.m.LastTrigger = reason
	rl.m.InFlight = true
	rl.inFlight = true
	rl.swapDue = rl.cfg.SwapLagBatches
	rl.tail = nil
	// The clone is taken at a batch boundary, so the background build sees
	// a consistent graph it exclusively owns; everything applied to the
	// live engine from here on is recorded in the tail.
	g2 := s.g.Clone()
	build := rl.cfg.Build
	go func() {
		// resultC is buffered: if the stream closes before the build lands,
		// the send completes and the result is simply dropped.
		rl.resultC <- relayerResult{g: g2, sys: build(g2)}
	}()
}

// relayerSwap replays the tail on the freshly built engine and swaps it
// into the stream. Runs on the worker at a batch boundary: producers keep
// queueing, no published snapshot ever mixes old and new engines, and the
// swapped-in states are re-published under the current sequence number
// (idempotent schemes converge to the identical fixpoint; non-idempotent
// ones agree within the engine tolerance).
func (s *Stream) relayerSwap(res relayerResult, snap *Snapshot) {
	rl := s.rl
	for _, b := range rl.tail {
		if ap := delta.Apply(res.g, b); !ap.Empty() {
			res.sys.Update(ap)
		}
		rl.m.ReplayedBatches++
	}
	rl.tail = nil
	rl.inFlight = false
	rl.sinceBuild = 0
	rl.baseSeeded = false
	rl.m.InFlight = false
	rl.m.FullRelayers++
	rl.m.LastSwapSeq = snap.Seq
	s.mu.Lock()
	s.g = res.g
	s.sys = res.sys
	s.mu.Unlock()
	s.snap.Store(&Snapshot{
		Seq:     snap.Seq,
		Updates: snap.Updates,
		States:  copyStates(res.sys.States()),
		At:      time.Now(),
	})
}
