package stream

import (
	"time"

	"layph/internal/graph"
	"layph/internal/inc"
)

// RelayerConfig configures the re-layering drift controller (set as
// Config.Relayer). After every applied micro-batch the controller folds the
// engine's layering-quality signal (inc.Stats: touched-subgraph ratio,
// skeleton fraction, shortcut hit rate) into exponentially-weighted moving
// averages; when quality decays past the thresholds it re-detects the
// communities of a clone of the live graph in the background while the
// stream keeps applying batches, and lands them on the live engine at a
// deterministic batch boundary (SwapLagBatches after the trigger),
// rebuilding only the changed communities. The engine keeps its layering
// frozen between landings, so the relayer is its only drift repair: the
// paper's "update the dense subgraphs only when enough ΔG are accumulated".
type RelayerConfig struct {
	// TouchedRatioThreshold triggers a re-layer when the EWMA of the
	// per-update touched-subgraph ratio exceeds it (0 = 0.35). A drifted
	// layering forces updates into ever more subgraphs.
	TouchedRatioThreshold float64
	// SkeletonGrowthFactor triggers when the skeleton fraction exceeds the
	// post-(re)layer baseline by this factor (0 = 1.5): community drift
	// dissolves dense subgraphs and the skeleton — the global-iteration
	// working set — swells.
	SkeletonGrowthFactor float64
	// MinBatches is the cooldown: applied batches that must pass after a
	// (re)build before the next trigger evaluation (0 = 16).
	MinBatches int
	// SwapLagBatches fixes the batch boundary the landing happens at:
	// exactly this many applied micro-batches after the trigger (0 = 8).
	// The background detection has that window to complete; if it is still
	// running at the boundary the worker waits for it there. Pinning the
	// boundary to the update sequence — instead of "whenever detection
	// happens to finish" — is what keeps the determinism contract intact
	// with the relayer enabled: which layering serves which batch is a pure
	// function of the input stream, never of scheduling, so min-scheme runs
	// stay byte-identical across repeats.
	SwapLagBatches int
}

// redetector is an engine whose layering the relayer can renew
// (core.Layph). Redetect detects communities on g, a graph clone the caller
// owns, on any goroutine; the returned landing must run on the goroutine
// that updates the engine.
type redetector interface {
	Redetect(g *graph.Graph) func() inc.Stats
}

func (c RelayerConfig) withDefaults() RelayerConfig {
	if c.TouchedRatioThreshold == 0 {
		c.TouchedRatioThreshold = 0.35
	}
	if c.SkeletonGrowthFactor == 0 {
		c.SkeletonGrowthFactor = 1.5
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
	// FullRelayers counts completed re-layer landings; InFlight reports a
	// re-layer between its trigger and its landing.
	FullRelayers int64 `json:"full_relayers"`
	InFlight     bool  `json:"in_flight"`
	// TouchedRatioEWMA / ShortcutHitEWMA are the smoothed quality signals;
	// SkeletonFraction is the last observed raw value and SkeletonBaseline
	// the post-(re)layer reference it is compared against.
	TouchedRatioEWMA float64 `json:"touched_ratio_ewma"`
	ShortcutHitEWMA  float64 `json:"shortcut_hit_ewma"`
	SkeletonFraction float64 `json:"skeleton_fraction"`
	SkeletonBaseline float64 `json:"skeleton_baseline"`
	// MembershipMoves accumulates the vertices the landings migrated.
	MembershipMoves int64 `json:"membership_moves"`
	// LastSwapSeq is the snapshot sequence the latest landing
	// re-published; LastTrigger names the threshold that fired it.
	LastSwapSeq uint64 `json:"last_swap_seq"`
	LastTrigger string `json:"last_trigger,omitempty"`
}

// relayerState is worker-goroutine-owned; Metrics() reads the copy the
// worker publishes under Stream.mu after every step.
type relayerState struct {
	cfg RelayerConfig
	sys redetector
	// landC carries the landing of the in-flight re-detection (buffered, so
	// a detection that finishes after the stream closed does not block).
	landC chan func() inc.Stats
	// landDue counts down the applied batches remaining until the
	// deterministic landing boundary (meaningful only while m.InFlight).
	landDue    int
	sinceBuild int
	ewmaSeeded bool
	baseSeeded bool
	m          RelayerMetrics
}

// relayerStep runs on the worker after each flushed micro-batch: land the
// in-flight re-detection at its deterministic boundary, fold the quality
// signal, and evaluate the triggers.
func (s *Stream) relayerStep(st inc.Stats, applied bool, snap *Snapshot) {
	rl := s.rl
	if rl.m.InFlight {
		if applied {
			rl.landDue--
		}
		if rl.landDue <= 0 {
			// The deterministic boundary: block for the detection if it is
			// still running (the SwapLagBatches window is its headroom), so
			// the landing position depends only on the update sequence.
			s.relayerLand(<-rl.landC, snap)
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
		s.relayerMaybeTrigger()
	}
	s.mu.Lock()
	s.rlm = rl.m
	s.mu.Unlock()
}

func (s *Stream) relayerMaybeTrigger() {
	rl := s.rl
	if rl.m.InFlight || rl.sinceBuild < rl.cfg.MinBatches {
		return
	}
	reason := ""
	switch {
	case rl.m.TouchedRatioEWMA > rl.cfg.TouchedRatioThreshold:
		reason = "touched-ratio"
	case rl.baseSeeded && rl.m.SkeletonBaseline > 0 &&
		rl.m.SkeletonFraction > rl.m.SkeletonBaseline*rl.cfg.SkeletonGrowthFactor:
		reason = "skeleton-growth"
	}
	if reason == "" {
		return
	}
	rl.m.LastTrigger = reason
	rl.m.InFlight = true
	rl.landDue = rl.cfg.SwapLagBatches
	// The clone is taken at a batch boundary, so the background detection
	// sees a consistent graph it exclusively owns; the landing accounts for
	// what the live graph gains and loses meanwhile.
	g2 := s.g.Clone()
	go func() { rl.landC <- rl.sys.Redetect(g2) }()
}

// relayerLand lands the re-detected partition on the live engine. Runs on
// the worker at a batch boundary: producers keep queueing, the landing
// rebuilds only the communities that changed and repairs the states, and
// the repaired states are re-published under the current sequence number
// (idempotent schemes converge to the identical fixpoint; non-idempotent
// ones agree within the engine tolerance).
func (s *Stream) relayerLand(land func() inc.Stats, snap *Snapshot) {
	st := land()
	rl := s.rl
	rl.sinceBuild = 0
	rl.baseSeeded = false
	rl.m.InFlight = false
	rl.m.FullRelayers++
	rl.m.LastSwapSeq = snap.Seq
	rl.m.MembershipMoves += st.MembershipMoves
	s.mu.Lock()
	s.agg.Add(st)
	s.mu.Unlock()
	s.snap.Store(&Snapshot{
		Seq:     snap.Seq,
		Updates: snap.Updates,
		States:  copyStates(s.sys.States()),
		At:      time.Now(),
	})
}
