package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/inc"
	"layph/internal/stream"
	"layph/internal/wal"
)

// metricsKeys serves /metrics over a Layph SSSP stream built with scfg
// (wal, when non-nil, is attached as the durability hook and to the
// server), pushes 400 unit updates, drains, and returns the sorted JSON
// key set of each top-level object block.
func metricsKeys(t *testing.T, scfg stream.Config, l *wal.Log) map[string]string {
	t.Helper()
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 41,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 2})
	if l != nil {
		if err := l.Start(0, 0, g, sys.States()); err != nil {
			t.Fatal(err)
		}
		scfg.Durability = l
	}
	scfg.MaxBatch, scfg.MaxDelay = 50, -1
	st := stream.New(g, sys, scfg)
	srv := New(st, Config{})
	if l != nil {
		srv.AttachDurability(l, &wal.RecoveryInfo{StatesVerified: true})
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); st.Close() }()

	var buf bytes.Buffer
	if err := delta.WriteUpdates(&buf, delta.NewGenerator(42).UnitSequence(g, 400, true)); err != nil {
		t.Fatal(err)
	}
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/push", "", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("push: %d %s", code, raw)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	var blocks map[string]json.RawMessage
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "", nil, &blocks); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	out := make(map[string]string)
	for name, raw := range blocks {
		var obj map[string]json.RawMessage
		if json.Unmarshal(raw, &obj) != nil {
			continue // scalars
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[name] = strings.Join(keys, " ")
	}
	return out
}

// TestMetricsBlockKeys pins the JSON key sets of the engine, relayer and
// wal blocks of /metrics, including which keys are omitted when zero:
// dashboards and the CI smoke jobs read these names.
func TestMetricsBlockKeys(t *testing.T) {
	const (
		engineAlways  = "activations pool_utilization resets rounds subgraphs_parallel update_seconds"
		engineAll     = "activations pool_utilization replayed_batches resets rounds subgraphs_parallel update_seconds"
		relayerAlways = "full_relayers in_flight last_swap_seq membership_moves shortcut_hit_ewma skeleton_baseline skeleton_fraction touched_ratio_ewma"
		relayerSwap   = "full_relayers in_flight last_swap_seq last_trigger membership_moves shortcut_hit_ewma skeleton_baseline skeleton_fraction touched_ratio_ewma"
		walAll        = "batches bytes checkpoint_seconds checkpoints failures fsyncs last_checkpoint_seq log_failures policy updates"
	)
	check := func(name string, got map[string]string, block, want string) {
		t.Helper()
		if got[block] != want {
			t.Errorf("%s: %s keys\n got  %q\n want %q", name, block, got[block], want)
		}
	}

	plain := metricsKeys(t, stream.Config{}, nil)
	check("plain", plain, "engine", engineAlways)
	for _, block := range []string{"relayer", "wal", "recovery"} {
		if _, ok := plain[block]; ok {
			t.Errorf("plain: unexpected %s block", block)
		}
	}

	seeded := metricsKeys(t, stream.Config{StartStats: inc.Stats{ReplayedBatches: 1}}, nil)
	check("seeded", seeded, "engine", engineAll)

	// Eight batches under the default 16-batch cooldown: no trigger
	// evaluation, so the trigger name is unset.
	cooldown := metricsKeys(t, stream.Config{Relayer: &stream.RelayerConfig{}}, nil)
	check("cooldown", cooldown, "relayer", relayerAlways)

	// Armed every batch with thresholds that cannot fire: the evaluation
	// runs and names no trigger.
	armed := metricsKeys(t, stream.Config{Relayer: &stream.RelayerConfig{
		MinBatches: 1, TouchedRatioThreshold: 1, SkeletonGrowthFactor: 1e6,
	}}, nil)
	check("armed", armed, "relayer", relayerAlways)

	// A touched-ratio trigger on the first evaluation names itself.
	swapped := metricsKeys(t, stream.Config{Relayer: &stream.RelayerConfig{
		MinBatches: 1, TouchedRatioThreshold: 1e-9, SwapLagBatches: 1,
	}}, nil)
	check("swapped", swapped, "relayer", relayerSwap)

	l, _, err := wal.Open(t.TempDir(), wal.Config{Sync: wal.SyncOff, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	durable := metricsKeys(t, stream.Config{}, l)
	check("durable", durable, "wal", walAll)
}
