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
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/shard"
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
	opt := core.Options{Workers: 2, AdaptiveCommunities: true}
	sys := core.New(g, algo.NewSSSP(0), opt)
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
			continue // scalars and the shards array
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
		engineAll     = "activations boundary_pins pool_utilization replayed_batches resets rounds shard_rounds subgraphs_parallel update_seconds"
		relayerAlways = "full_relayers in_flight last_swap_seq membership_moves shortcut_hit_ewma skeleton_baseline skeleton_fraction touched_ratio_ewma"
		relayerComms  = "community_ids full_relayers in_flight last_swap_seq live_communities membership_moves shortcut_hit_ewma skeleton_baseline skeleton_fraction touched_ratio_ewma"
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

	seeded := metricsKeys(t, stream.Config{StartStats: inc.Stats{ReplayedBatches: 1, ShardRounds: 1, BoundaryPins: 1}}, nil)
	check("seeded", seeded, "engine", engineAll)

	// Eight batches under the default 16-batch cooldown: no trigger
	// evaluation, so the community gauges and the trigger name are unset.
	cooldown := metricsKeys(t, stream.Config{Relayer: &stream.RelayerConfig{}}, nil)
	check("cooldown", cooldown, "relayer", relayerAlways)

	// Armed every batch with thresholds that cannot fire: the evaluation
	// falls through to the dead-community check, which reads the engine's
	// community gauges.
	armed := metricsKeys(t, stream.Config{Relayer: &stream.RelayerConfig{
		MinBatches: 1, TouchedRatioThreshold: 1, SkeletonGrowthFactor: 1e6, DeadCommunityFraction: 1,
	}}, nil)
	check("armed", armed, "relayer", relayerComms)

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

// TestMetricsShardsFollowServingEngine: the shards block is read off the
// engine serving the stream, so a sharded stream reports one summary per
// shard with no extra wiring, and a server over an unsharded stream has
// no block.
func TestMetricsShardsFollowServingEngine(t *testing.T) {
	mkGraph := func() *graph.Graph {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 300, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
			Weighted: true, Seed: 43,
		})
		return g
	}
	const k = 3
	g := mkGraph()
	sharded := stream.New(g, shard.New(g, algo.NewSSSP(0), shard.Options{Shards: k, Threads: 1}), stream.Config{})
	defer sharded.Close()
	srv := New(sharded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp struct {
		Shards []json.RawMessage `json:"shards"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "", nil, &resp); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if len(resp.Shards) != k {
		t.Fatalf("sharded stream reports %d shards, want %d", len(resp.Shards), k)
	}

	g2 := mkGraph()
	plain := stream.New(g2, core.New(g2, algo.NewSSSP(0), core.Options{Workers: 1}), stream.Config{})
	defer plain.Close()
	ts2 := httptest.NewServer(New(plain, Config{}).Handler())
	defer ts2.Close()
	var blocks map[string]json.RawMessage
	if code, raw := doJSON(t, http.MethodGet, ts2.URL+"/metrics", "", nil, &blocks); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if _, ok := blocks["shards"]; ok {
		t.Fatalf("unsharded stream still reports shards: %s", blocks["shards"])
	}
}
