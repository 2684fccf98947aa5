package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/stream"
	"layph/internal/wal"
)

// countingDurable tallies what the stream hands the durability hook,
// standing in for a real WAL so the accounting is observable.
type countingDurable struct {
	batches atomic.Int64
	updates atomic.Int64
}

func (c *countingDurable) LogBatch(seq uint64, b delta.Batch) error {
	c.batches.Add(1)
	c.updates.Add(int64(len(b)))
	return nil
}

func (c *countingDurable) AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error {
	return nil
}

// TestPushShutdownRaceAccounting pins the handlePush shutdown contract:
// a batch interrupted mid-push by Shutdown is *partially* accepted, the
// response reports exactly how many updates got in, and every accepted
// update — across all concurrent pushers — is applied, published in the
// final snapshot, and handed to the durability hook. No acknowledged
// update may be lost and no refused update may leak in:
//
//	sum(accepted over all responses) == final snapshot Updates
//	                                 == WAL-logged update count.
func TestPushShutdownRaceAccounting(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 31,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 1})
	dur := &countingDurable{}
	st := stream.New(g, sys, stream.Config{
		MaxBatch: 32, MaxDelay: time.Millisecond, Durability: dur,
	})
	srv := New(st, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seq := delta.NewGenerator(32).UnitSequence(g, 6000, true)

	var accepted atomic.Int64
	var wg sync.WaitGroup
	const pushers = 4
	chunkLen := 20
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			client := &http.Client{}
			for i := p * chunkLen; i < len(seq); i += pushers * chunkLen {
				end := i + chunkLen
				if end > len(seq) {
					end = len(seq)
				}
				var buf bytes.Buffer
				if err := delta.WriteUpdates(&buf, delta.Batch(seq[i:end])); err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Post(ts.URL+"/push", "text/plain", &buf)
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// Both the 200 and the mid-batch 503 body carry the
				// accepted count; the pre-batch "draining" 503 has none
				// (nothing entered). Anything else is a failure.
				var body struct {
					Accepted int    `json:"accepted"`
					Error    string `json:"error"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Errorf("pusher %d: bad response %q", p, raw)
					return
				}
				accepted.Add(int64(body.Accepted))
				if resp.StatusCode == http.StatusServiceUnavailable {
					return // shutdown reached this pusher
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("pusher %d: status %d (%s)", p, resp.StatusCode, raw)
					return
				}
			}
		}(p)
	}

	// Let the pushers get going, then yank the server out from under them.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	snap := st.Query()
	acc := accepted.Load()
	if uint64(acc) != snap.Updates {
		t.Fatalf("clients were told %d updates were accepted, final snapshot holds %d", acc, snap.Updates)
	}
	if logged := dur.updates.Load(); logged != acc {
		t.Fatalf("durability hook saw %d updates, clients were told %d", logged, acc)
	}
	if m := st.Metrics(); m.Applied != acc {
		t.Fatalf("applied %d, accepted %d", m.Applied, acc)
	}
	if acc == 0 {
		t.Fatal("shutdown preempted every push; race not exercised")
	}
}

// TestMetricsExposesWALAndRecovery drives a real wal.Log under the
// stream and checks /metrics grows the wal and recovery sections.
func TestMetricsExposesWALAndRecovery(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 300, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.4,
		Weighted: true, Seed: 33,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 1})
	l, rec, err := wal.Open(t.TempDir(), wal.Config{Sync: wal.SyncOff, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := l.Start(0, 0, g, sys.States()); err != nil {
		t.Fatal(err)
	}
	st := stream.New(g, sys, stream.Config{MaxBatch: 50, MaxDelay: -1, Durability: l})
	defer st.Close()
	defer l.Close()
	srv := New(st, Config{})
	srv.AttachDurability(l, &wal.RecoveryInfo{Seq: 0, StatesVerified: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seq := delta.NewGenerator(34).UnitSequence(g, 500, true)
	var buf bytes.Buffer
	if err := delta.WriteUpdates(&buf, delta.Batch(seq)); err != nil {
		t.Fatal(err)
	}
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/push", "text/plain", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("push: %d %s", code, raw)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}

	var m struct {
		Batches int64 `json:"batches"`
		WAL     *struct {
			Policy      string `json:"policy"`
			Batches     int64  `json:"batches"`
			Updates     int64  `json:"updates"`
			Bytes       int64  `json:"bytes"`
			Checkpoints int64  `json:"checkpoints"`
			LogFailures int64  `json:"log_failures"`
		} `json:"wal"`
		Recovery *struct {
			StatesVerified bool `json:"states_verified"`
		} `json:"recovery"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if m.WAL == nil {
		t.Fatal("metrics response lacks wal section")
	}
	if m.WAL.Policy != "off" || m.WAL.Batches != m.Batches || m.WAL.Updates != 500 || m.WAL.Bytes == 0 {
		t.Fatalf("wal metrics %+v (stream batches %d)", m.WAL, m.Batches)
	}
	// 500 updates in 50-update micro-batches with CheckpointEvery=2: the
	// Start checkpoint plus periodic ones must have fired.
	if m.WAL.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want >= 2", m.WAL.Checkpoints)
	}
	if m.WAL.LogFailures != 0 {
		t.Fatalf("log failures = %d", m.WAL.LogFailures)
	}
	if m.Recovery == nil || !m.Recovery.StatesVerified {
		t.Fatalf("recovery section %+v", m.Recovery)
	}
}

// failingDurable logs every batch but fails every post-publish hook, as
// a WAL whose checkpoint writes hit a full disk does.
type failingDurable struct{ countingDurable }

func (f *failingDurable) AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error {
	return errors.New("checkpoint: disk full")
}

// TestHealthzReportsDurabilityError: /healthz keeps answering 200 (the
// process is alive) but stops saying ok once the stream holds a sticky
// durability error, and names it.
func TestHealthzReportsDurabilityError(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 200, MeanCommunity: 20, IntraDegree: 5, InterDegree: 0.4,
		Weighted: true, Seed: 35,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 1})
	st := stream.New(g, sys, stream.Config{MaxBatch: 10, MaxDelay: -1, Durability: &failingDurable{}})
	defer st.Close()
	ts := httptest.NewServer(New(st, Config{}).Handler())
	defer ts.Close()

	health := func() map[string]any {
		t.Helper()
		var hz map[string]any
		if code, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil, &hz); code != http.StatusOK {
			t.Fatalf("healthz: %d %s", code, raw)
		}
		return hz
	}
	if hz := health(); hz["ok"] != true || hz["durability_error"] != nil {
		t.Fatalf("healthz before any batch: %v", hz)
	}
	for _, u := range delta.NewGenerator(36).UnitSequence(g, 10, true) {
		if err := st.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("drain over a failed durability hook: %v", err)
	}
	hz := health()
	if msg, _ := hz["durability_error"].(string); hz["ok"] != false || !strings.Contains(msg, "disk full") {
		t.Fatalf("healthz over a failed durability hook: %v", hz)
	}
}
