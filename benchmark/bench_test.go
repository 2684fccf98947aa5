package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"

	"layph/internal/delta"
	"layph/internal/gen"
)

// feedText renders what a feed emits, so two feeds can be compared byte for
// byte.
func feedText(seed int64) (text string, netApplied map[string]float64) {
	g, comm := gen.CommunityGraph(gen.PresetConfig(gen.PresetUK, 0.05))
	target := g.Clone() // stands in for the engine's graph
	fd := newFeed(g, comm, seed)
	netApplied = map[string]float64{}
	apply := func(kind string, b delta.Batch) {
		text += fmt.Sprintln(kind, b)
		a := delta.Apply(target, b)
		netApplied[kind] += float64(len(a.AddedEdges) + len(a.RemovedEdges))
		netApplied[kind+"/offered"] += float64(len(b))
	}
	for i := 0; i < 6; i++ {
		apply("local", fd.local(localBatch))
		apply("stream", fd.local(streamMaxBatch))
	}
	for i := 0; i < 3; i++ {
		fw, back := fd.spreadPair(spreadBatch / 10)
		apply("spread", fw)
		apply("spread", back)
	}
	for _, kind := range []string{"local", "stream", "spread"} {
		netApplied[kind] /= netApplied[kind+"/offered"]
		delete(netApplied, kind+"/offered")
	}
	return text, netApplied
}

func TestFeedIsSeededAndApplies(t *testing.T) {
	a, net := feedText(7)
	b, _ := feedText(7)
	if a != b {
		t.Fatal("one seed gave two update sequences")
	}
	if c, _ := feedText(8); c == a {
		t.Fatal("two seeds gave one update sequence")
	}
	for kind, share := range net {
		if share < 0.95 {
			t.Errorf("%s feed: only %.3f of the offered updates changed the graph", kind, share)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the driver
// reads, and the tables in spec.go, which the harness prints from, the same.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []workload
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, workload{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(got.Workloads, wantWorkloads) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", got.Workloads, wantWorkloads)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", got.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %g out of range", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("%s: unit %q malformed or bound set", m.Name, m.Unit)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up and checks
	// (about 8 s on the box the README numbers come from), within 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(got.RunSeconds)+8) > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's time", runs, got.RunSeconds)
	}
}

// TestSmoke runs every workload end to end at a twentieth of the size, and
// the most involved one traced, so that tier-1 keeps the harness compiling
// and its correctness gate live.
func TestSmoke(t *testing.T) {
	env := currentEnvironment()
	small := func(seconds float64) sizing {
		return sizing{scale: 0.05, seconds: seconds, outDir: t.TempDir(), setups: 1}
	}
	for _, w := range workloads {
		sz := small(0.3)
		if w.stream {
			sz = small(1.2) // a 0.66 s paced phase
		}
		rec, err := runOne(w, 1, sz, false, env)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d checks=%+v", w.Name, rec.Correct, rec.Failed, rec.Attempted, rec.Checks)
		}
		for _, m := range endToEnd {
			if v, ok := rec.EndToEnd[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v", w.Name, m.Name, v)
			}
		}
	}

	w, _ := findWorkload("stream-sssp-durable")
	sz := small(1.6)
	rec, err := runOne(w, 1, sz, true, env)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("traced %s: checks=%+v", w.Name, rec.Checks)
	}
	for _, m := range perLayer {
		if v, ok := rec.PerLayer[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("traced %s: %s = %+v", w.Name, m.Name, v)
		}
	}
	for _, n := range []string{"core.layered_update_ms", "stream.queue_wait_ms", "wal.log_batch_ms", "wal.recover_s", "wal.replayed_batches"} {
		if rec.PerLayer[n].Value <= 0 {
			t.Errorf("traced %s: %s = %g, want > 0", w.Name, n, rec.PerLayer[n].Value)
		}
	}
	var tf traceFile
	data, err := os.ReadFile(rec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || tf.Env.GoVersion == "" {
		t.Errorf("trace file has %d spans and environment %+v", len(tf.Spans), tf.Env)
	}
}
