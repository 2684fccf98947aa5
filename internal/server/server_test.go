package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/ingress"
	"layph/internal/stream"
)

// testDaemon is one live serving stack: community graph, Layph engine,
// stream, server, and an httptest front end.
type testDaemon struct {
	g   *graph.Graph
	st  *stream.Stream
	srv *Server
	ts  *httptest.Server
}

func newTestDaemon(t *testing.T, seed int64, scfg stream.Config, cfg Config) *testDaemon {
	t.Helper()
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: seed,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 2})
	st := stream.New(g, sys, scfg)
	srv := New(st, cfg)
	ts := httptest.NewServer(srv.Handler())
	d := &testDaemon{g: g, st: st, srv: srv, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return d
}

type apiQueryResponse struct {
	Seq     uint64               `json:"seq"`
	Updates uint64               `json:"updates"`
	States  []stream.VertexState `json:"states"`
	Top     []stream.VertexState `json:"top"`
	Order   string               `json:"order"`
}

func doJSON(t *testing.T, method, url, contentType string, body []byte, out any) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s: %v (%s)", method, url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestPushQueryRoundTripMatchesRestart is the serving acceptance check:
// updates pushed over HTTP (text and JSON bodies alternating) must leave
// the daemon answering queries that match a from-scratch restart run on
// the final graph.
func TestPushQueryRoundTripMatchesRestart(t *testing.T) {
	d := newTestDaemon(t, 1, stream.Config{MaxBatch: 100, MaxDelay: -1}, Config{})
	seq := delta.NewGenerator(2).UnitSequence(d.g, 3000, true)

	// Push in chunks, alternating wire formats.
	const chunk = 250
	for i := 0; i < len(seq); i += chunk {
		end := i + chunk
		if end > len(seq) {
			end = len(seq)
		}
		var body []byte
		ct := ""
		if (i/chunk)%2 == 0 {
			var buf bytes.Buffer
			if err := delta.WriteUpdates(&buf, delta.Batch(seq[i:end])); err != nil {
				t.Fatal(err)
			}
			body = buf.Bytes()
		} else {
			var arr []map[string]any
			for _, u := range seq[i:end] {
				m := map[string]any{"u": u.U, "v": u.V}
				switch u.Kind {
				case delta.AddEdge:
					m["op"], m["w"] = "a", u.W
				case delta.DelEdge:
					m["op"] = "d"
				case delta.AddVertex:
					m["op"] = "av"
				case delta.DelVertex:
					m["op"] = "dv"
				}
				arr = append(arr, m)
			}
			body, _ = json.Marshal(arr)
			ct = "application/json"
		}
		var pr pushResponse
		code, raw := doJSON(t, http.MethodPost, d.ts.URL+"/push", ct, body, &pr)
		if code != http.StatusOK {
			t.Fatalf("push chunk %d: %d %s", i/chunk, code, raw)
		}
		if pr.Accepted != end-i || pr.Dropped != 0 {
			t.Fatalf("push chunk %d: accepted %d dropped %d, want %d/0", i/chunk, pr.Accepted, pr.Dropped, end-i)
		}
	}
	if err := d.st.Drain(); err != nil {
		t.Fatal(err)
	}

	// Query every vertex (chunked under MaxQueryVertices) from the API.
	snapLen := d.st.Query().Len()
	got := make([]float64, snapLen)
	for lo := 0; lo < snapLen; lo += 500 {
		hi := lo + 500
		if hi > snapLen {
			hi = snapLen
		}
		ids := make([]string, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ids = append(ids, fmt.Sprint(v))
		}
		var qr apiQueryResponse
		code, raw := doJSON(t, http.MethodGet, d.ts.URL+"/query?v="+strings.Join(ids, ","), "", nil, &qr)
		if code != http.StatusOK {
			t.Fatalf("query [%d,%d): %d %s", lo, hi, code, raw)
		}
		if qr.Updates != uint64(len(seq)) {
			t.Fatalf("query snapshot covers %d updates, want %d", qr.Updates, len(seq))
		}
		for i, s := range qr.States {
			if s.V != graph.VertexID(lo+i) {
				t.Fatalf("state %d: vertex %d, want %d", i, s.V, lo+i)
			}
			got[s.V] = s.X
		}
	}

	want := engine.RunBatch(d.g, algo.NewSSSP(0), engine.Options{}).X
	if !algo.StatesClose(got, want[:snapLen], 1e-6) {
		t.Fatal("HTTP-served states differ from restart baseline on the final graph")
	}
}

func TestTopKOrdering(t *testing.T) {
	d := newTestDaemon(t, 3, stream.Config{MaxBatch: 64, MaxDelay: -1}, Config{})
	// Push a little traffic so the snapshot is not the initial one.
	var buf bytes.Buffer
	if err := delta.WriteUpdates(&buf, delta.NewGenerator(4).UnitSequence(d.g, 500, true)); err != nil {
		t.Fatal(err)
	}
	if code, raw := doJSON(t, http.MethodPost, d.ts.URL+"/push", "", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("push: %d %s", code, raw)
	}
	if err := d.st.Drain(); err != nil {
		t.Fatal(err)
	}

	snap := d.st.Query()
	for _, order := range []string{"min", "max"} {
		var qr apiQueryResponse
		code, raw := doJSON(t, http.MethodGet, d.ts.URL+"/query?topk=7&order="+order, "", nil, &qr)
		if code != http.StatusOK {
			t.Fatalf("topk %s: %d %s", order, code, raw)
		}
		if qr.Order != order || len(qr.Top) != 7 {
			t.Fatalf("topk %s: order=%q len=%d", order, qr.Order, len(qr.Top))
		}
		want := snap.TopK(7, order == "max")
		for i, s := range qr.Top {
			if s.V != want[i].V || s.X != want[i].X {
				t.Fatalf("topk %s entry %d: got (%d,%g), want (%d,%g)", order, i, s.V, s.X, want[i].V, want[i].X)
			}
		}
		// Verify the ordering invariant independently of TopK.
		for i := 1; i < len(qr.Top); i++ {
			a, b := qr.Top[i-1].X, qr.Top[i].X
			if math.IsInf(a, 0) || math.IsInf(b, 0) {
				t.Fatalf("topk %s returned non-finite state", order)
			}
			if (order == "min" && a > b) || (order == "max" && a < b) {
				t.Fatalf("topk %s not ordered: %g before %g", order, a, b)
			}
		}
	}
	// Default order is min.
	var qr apiQueryResponse
	if code, _ := doJSON(t, http.MethodGet, d.ts.URL+"/query?topk=3", "", nil, &qr); code != http.StatusOK || qr.Order != "min" {
		t.Fatalf("default topk order: %q", qr.Order)
	}
	// Source vertex must rank first under min (distance 0).
	if qr.Top[0].V != 0 || qr.Top[0].X != 0 {
		t.Fatalf("min top-1 is (%d,%g), want source (0,0)", qr.Top[0].V, qr.Top[0].X)
	}
}

func TestErrorPaths(t *testing.T) {
	d := newTestDaemon(t, 5, stream.Config{MaxBatch: 64, MaxDelay: -1}, Config{
		MaxBodyBytes: 4096, MaxQueryVertices: 8, MaxTopK: 10,
	})
	post := func(ct string, body string) (int, string) {
		return doJSON(t, http.MethodPost, d.ts.URL+"/push", ct, []byte(body), nil)
	}
	get := func(path string) (int, string) {
		return doJSON(t, http.MethodGet, d.ts.URL+path, "", nil, nil)
	}

	cases := []struct {
		name string
		code int
		run  func() (int, string)
	}{
		{"malformed text body", http.StatusBadRequest, func() (int, string) { return post("", "a 0 1\nboom\n") }},
		{"nan weight text", http.StatusBadRequest, func() (int, string) { return post("", "a 0 1 NaN") }},
		{"negative weight text", http.StatusBadRequest, func() (int, string) { return post("", "a 0 1 -2") }},
		{"malformed json", http.StatusBadRequest, func() (int, string) { return post("application/json", `{"op":"a"`) }},
		{"json not an array", http.StatusBadRequest, func() (int, string) { return post("application/json", `{"op":"a","u":0,"v":1}`) }},
		{"json unknown op", http.StatusBadRequest, func() (int, string) { return post("application/json", `[{"op":"zap","u":0,"v":1}]`) }},
		{"json negative weight", http.StatusBadRequest, func() (int, string) { return post("application/json", `[{"op":"a","u":0,"v":1,"w":-2}]`) }},
		{"json nan literal", http.StatusBadRequest, func() (int, string) { return post("application/json", `[{"op":"a","u":0,"v":1,"w":NaN}]`) }},
		{"json negative id", http.StatusBadRequest, func() (int, string) { return post("application/json", `[{"op":"a","u":-1,"v":1}]`) }},
		{"push id beyond cap", http.StatusBadRequest, func() (int, string) { return post("", "av 4294967295") }},
		{"push wrong method", http.StatusMethodNotAllowed, func() (int, string) { return get("/push") }},
		{"oversized body", http.StatusRequestEntityTooLarge, func() (int, string) {
			return post("", strings.Repeat("a 0 1 2\n", 1024))
		}},
		{"query no params", http.StatusBadRequest, func() (int, string) { return get("/query") }},
		{"query bad id", http.StatusBadRequest, func() (int, string) { return get("/query?v=zero") }},
		{"query negative id", http.StatusBadRequest, func() (int, string) { return get("/query?v=-1") }},
		{"query out of range id", http.StatusNotFound, func() (int, string) { return get("/query?v=999999") }},
		{"query too many ids", http.StatusBadRequest, func() (int, string) { return get("/query?v=0,1,2,3,4,5,6,7,8") }},
		{"query topk zero", http.StatusBadRequest, func() (int, string) { return get("/query?topk=0") }},
		{"query topk over cap", http.StatusBadRequest, func() (int, string) { return get("/query?topk=11") }},
		{"query topk garbage", http.StatusBadRequest, func() (int, string) { return get("/query?topk=ten") }},
		{"query bad order", http.StatusBadRequest, func() (int, string) { return get("/query?topk=3&order=sideways") }},
		{"query wrong method", http.StatusMethodNotAllowed, func() (int, string) {
			return doJSON(t, http.MethodDelete, d.ts.URL+"/query?v=0", "", nil, nil)
		}},
		{"metrics wrong method", http.StatusMethodNotAllowed, func() (int, string) {
			return doJSON(t, http.MethodPost, d.ts.URL+"/metrics", "", nil, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := tc.run()
			if code != tc.code {
				t.Fatalf("status %d (%s), want %d", code, raw, tc.code)
			}
		})
	}

	// A rejected batch must be atomic: the valid "a 0 1" line before the
	// malformed one must not have been pushed.
	if err := d.st.Drain(); err != nil {
		t.Fatal(err)
	}
	if m := d.st.Metrics(); m.Accepted != 0 {
		t.Fatalf("rejected batches leaked %d updates into the stream", m.Accepted)
	}

	// JSON omitted weight defaults to 1 and succeeds.
	var pr pushResponse
	if code, raw := doJSON(t, http.MethodPost, d.ts.URL+"/push", "application/json",
		[]byte(`[{"op":"a","u":0,"v":1}]`), &pr); code != http.StatusOK || pr.Accepted != 1 {
		t.Fatalf("json default-weight push: %d %s", code, raw)
	}
}

// TestGracefulShutdown verifies the drain ordering end to end: everything
// acknowledged before Shutdown is in the final snapshot, pushes after
// Shutdown fail with 503, and Shutdown is idempotent.
func TestGracefulShutdown(t *testing.T) {
	d := newTestDaemon(t, 7, stream.Config{MaxBatch: 1 << 20, MaxDelay: -1}, Config{})
	var buf bytes.Buffer
	seq := delta.NewGenerator(8).UnitSequence(d.g, 800, true)
	if err := delta.WriteUpdates(&buf, seq); err != nil {
		t.Fatal(err)
	}
	var pr pushResponse
	if code, raw := doJSON(t, http.MethodPost, d.ts.URL+"/push", "", buf.Bytes(), &pr); code != http.StatusOK {
		t.Fatalf("push: %d %s", code, raw)
	}
	if pr.Accepted != len(seq) {
		t.Fatalf("accepted %d, want %d", pr.Accepted, len(seq))
	}

	// Shutdown with a huge un-flushed pending batch: Close must flush it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := d.st.Query()
	if snap.Updates != uint64(len(seq)) {
		t.Fatalf("final snapshot covers %d updates, want %d (acked updates dropped)", snap.Updates, len(seq))
	}

	// The handler (still mounted on httptest, which Shutdown does not
	// stop) must now refuse pushes but keep answering health checks.
	if code, _ := doJSON(t, http.MethodPost, d.ts.URL+"/push", "", []byte("a 0 1\n"), nil); code != http.StatusServiceUnavailable {
		t.Fatal("push after shutdown must 503")
	}
	var hz map[string]any
	if code, _ := doJSON(t, http.MethodGet, d.ts.URL+"/healthz", "", nil, &hz); code != http.StatusOK {
		t.Fatal("healthz after shutdown must stay 200")
	}
	if hz["draining"] != true || hz["ready"] != false {
		t.Fatalf("healthz after shutdown: %v", hz)
	}
	var mr metricsResponse
	if code, raw := doJSON(t, http.MethodGet, d.ts.URL+"/metrics", "", nil, &mr); code != http.StatusOK {
		t.Fatalf("metrics after shutdown: %d %s", code, raw)
	}
	if mr.Ready || !mr.Draining {
		t.Fatalf("metrics after shutdown: ready=%v draining=%v, want false true", mr.Ready, mr.Draining)
	}
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestStartServesRealListener exercises the managed-listener path: bind
// an ephemeral port, serve, shut down.
func TestStartServesRealListener(t *testing.T) {
	g := graph.New(10)
	g.AddEdge(0, 1, 2)
	sys := ingress.New(g, algo.NewSSSP(0))
	st := stream.New(g, sys, stream.Config{MaxDelay: -1})
	srv := New(st, Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr().String()
	if code, raw := doJSON(t, http.MethodGet, url+"/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz over real listener: %d %s", code, raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	d := newTestDaemon(t, 9, stream.Config{MaxBatch: 50, MaxDelay: -1}, Config{})
	seq := delta.NewGenerator(10).UnitSequence(d.g, 400, true)
	n := int64(len(seq))
	var buf bytes.Buffer
	if err := delta.WriteUpdates(&buf, seq); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, http.MethodPost, d.ts.URL+"/push", "", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatal("push failed")
	}
	if err := d.st.Drain(); err != nil {
		t.Fatal(err)
	}
	var mr metricsResponse
	if code, raw := doJSON(t, http.MethodGet, d.ts.URL+"/metrics", "", nil, &mr); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if !mr.Ready || mr.Draining {
		t.Fatalf("metrics flags: %+v", mr)
	}
	if mr.Applied != n || mr.Accepted != n || mr.Batches != (n+49)/50 {
		t.Fatalf("metrics counters: applied=%d accepted=%d batches=%d, want %d updates in %d batches",
			mr.Applied, mr.Accepted, mr.Batches, n, (n+49)/50)
	}
	if mr.Engine.Activations == 0 || mr.Engine.UpdateSeconds <= 0 {
		t.Fatalf("engine stats missing: %+v", mr.Engine)
	}
	if mr.Engine.SubgraphsParallel == 0 {
		t.Fatal("pool-backed engine reported no subgraph tasks")
	}
}

// TestMetricsRelayerBlock pins the /metrics contract of the drift
// controller: no "relayer" key without a relayer configured, and a
// populated block (with in-range quality gauges) when the stream runs one.
func TestMetricsRelayerBlock(t *testing.T) {
	// Plain daemon: the key must be absent entirely (omitempty), so the
	// smoke job's `jq .relayer` check is meaningful.
	plain := newTestDaemon(t, 14, stream.Config{MaxBatch: 50, MaxDelay: -1}, Config{})
	if _, raw := doJSON(t, http.MethodGet, plain.ts.URL+"/metrics", "", nil, nil); strings.Contains(raw, "\"relayer\"") {
		t.Fatalf("relayer block present without a relayer: %s", raw)
	}

	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 15,
	})
	st := stream.New(g, core.New(g, algo.NewSSSP(0), core.Options{Workers: 2}), stream.Config{
		MaxBatch: 50, MaxDelay: -1,
		Relayer: &stream.RelayerConfig{},
	})
	srv := New(st, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); st.Close() }()

	seq := delta.NewGenerator(16).UnitSequence(g, 400, true)
	var buf bytes.Buffer
	if err := delta.WriteUpdates(&buf, seq); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/push", "", buf.Bytes(), nil); code != http.StatusOK {
		t.Fatal("push failed")
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	var mr metricsResponse
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "", nil, &mr); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if mr.Relayer == nil {
		t.Fatal("relayer block missing with a relayer configured")
	}
	rl := mr.Relayer
	if rl.TouchedRatioEWMA < 0 || rl.TouchedRatioEWMA > 1 {
		t.Fatalf("touched_ratio_ewma out of range: %+v", rl)
	}
	if rl.SkeletonFraction <= 0 || rl.SkeletonFraction > 1 || rl.SkeletonBaseline <= 0 {
		t.Fatalf("skeleton gauges out of range: %+v", rl)
	}
	if rl.FullRelayers != 0 || rl.InFlight {
		// 8 tame batches under the default 16-batch cooldown must not
		// trigger a rebuild.
		t.Fatalf("relayer fired under the cooldown: %+v", rl)
	}
}
