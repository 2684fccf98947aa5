package bench

// Sharded-execution scenario: the same live daemon stack as the serve
// experiment, but with the community-aware multi-shard engine
// (internal/shard) behind the stream. Each point runs one shard count
// over an identical graph and update sequence, saturating the write path
// while concurrent HTTP readers sample /query latency — so update
// throughput and read tail latency can be compared across shard counts.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/server"
	"layph/internal/shard"
	"layph/internal/stream"
)

// ShardJSONPath is where ShardExperiment drops its machine-readable
// record (relative to the working directory).
const ShardJSONPath = "BENCH_shard.json"

// ShardPoint is one shard-count measurement window.
type ShardPoint struct {
	Shards         int     `json:"shards"`
	Applied        int64   `json:"applied"`
	UpdateUPS      float64 `json:"update_ups"`
	Batches        int64   `json:"batches"`
	ExchangeRounds int64   `json:"exchange_rounds"`
	BoundaryPins   int64   `json:"boundary_pins"`
	Reads          int64   `json:"reads"`
	QPS            float64 `json:"qps"`
	P50Micros      float64 `json:"read_p50_us"`
	P99Micros      float64 `json:"read_p99_us"`
}

// ShardReport is the BENCH_shard.json payload. Capped is set when
// GOMAXPROCS is below the largest shard count: the shard engines then
// time-share cores instead of running in parallel, so the points measure
// coordination overhead, not scaling.
type ShardReport struct {
	Graph        string       `json:"graph"`
	Algo         string       `json:"algo"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Vertices     int          `json:"vertices"`
	PointSeconds float64      `json:"point_seconds"`
	Capped       bool         `json:"capped"`
	Note         string       `json:"note,omitempty"`
	Points       []ShardPoint `json:"points"`
}

// shardCounts are the shard counts measured per run.
var shardCounts = []int{1, 2, 4}

// RunShard measures the sharded daemon at each shard count: a saturating
// writer streams the same pre-generated update sequence into the
// micro-batching pipeline while two HTTP readers sample /query latency.
func RunShard(o Options) ShardReport {
	o = o.normalize()
	vertices := int(20000 * o.Scale)
	if vertices < 500 {
		vertices = 500
	}
	const (
		pointSecs = 1.5
		readers   = 2
	)

	mkGraph := func() *graph.Graph {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices:      vertices,
			MeanCommunity: 40,
			IntraDegree:   8,
			InterDegree:   0.3,
			HubFraction:   0.01,
			HubDegree:     16,
			Weighted:      true,
			Seed:          o.Seed,
		})
		return g
	}
	// One shared update sequence, generated once against the initial graph
	// shape so every shard count absorbs identical work.
	seq := delta.NewGenerator(o.Seed+1).UnitSequence(mkGraph(), 200_000, true)

	rep := ShardReport{
		Graph:        fmt.Sprintf("community-%d", vertices),
		Algo:         "SSSP",
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Vertices:     vertices,
		PointSeconds: pointSecs,
	}
	if max := shardCounts[len(shardCounts)-1]; rep.GOMAXPROCS < max {
		rep.Capped = true
		rep.Note = fmt.Sprintf("capped: GOMAXPROCS=%d < %d shards; shard engines time-share the cores, so these points measure exchange overhead, not parallel scaling",
			rep.GOMAXPROCS, max)
	}

	for _, k := range shardCounts {
		g := mkGraph()
		sys := shard.New(g, algo.NewSSSP(0), shard.Options{Shards: k})
		st := stream.New(g, sys, stream.Config{MaxBatch: 256, MaxDelay: 5 * time.Millisecond})
		srv := server.New(st, server.Config{})
		ts := httptest.NewServer(srv.Handler())

		m0 := st.Metrics()
		start := time.Now()
		deadline := start.Add(time.Duration(pointSecs * float64(time.Second)))

		// Saturating writer: direct Push until the window closes (cycling
		// the sequence if it drains early; stale deletes net to nothing).
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for i := 0; time.Now().Before(deadline); i = (i + 1) % len(seq) {
				if st.Push(seq[i]) != nil {
					return
				}
			}
		}()

		queryURL := ts.URL + fmt.Sprintf("/query?v=0,1,%d&topk=8", vertices-1)
		var mu sync.Mutex
		var lats []float64 // microseconds
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := ts.Client()
				local := make([]float64, 0, 4096)
				for time.Now().Before(deadline) {
					t0 := time.Now()
					resp, err := client.Get(queryURL)
					if err != nil {
						panic(fmt.Sprintf("bench: shard reader: %v", err))
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						panic(fmt.Sprintf("bench: shard reader: /query status %d", resp.StatusCode))
					}
					local = append(local, float64(time.Since(t0))/float64(time.Microsecond))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		<-writerDone
		if err := st.Drain(); err != nil {
			panic(fmt.Sprintf("bench: shard drain: %v", err))
		}
		elapsed := time.Since(start).Seconds()
		m1 := st.Metrics()

		sort.Float64s(lats)
		applied := m1.Applied - m0.Applied
		rep.Points = append(rep.Points, ShardPoint{
			Shards:         k,
			Applied:        applied,
			UpdateUPS:      float64(applied) / elapsed,
			Batches:        m1.Batches - m0.Batches,
			ExchangeRounds: m1.Engine.ShardRounds - m0.Engine.ShardRounds,
			BoundaryPins:   m1.Engine.BoundaryPins - m0.Engine.BoundaryPins,
			Reads:          int64(len(lats)),
			QPS:            float64(len(lats)) / elapsed,
			P50Micros:      percentile(lats, 0.50),
			P99Micros:      percentile(lats, 0.99),
		})
		ts.Close()
		st.Close()
	}
	return rep
}

// WriteShardJSON writes the report to path (pretty-printed, trailing
// newline) for regression tracking across PRs.
func WriteShardJSON(path string, rep ShardReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ShardExperiment prints the shard-scaling table and drops
// BENCH_shard.json next to the invocation.
func ShardExperiment(w io.Writer, o Options) {
	rep := RunShard(o)
	fmt.Fprintf(w, "Shard (SSSP on %s, saturated /push + 2-reader HTTP /query, %.1fs windows, GOMAXPROCS=%d, capped=%v)\n",
		rep.Graph, rep.PointSeconds, rep.GOMAXPROCS, rep.Capped)
	t := NewTable("shards", "applied", "update-ups", "batches", "xch-rounds", "pins", "qps", "p50-us", "p99-us")
	for _, p := range rep.Points {
		t.Row(p.Shards, p.Applied, p.UpdateUPS, p.Batches, p.ExchangeRounds, p.BoundaryPins, p.QPS, p.P50Micros, p.P99Micros)
	}
	t.Print(w)
	if err := WriteShardJSON(ShardJSONPath, rep); err != nil {
		fmt.Fprintf(w, "(could not write %s: %v)\n", ShardJSONPath, err)
	} else {
		fmt.Fprintf(w, "(wrote %s)\n", ShardJSONPath)
	}
}
