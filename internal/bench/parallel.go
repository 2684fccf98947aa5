package bench

// Parallel scaling scenario: the same incremental workload replayed
// through Layph at increasing thread counts, measuring the wall-clock
// win of the shared-worker-pool lower layer (plus the Lup iteration's
// workers). Results are emitted both as a table and as a
// BENCH_parallel.json speedup-vs-threads record, so later PRs have a
// perf trajectory to regress against.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"

	"layph/internal/gen"
)

// ParallelJSONPath is where ParallelExperiment drops its machine-readable
// record (relative to the working directory).
const ParallelJSONPath = "BENCH_parallel.json"

// ParallelPoint is one thread-count measurement. Capped marks points where
// the requested thread count exceeds GOMAXPROCS: the workers time-share the
// available cores, so the point measures scheduling overhead, not scaling,
// and must not be read as scaling data.
type ParallelPoint struct {
	Threads           int     `json:"threads"`
	UpdateSeconds     float64 `json:"update_seconds"`
	SpeedupVsT1       float64 `json:"speedup_vs_t1"`
	SubgraphsParallel int64   `json:"subgraphs_parallel"`
	PoolUtilization   float64 `json:"pool_utilization"`
	Activations       int64   `json:"activations"`
	Capped            bool    `json:"capped,omitempty"`
}

// ParallelReport is the BENCH_parallel.json payload. Capped is set when any
// point oversubscribed the cores (see ParallelPoint.Capped); such captures
// are not valid scaling data and should be re-taken on >= 4 cores.
type ParallelReport struct {
	Graph      string          `json:"graph"`
	Algo       string          `json:"algo"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Vertices   int             `json:"vertices"`
	Batches    int             `json:"batches"`
	BatchSize  int             `json:"batch_size"`
	Capped     bool            `json:"capped,omitempty"`
	Points     []ParallelPoint `json:"points"`
}

// CommunityWorkload builds the synthetic community graph (the structure
// Layph's lower layer exploits) with pre-generated edge batches.
func CommunityWorkload(vertices, nBatches, batchSize int, seed int64) *Workload {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices:      vertices,
		MeanCommunity: 40,
		IntraDegree:   8,
		InterDegree:   0.3,
		HubFraction:   0.01,
		HubDegree:     16,
		Weighted:      true,
		Seed:          seed,
	})
	w := &Workload{Name: fmt.Sprintf("community-%d", vertices), Graph: g}
	w.Batches = makeBatches(g, nBatches, batchSize, true, seed)
	return w
}

// parallelThreadCounts returns the measured thread counts: 1, 2, 4, 8
// plus GOMAXPROCS, deduplicated and ascending, so the Threads=1 baseline
// and the hardware's own width are always covered.
func parallelThreadCounts() []int {
	set := map[int]struct{}{1: {}, 2: {}, 4: {}, 8: {}, runtime.GOMAXPROCS(0): {}}
	out := make([]int, 0, len(set))
	for th := range set {
		out = append(out, th)
	}
	sort.Ints(out)
	return out
}

// RunParallel measures Layph's incremental-update time on the community
// workload (SSSP) across thread counts. Scale sizes the graph: the
// default 0.25 gives the 10k-vertex community graph of the acceptance
// run.
func RunParallel(o Options) ParallelReport {
	o = o.normalize()
	vertices := int(40000 * o.Scale)
	if vertices < 200 {
		vertices = 200
	}
	wl := CommunityWorkload(vertices, o.Batches, o.BatchSize, o.Seed)
	rep := ParallelReport{
		Graph:      wl.Name,
		Algo:       "SSSP",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Vertices:   vertices,
		Batches:    o.Batches,
		BatchSize:  o.BatchSize,
	}
	mk := Algorithms()["SSSP"]
	var t1 float64
	for _, th := range parallelThreadCounts() {
		r := RunSystem(wl, Layph, mk, th)
		p := ParallelPoint{
			Threads:           th,
			UpdateSeconds:     r.UpdateSeconds,
			SubgraphsParallel: r.Stats.SubgraphsParallel,
			PoolUtilization:   r.Stats.PoolUtilization,
			Activations:       r.Activations,
			Capped:            th > rep.GOMAXPROCS,
		}
		if p.Capped {
			rep.Capped = true
		}
		if th == 1 {
			t1 = r.UpdateSeconds
		}
		if t1 > 0 && r.UpdateSeconds > 0 {
			p.SpeedupVsT1 = t1 / r.UpdateSeconds
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

// perfSmokePairs is how many alternating t=1/t=4 pairs PerfSmoke times.
// One pair of ~35 ms runs read 0.75x and 1.14x on the same code (2 vCPUs
// at GOMAXPROCS 4); the median of several pairs does not hang on one
// noisy run.
const perfSmokePairs = 5

// PerfSmoke is the CI guard against the task-granularity regression: it
// replays the parallel workload through Layph at Threads=1 and Threads=4
// in perfSmokePairs alternating pairs, prints every pair's speedup, and
// returns a nonzero exit code when the median speedup shows parallel
// execution losing to sequential. On runners with fewer than 4 cores the
// t=4 measurement would be capped (oversubscription, not scaling), so the
// check self-skips and passes.
func PerfSmoke(w io.Writer, o Options) int {
	if np := runtime.GOMAXPROCS(0); np < 4 {
		fmt.Fprintf(w, "perf smoke: SKIP — GOMAXPROCS=%d < 4, the t=4 point would be capped (measures oversubscription, not scaling)\n", np)
		return 0
	}
	o = o.normalize()
	vertices := int(40000 * o.Scale)
	if vertices < 200 {
		vertices = 200
	}
	wl := CommunityWorkload(vertices, o.Batches, o.BatchSize, o.Seed)
	mk := Algorithms()["SSSP"]
	fmt.Fprintf(w, "perf smoke: SSSP on %s, %d batches x %d updates, %d pairs\n", wl.Name, o.Batches, o.BatchSize, perfSmokePairs)
	speedups := make([]float64, perfSmokePairs)
	for i := range speedups {
		r1 := RunSystem(wl, Layph, mk, 1)
		r4 := RunSystem(wl, Layph, mk, 4)
		if r4.UpdateSeconds > 0 {
			speedups[i] = r1.UpdateSeconds / r4.UpdateSeconds
		}
		fmt.Fprintf(w, "perf smoke: pair %d: t=1 %.4fs, t=4 %.4fs, speedup %.2fx, pool-util %.0f%%\n",
			i+1, r1.UpdateSeconds, r4.UpdateSeconds, speedups[i], 100*r4.Stats.PoolUtilization)
	}
	speedup := median(speedups)
	if speedup < 1.0 {
		fmt.Fprintf(w, "perf smoke: FAIL — parallel lower layer loses to sequential (median speedup %.2fx < 1.0); task granularity or hot-path layout regressed\n", speedup)
		return 1
	}
	fmt.Fprintf(w, "perf smoke: PASS (median speedup %.2fx)\n", speedup)
	return 0
}

// median returns the middle of xs (the lower middle for an even count; 0
// for none), leaving xs unchanged.
func median(xs []float64) float64 {
	return percentile(slices.Sorted(slices.Values(xs)), 0.5)
}

// WriteParallelJSON writes the report to path (pretty-printed, trailing
// newline) for regression tracking across PRs.
func WriteParallelJSON(path string, rep ParallelReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParallelExperiment prints the speedup-vs-threads table and drops
// BENCH_parallel.json next to the invocation.
func ParallelExperiment(w io.Writer, o Options) {
	rep := RunParallel(o)
	fmt.Fprintf(w, "Parallel lower layer (SSSP on %s, %d batches x %d updates, GOMAXPROCS=%d)\n",
		rep.Graph, rep.Batches, rep.BatchSize, rep.GOMAXPROCS)
	t := NewTable("threads", "update-s", "speedup-vs-t1", "subgraph-tasks", "pool-util", "capped")
	for _, p := range rep.Points {
		t.Row(p.Threads, p.UpdateSeconds, p.SpeedupVsT1, p.SubgraphsParallel, p.PoolUtilization, p.Capped)
	}
	t.Print(w)
	if err := WriteParallelJSON(ParallelJSONPath, rep); err != nil {
		fmt.Fprintf(w, "(could not write %s: %v)\n", ParallelJSONPath, err)
	} else {
		fmt.Fprintf(w, "(wrote %s)\n", ParallelJSONPath)
	}
	if rep.Capped {
		fmt.Fprintf(w, `
*** WARNING ********************************************************
*** GOMAXPROCS=%d is below the measured thread counts. Capped     ***
*** points time-share the cores: they measure oversubscription   ***
*** overhead, NOT scaling. This capture is marked "capped": true ***
*** in %s — re-run on >= 4 cores for scaling data.
********************************************************************
`, rep.GOMAXPROCS, ParallelJSONPath)
	}
}
