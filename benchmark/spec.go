package main

import "time"

// Fixed sizes and rates. They are constants of the benchmark, never
// calibrated per run, so two commits are always offered the same load.
const (
	localBatch  = 500  // updates per local batch
	spreadBatch = 5000 // the paper's default |ΔG|

	pacedRate = 5000 // open-loop updates/s offered to a stream
	readRate  = 50   // read probes/s against a stream
	pointRead = 64   // point reads per probe, beside one top-10

	streamMaxBatch   = 256
	streamMaxDelay   = 10 * time.Millisecond
	streamQueueCap   = 65536
	checkpointEvery  = 64
	maxBacklogSecond = 1.0 // a paced phase ending further behind than this is unsustainable

	// A stream run splits its measuring time into an open-loop paced phase
	// and a closed-loop saturating phase; the rest is left for the final
	// drain of the up to streamQueueCap updates the closed loop runs ahead.
	pacedShare    = 0.4
	saturateShare = 0.4
)

// metric is one named number the benchmark reports. Bound is the share of
// the parent's median by which an end-to-end metric may worsen.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means per workload. The
// timing bounds are as wide as the driver allows because the box is not
// steady: identical runs minutes apart differ by 20-30% (README.md,
// "Repeatability").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"response_p50_ms", "ms", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
}

// responseQuantiles are reported beside response_p50_ms in every record and
// in the -repeat summary, but not to the driver: the tail percentiles spread
// too widely between identical runs to be gated (README.md).
var responseQuantiles = []struct {
	name string
	q    float64
}{
	{"response_p25_ms", 0.25}, {"response_p75_ms", 0.75}, {"response_p90_ms", 0.90},
	{"response_p95_ms", 0.95}, {"response_p99_ms", 0.99}, {"response_max_ms", 1},
}

// information is the metric-table form of responseQuantiles.
var information = func() []metric {
	var ms []metric
	for _, q := range responseQuantiles {
		ms = append(ms, metric{Name: q.name, Unit: "ms", Better: "lower"})
	}
	return ms
}()

// perLayer lists the single-layer numbers of the traced run. A layer a
// workload does not use reports 0.
var perLayer = []metric{
	{Name: "delta.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.net_applied", Unit: "ratio", Better: "higher"},
	{Name: "core.layered_update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lup_iteration_ms", Unit: "ms", Better: "lower"},
	{Name: "core.assignment_ms", Unit: "ms", Better: "lower"},
	{Name: "core.other_ms", Unit: "ms", Better: "lower"},
	{Name: "core.activations", Unit: "count", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.resets", Unit: "count", Better: "lower"},
	{Name: "core.touched_subgraph_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.skeleton_fraction", Unit: "ratio", Better: "lower"},
	{Name: "core.shortcut_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.pool_utilization", Unit: "ratio", Better: "higher"},
	{Name: "ingress.update_ms", Unit: "ms", Better: "lower"},
	{Name: "ingress.activations", Unit: "count", Better: "lower"},
	{Name: "graph.csr_compactions", Unit: "count", Better: "lower"},
	{Name: "graph.dirty_rows", Unit: "count", Better: "lower"},
	{Name: "stream.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.update_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.batch_size", Unit: "count", Better: "higher"},
	{Name: "stream.backlog_max", Unit: "count", Better: "lower"},
	{Name: "stream.gen_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.dropped", Unit: "count", Better: "lower"},
	{Name: "wal.log_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.after_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.after_batch_max_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.load_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replayed_batches", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// workload is one set of inputs. The names are fixed for later issues.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	stream   bool // through layph.NewStream/OpenStream instead of library calls
	durable  bool // stream with WAL, crash and recovery
	ingress  bool // NewIngress instead of NewLayph
	pageRank bool // PageRank(0.85, 1e-6) instead of SSSP(0)
	spread   bool // uniformly random endpoints instead of community-confined
}

var workloads = []workload{
	{Name: "batch-sssp-local",
		Why: "500-update batches confined to 8 communities: the layering's best case, so what is left per batch is O(|V|) overhead"},
	{Name: "batch-sssp-spread", spread: true,
		Why: "5000 uniformly random updates per batch enter nearly every subgraph: bypasses confinement, stresses shortcut maintenance"},
	{Name: "batch-pr-local", pageRank: true,
		Why: "local batches through the sum-semiring path, so a gain bought for min at sum's expense shows"},
	{Name: "batch-sssp-local-ingress", ingress: true,
		Why: "the identical local sequence through the Ingress comparator: engine, inc and ingress without core"},
	{Name: "stream-sssp-local", stream: true,
		Why: "small micro-batches on a large graph with a concurrent reader: per-batch constants around the engine dominate"},
	{Name: "stream-sssp-durable", stream: true, durable: true,
		Why: "the same feed with WAL fsync per batch, synchronous checkpoints, a crash and a recovery on the blocking path"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
