package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"layph"
	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
)

// sizing is what the smoke test shrinks; the command always runs at
// fullScale with three set-ups.
type sizing struct {
	scale   float64 // scale of the UK preset
	seconds float64 // measuring time of one pass
	outDir  string  // where WAL directories and output files go
	// A pass sets up at least setups times and keeps on, up to maxSetups
	// times, until setupSeconds have gone into it; the median is reported.
	// A cheap set-up (Ingress, 60 ms) is so timed more often than a dear
	// one (PageRank, 2 s), and both medians stay steady.
	setups       int
	setupSeconds float64
}

const (
	fullScale        = 1.0
	fullSetups       = 3
	fullSetupSeconds = 1.5
	maxSetups        = 15
)

// moreSetups reports whether set-up number len(done) is still to be made.
func (sz sizing) moreSetups(done []float64) bool {
	var spent float64
	for _, s := range done {
		spent += s
	}
	return len(done) < sz.setups || (spent < sz.setupSeconds && len(done) < maxSetups)
}

// pass is the outcome of running one workload once, traced or not.
type pass struct {
	e2e       map[string]value
	layer     map[string]value // traced passes only
	spans     []span           // traced passes only
	attempted int64
	failed    int64
	checks    []check
}

func (p *pass) check(name string, ok bool, format string, args ...any) {
	p.checks = append(p.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// response records the response-time metrics of a pass: the median, which
// is gated, and the quantiles around it, for information.
func (p *pass) response(ms []float64) {
	p.e2e["response_p50_ms"] = value{median(ms), "ms", len(ms)}
	for _, q := range responseQuantiles {
		p.e2e[q.name] = value{quantile(ms, q.q), "ms", len(ms)}
	}
}

func (p *pass) correct() bool {
	for _, c := range p.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (w workload) algorithm() layph.Algorithm {
	if w.pageRank {
		return layph.PageRank(0.85, 1e-6)
	}
	return layph.SSSP(0)
}

// tolerance is how far final states may lie from a restart on the final
// graph.
func (w workload) tolerance() float64 {
	if w.pageRank {
		return 1e-3
	}
	return 1e-9
}

func (w workload) engineName() string {
	if w.ingress {
		return "ingress"
	}
	return "core"
}

// build constructs the engine under test on g. lay is nil for Ingress.
func (w workload) build(g *graph.Graph) (sys layph.System, lay *core.Layph) {
	if w.ingress {
		return layph.NewIngress(g, w.algorithm(), 0), nil
	}
	lay = layph.NewLayph(g, w.algorithm(), layph.Config{})
	return lay, lay
}

// checkAgainstRestart compares the graph-aligned prefix of states with a
// from-scratch run on g (an engine may keep derived states past g.Cap()).
func (p *pass) checkAgainstRestart(w workload, g *graph.Graph, states []float64) {
	ref := layph.Run(g, w.algorithm(), 0)
	n := g.Cap()
	ok := len(states) >= n && len(ref) >= n && layph.StatesClose(states[:n], ref[:n], w.tolerance())
	worst := math.Inf(1)
	if len(states) >= n && len(ref) >= n {
		worst = algo.MaxStateDiff(states[:n], ref[:n])
	}
	p.check("final states equal a restart on the final graph", ok, "largest difference %g, tolerance %g", worst, w.tolerance())
}

// readProbe is what a reader does with a result: one top-10 and pointRead
// point reads at seeded random vertices.
type readProbe struct {
	rng     *rand.Rand
	largest bool
	sink    float64 // keeps the reads from being optimized away
}

func newReadProbe(w workload, seed int64) *readProbe {
	return &readProbe{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), largest: w.pageRank}
}

// run returns the probe's duration in microseconds.
func (p *readProbe) run(snap *layph.StreamSnapshot) float64 {
	t := time.Now()
	for _, vs := range snap.TopK(10, p.largest) {
		p.sink += vs.X
	}
	for i := 0; i < pointRead; i++ {
		if x, ok := snap.State(graph.VertexID(p.rng.Intn(snap.Len()))); ok && !math.IsInf(x, 0) {
			p.sink += x
		}
	}
	return float64(time.Since(t)) / float64(time.Microsecond)
}

// runWorkload generates the graph and runs one pass.
func runWorkload(w workload, seed int64, sz sizing, traced bool) (*pass, error) {
	g0, comm := gen.CommunityGraph(gen.PresetConfig(gen.PresetUK, sz.scale))
	if w.stream {
		return runStream(w, g0, comm, seed, sz, traced)
	}
	return runBatch(w, g0, comm, seed, sz, traced), nil
}

// runBatch drives an engine through library calls in a closed loop with one
// caller: ApplyBatch + Update is the response, and the caller reads the
// result after every batch.
func runBatch(w workload, g0 *graph.Graph, comm []int, seed int64, sz sizing, traced bool) *pass {
	p := &pass{e2e: map[string]value{}}
	base := heapMB()

	var g *graph.Graph
	var sys layph.System
	var lay *core.Layph
	var setups []float64
	for sz.moreSetups(setups) {
		g = g0.Clone()
		t := time.Now()
		sys, lay = w.build(g)
		setups = append(setups, time.Since(t).Seconds())
	}
	p.e2e["setup_s"] = value{median(setups), "s", len(setups)}
	p.e2e["heap_mb"] = value{heapMB() - base, "MB", 0}

	var tr *tracer
	if traced {
		tr = newTracer()
		sys = &tracedSystem{inner: sys, lay: lay, g: g, tr: tr}
	}
	fd := newFeed(g0.Clone(), comm, seed)
	probe := newReadProbe(w, seed)

	var resp, reads []float64
	var updates int
	var busy time.Duration
	var back delta.Batch
	deadline := time.Now().Add(time.Duration(sz.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		var b delta.Batch
		switch {
		case !w.spread:
			b = fd.local(localBatch)
		case back != nil:
			b, back = back, nil
		default:
			b, back = fd.spreadPair(spreadBatch)
		}
		if traced {
			tr.begin()
		}
		t := time.Now()
		sys.Update(layph.ApplyBatch(g, b))
		d := time.Since(t)
		if traced {
			tr.cur.offered = len(b)
			tr.finish(i)
		}
		resp = append(resp, float64(d)/float64(time.Millisecond))
		busy += d
		updates += len(b)
		reads = append(reads, probe.run(&layph.StreamSnapshot{States: sys.States()}))
	}
	p.attempted = int64(len(resp))

	p.response(resp)
	p.e2e["updates_per_s"] = value{float64(updates) / busy.Seconds(), "1/s", 0}
	p.e2e["read_p50_us"] = value{median(reads), "us", len(reads)}

	p.checkAgainstRestart(w, g, sys.States())
	if !p.correct() {
		p.failed = p.attempted
	}

	if traced {
		p.spans = tr.spans("response", w.engineName(), false)
		p.layer = layerMetrics(w, tr, p.spans)
	}
	return p
}

// layerMetrics derives the per-layer numbers every traced workload has from
// its spans and batch records. Stream and WAL numbers are added by
// runStream; whatever stays unset is reported as 0 by the caller.
func layerMetrics(w workload, tr *tracer, spans []span) map[string]value {
	m := map[string]value{}
	ms := func(name, span string) {
		d := durations(spans, span)
		m[name] = value{median(d), "ms", len(d)}
	}
	ms("delta.apply_ms", "delta.apply")

	var offered, net int
	var acts, rounds, resets, touched, skeleton, hits, util, dirty []float64
	var compactions []int64 // cumulative, as CSRStats counts them
	for _, b := range tr.batches {
		offered += b.offered
		net += b.net
		if b.updStart.IsZero() {
			continue
		}
		acts = append(acts, float64(b.stats.Activations))
		rounds = append(rounds, float64(b.stats.Rounds))
		resets = append(resets, float64(b.stats.Resets))
		touched = append(touched, b.stats.TouchedSubgraphRatio)
		skeleton = append(skeleton, b.stats.SkeletonFraction)
		hits = append(hits, b.stats.ShortcutHitRate)
		util = append(util, b.stats.PoolUtilization)
		dirty = append(dirty, float64(b.csr.DirtyRows))
		compactions = append(compactions, b.csr.Compactions)
	}
	if offered > 0 {
		m["delta.net_applied"] = value{float64(net) / float64(offered), "ratio", 0}
	}
	m["graph.dirty_rows"] = value{mean(dirty), "count", len(dirty)}
	if n := len(compactions); n > 0 {
		m["graph.csr_compactions"] = value{float64(compactions[n-1] - compactions[0]), "count", 0}
	}

	if w.ingress {
		ms("ingress.update_ms", "ingress.update")
		m["ingress.activations"] = value{mean(acts), "count", len(acts)}
	} else {
		ms("core.layered_update_ms", "core.layered_update")
		ms("core.upload_ms", "core.upload")
		ms("core.lup_iteration_ms", "core.lup_iteration")
		ms("core.assignment_ms", "core.assignment")
		other := selfTimes(spans)["core.update"]
		m["core.other_ms"] = value{median(other), "ms", len(other)}
		m["core.activations"] = value{mean(acts), "count", len(acts)}
		m["core.rounds"] = value{mean(rounds), "count", len(rounds)}
		m["core.resets"] = value{mean(resets), "count", len(resets)}
		m["core.touched_subgraph_ratio"] = value{mean(touched), "ratio", len(touched)}
		m["core.skeleton_fraction"] = value{mean(skeleton), "ratio", len(skeleton)}
		m["core.shortcut_hit_rate"] = value{mean(hits), "ratio", len(hits)}
		m["core.pool_utilization"] = value{mean(util), "ratio", len(util)}
	}
	m["trace.coverage"] = value{coverage(spans), "ratio", 0}
	return m
}
