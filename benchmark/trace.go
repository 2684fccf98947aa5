package main

import (
	"time"

	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/stream"
)

// Tracing is done from outside the program: timestamps are taken around the
// calls into each layer, by the batch loop itself and by two pass-through
// decorators on interfaces the stream already accepts (inc.System and
// stream.Durable). Nothing inside internal/ is instrumented.

// phaseNames maps core's LastPhases keys to span names, in execution order.
var phaseNames = [4][2]string{
	{"layered-update", "core.layered_update"},
	{"upload", "core.upload"},
	{"lup-iteration", "core.lup_iteration"},
	{"assignment", "core.assignment"},
}

// batchTrace holds the timestamps and counts of one batch (library mode) or
// one micro-batch (stream mode). Zero times mark calls that did not happen.
type batchTrace struct {
	id                   int
	start, end           time.Time // response / flush
	logStart, logEnd     time.Time // Durable.LogBatch
	updStart, updEnd     time.Time // System.Update
	snapAt               time.Time // Snapshot.At
	afterStart, afterEnd time.Time // Durable.AfterBatch
	phases               [4]time.Duration
	stats                inc.Stats
	offered, net         int // updates in the batch, edges that changed the graph
	csr                  graph.CSRStats
	updates              uint64 // cumulative stream updates covered by this batch
}

// tracer collects batchTraces. All writers run on one goroutine (the batch
// loop, or the stream worker that calls every hook), and readers wait for
// that goroutine's drain or exit, so no lock is needed.
type tracer struct {
	t0      time.Time
	cur     batchTrace
	batches []batchTrace
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin() { t.cur = batchTrace{start: time.Now()} }

func (t *tracer) finish(id int) {
	t.cur.id = id
	if t.cur.end.IsZero() {
		t.cur.end = time.Now()
	}
	t.batches = append(t.batches, t.cur)
	t.cur = batchTrace{}
}

// tracedSystem times inc.System.Update and copies out what the engine
// reports about it.
type tracedSystem struct {
	inner inc.System
	lay   *core.Layph // nil for other engines
	g     *graph.Graph
	tr    *tracer
}

func (s *tracedSystem) Name() string      { return s.inner.Name() }
func (s *tracedSystem) States() []float64 { return s.inner.States() }

func (s *tracedSystem) Update(applied *delta.Applied) inc.Stats {
	c := &s.tr.cur
	c.updStart = time.Now()
	st := s.inner.Update(applied)
	c.updEnd = time.Now()
	c.stats = st
	c.net = len(applied.AddedEdges) + len(applied.RemovedEdges)
	c.csr = s.g.CSRStats()
	if s.lay != nil {
		for i, n := range phaseNames {
			c.phases[i] = s.lay.LastPhases.Get(n[0])
		}
	}
	return st
}

// tracedDurable times stream.Durable. With a nil inner log it only marks
// where a flush starts, which a stream without durability offers no other
// hook for.
type tracedDurable struct {
	inner stream.Durable
	tr    *tracer
}

func (d *tracedDurable) LogBatch(seq uint64, batch delta.Batch) error {
	d.tr.begin()
	c := &d.tr.cur
	c.logStart = c.start
	var err error
	if d.inner != nil {
		err = d.inner.LogBatch(seq, batch)
	}
	c.logEnd = time.Now()
	return err
}

func (d *tracedDurable) AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error {
	c := &d.tr.cur
	c.afterStart = time.Now()
	var err error
	if d.inner != nil {
		err = d.inner.AfterBatch(seq, updates, g, states)
	}
	c.afterEnd = time.Now()
	return err
}

// onBatch closes the micro-batch opened by LogBatch.
func (t *tracer) onBatch(r stream.BatchResult) {
	t.cur.snapAt = r.Snap.At
	t.cur.offered = r.Size
	t.cur.updates = r.Snap.Updates
	t.finish(int(r.Seq))
}

// span is one timed interval of the trace file. Start and End are
// nanoseconds since the tracer was made; Parent indexes the span that
// caused it (-1 for a root); all spans of one batch share Batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// spans lays the collected batches out as a span tree:
//
//	response|flush ⊃ wal.log_batch, delta.apply, <engine>.update ⊃ four
//	core phases, stream.snapshot, wal.after_batch
//
// root is "response" for library calls and "flush" for a stream; engine is
// "core" or "ingress". LastPhases gives phase durations, not start times;
// the phases run back to back from the start of Update, so they are laid out
// that way and what is left of Update after them is its self time.
func (t *tracer) spans(root, engine string, durable bool) []span {
	var out []span
	ns := func(x time.Time) int64 { return int64(x.Sub(t.t0)) }
	for _, b := range t.batches {
		parent := len(out)
		out = append(out, span{root, ns(b.start), ns(b.end), -1, b.id})
		add := func(name string, from, to time.Time, p int) int {
			out = append(out, span{name, ns(from), ns(to), p, b.id})
			return len(out) - 1
		}
		applyFrom, applyTo := b.start, b.updStart
		if !b.logEnd.IsZero() {
			applyFrom = b.logEnd
			if durable {
				add("wal.log_batch", b.logStart, b.logEnd, parent)
			}
		}
		if b.updStart.IsZero() { // the batch netted out to nothing
			applyTo = b.end
			if !b.snapAt.IsZero() {
				applyTo = b.snapAt
			}
		}
		add("delta.apply", applyFrom, applyTo, parent)
		if !b.updStart.IsZero() {
			upd := add(engine+".update", b.updStart, b.updEnd, parent)
			at := b.updStart
			for i, n := range phaseNames {
				if b.phases[i] > 0 {
					add(n[1], at, at.Add(b.phases[i]), upd)
					at = at.Add(b.phases[i])
				}
			}
			if !b.snapAt.IsZero() {
				add("stream.snapshot", b.updEnd, b.snapAt, parent)
			}
		}
		if durable && !b.afterStart.IsZero() {
			add("wal.after_batch", b.afterStart, b.afterEnd, parent)
		}
	}
	return out
}

// selfTimes returns, per span name, the durations of that span minus the
// part its children cover.
func selfTimes(spans []span) map[string][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e6)
	}
	return out
}

// durations returns the durations in ms of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// coverage is the summed duration of the root spans' children over the
// summed duration of the root spans: 1 means the layers account for all of
// the time a batch took.
func coverage(spans []span) float64 {
	var roots, children int64
	for _, s := range spans {
		switch {
		case s.Parent < 0:
			roots += s.End - s.Start
		case spans[s.Parent].Parent < 0:
			children += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}
