package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"layph"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/stream"
	"layph/internal/wal"
)

// snapLog records when each snapshot was published and how many updates it
// covers (snapRec is also used for when each flush started). Only the stream worker appends (from OnBatch); readers wait for a
// Drain or Close first. covered is the one field read while the worker runs.
type snapLog struct {
	snaps   []snapRec
	covered atomic.Uint64
}

type snapRec struct {
	updates uint64
	at      time.Time
}

// liveStream is one stream under test with everything needed to observe it
// and to take it down.
type liveStream struct {
	st   *layph.Stream
	log  *layph.WAL // nil without durability
	dir  string
	pubs *snapLog
	tr   *tracer // nil untraced
}

func (w workload) walConfig() layph.WALConfig {
	return layph.WALConfig{Sync: layph.SyncEveryBatch, CheckpointEvery: checkpointEvery, Meta: "algo=sssp system=layph"}
}

func (w workload) streamConfig(pubs *snapLog, tr *tracer) layph.StreamConfig {
	return layph.StreamConfig{
		MaxBatch: streamMaxBatch,
		MaxDelay: streamMaxDelay,
		QueueCap: streamQueueCap,
		Policy:   layph.BlockWhenFull,
		OnBatch: func(r stream.BatchResult) {
			pubs.snaps = append(pubs.snaps, snapRec{r.Snap.Updates, r.Snap.At})
			pubs.covered.Store(r.Snap.Updates)
			if tr != nil {
				tr.onBatch(r)
			}
		},
	}
}

// open brings a stream up on g: NewLayph + NewStream, or OpenStream on a
// fresh directory (which also cuts the seq-0 checkpoint). A traced stream
// gets the two decorators; a traced durable stream is wired from wal.Open,
// Log.Start and NewStream by hand, because OpenStream leaves no place to put
// a decorator between the log and the stream.
func (w workload) open(g *graph.Graph, dir string, traced bool) (*liveStream, error) {
	ls := &liveStream{dir: dir, pubs: &snapLog{}}
	if !traced {
		scfg := w.streamConfig(ls.pubs, nil)
		if !w.durable {
			sys, _ := w.build(g)
			ls.st = layph.NewStream(g, sys, scfg)
			return ls, nil
		}
		ds, err := layph.OpenStream(g, func(g *layph.Graph) layph.System {
			sys, _ := w.build(g)
			return sys
		}, layph.DurableStreamConfig{Dir: dir, WAL: w.walConfig(), Stream: scfg})
		if err != nil {
			return nil, fmt.Errorf("open durable stream: %w", err)
		}
		ls.st, ls.log = ds.Stream, ds.Log
		return ls, nil
	}

	ls.tr = newTracer()
	scfg := w.streamConfig(ls.pubs, ls.tr)
	hook := &tracedDurable{tr: ls.tr}
	scfg.Durability = hook
	inner, lay := w.build(g)
	sys := &tracedSystem{inner: inner, lay: lay, g: g, tr: ls.tr}
	if w.durable {
		l, rec, err := wal.Open(dir, w.walConfig())
		if err != nil {
			return nil, fmt.Errorf("open WAL: %w", err)
		}
		if rec != nil {
			l.Close()
			return nil, fmt.Errorf("WAL directory %s is not fresh", dir)
		}
		if err := l.Start(0, 0, g, sys.States()); err != nil {
			l.Close()
			return nil, fmt.Errorf("start WAL: %w", err)
		}
		hook.inner, ls.log = l, l
	}
	ls.st = layph.NewStream(g, sys, scfg)
	return ls, nil
}

// stop closes the stream and its log the way a crash leaves them — the
// stream worker exits, the log is closed, no final checkpoint is cut.
func (ls *liveStream) stop() error {
	err := ls.st.Close()
	if ls.log != nil {
		if cerr := ls.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runStream drives a stream in two phases. Paced is an open loop: one
// producer offers pacedRate updates/s whatever the stream does, every update
// is timed from when it was due, and a reader probes the published snapshot
// readRate times a second. Saturate is a closed loop: the producer pushes as
// fast as the bounded queue lets it.
func runStream(w workload, g0 *graph.Graph, comm []int, seed int64, sz sizing, traced bool) (*pass, error) {
	p := &pass{e2e: map[string]value{}}
	base := heapMB()

	var ls *liveStream
	var setups []float64
	for sz.moreSetups(setups) {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up stream: %w", err)
			}
			os.RemoveAll(ls.dir)
		}
		dir, err := os.MkdirTemp(sz.outDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("create WAL directory: %w", err)
		}
		defer os.RemoveAll(dir)
		g := g0.Clone()
		t := time.Now()
		if ls, err = w.open(g, dir, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	p.e2e["setup_s"] = value{median(setups), "s", len(setups)}
	p.e2e["heap_mb"] = value{heapMB() - base, "MB", 0}
	st := ls.st

	fd := newFeed(g0.Clone(), comm, seed)
	var pushed, pushFailed int64
	push := func(u delta.Update) {
		pushed++
		if err := st.Push(u); err != nil {
			pushFailed++
		}
	}

	// Paced phase. The sequence is generated beforehand, in whole stretches
	// of streamMaxBatch updates so the feed's shadow graph stays in step.
	pacedFor := time.Duration(pacedShare * sz.seconds * float64(time.Second))
	interval := time.Second / pacedRate
	var seq delta.Batch
	for len(seq) < int(pacedFor/interval) {
		seq = append(seq, fd.local(streamMaxBatch)...)
	}

	probe := newReadProbe(w, seed)
	stopReader := make(chan struct{})
	readerDone := make(chan []float64)
	go func() {
		tick := time.NewTicker(time.Second / readRate)
		defer tick.Stop()
		var reads []float64
		for {
			select {
			case <-stopReader:
				readerDone <- reads
				return
			case <-tick.C:
				reads = append(reads, probe.run(st.Query()))
			}
		}
	}()

	var backlogMax, backlogEnd int64
	var lateMax time.Duration
	start := time.Now()
	for i := 0; i < len(seq); {
		due := int(time.Since(start)/interval) + 1
		for ; i < due && i < len(seq); i++ {
			if late := time.Since(start) - time.Duration(i)*interval; late > lateMax {
				lateMax = late
			}
			push(seq[i])
		}
		backlogEnd = int64(i) - int64(ls.pubs.covered.Load())
		backlogMax = max(backlogMax, backlogEnd)
		time.Sleep(time.Millisecond)
	}
	if err := st.Drain(); err != nil {
		p.check("paced drain", false, "%v", err)
	}
	close(stopReader)
	reads := <-readerDone

	// An update is visible at the first snapshot that covers it.
	visible := sinceDue(len(seq), start, interval, ls.pubs.snaps)
	p.response(visible)
	p.e2e["read_p50_us"] = value{median(reads), "us", len(reads)}
	p.check("every paced update became visible", len(visible) == len(seq), "%d of %d", len(visible), len(seq))
	p.check("paced rate is sustainable", float64(backlogEnd) <= maxBacklogSecond*pacedRate,
		"%d updates behind at the end of the phase, %d at most during it", backlogEnd, backlogMax)

	// Saturate phase.
	satStart := time.Now()
	satPushed := pushed
	satDeadline := satStart.Add(time.Duration(saturateShare * sz.seconds * float64(time.Second)))
	for time.Now().Before(satDeadline) {
		for _, u := range fd.local(streamMaxBatch) {
			push(u)
		}
	}
	if err := st.Drain(); err != nil {
		p.check("saturate drain", false, "%v", err)
	}
	p.e2e["updates_per_s"] = value{float64(pushed-satPushed) / time.Since(satStart).Seconds(), "1/s", 0}

	var recovered *recovery
	if w.durable {
		// Recovery must have a log tail to replay: if the last batch
		// happened to cut a checkpoint, push on until one has not.
		for ls.log.Stats().LastCheckpointSeq == st.Query().Seq {
			for _, u := range fd.local(streamMaxBatch) {
				push(u)
			}
			if err := st.Drain(); err != nil {
				p.check("tail drain", false, "%v", err)
				break
			}
		}
	}
	sm := st.Metrics()
	var walStats layph.WALStats
	if ls.log != nil {
		walStats = ls.log.Stats()
	}
	if err := ls.stop(); err != nil {
		p.check("stop", false, "%v", err)
	}
	last := st.Query()
	final, finalGraph := last, st.Graph()
	if w.durable {
		var err error
		if recovered, err = w.recover(ls.dir, last, finalGraph.Cap(), p); err != nil {
			return nil, err
		}
		final, finalGraph = recovered.snap, recovered.g
	}

	p.attempted = pushed + int64(len(reads))
	p.failed = pushFailed + sm.Dropped
	p.check("no push failed and none was dropped", p.failed == 0, "%d failed, %d dropped", pushFailed, sm.Dropped)
	p.check("no durability error", st.DurabilityErr() == nil, "%v", st.DurabilityErr())
	p.check("every push was applied", sm.Applied == pushed, "%d pushed, %d applied", pushed, sm.Applied)
	p.checkAgainstRestart(w, finalGraph, final.States)
	if !p.correct() {
		p.failed = p.attempted
	}

	if traced {
		p.spans = ls.tr.spans("flush", w.engineName(), w.durable)
		p.layer = layerMetrics(w, ls.tr, p.spans)
		// Queue wait: from when an update was due to the start of the
		// flush that carried it.
		var flushes []snapRec
		var sizes []float64
		for _, b := range ls.tr.batches {
			flushes = append(flushes, snapRec{b.updates, b.start})
			sizes = append(sizes, float64(b.offered))
		}
		wait := sinceDue(len(seq), start, interval, flushes)
		m := p.layer
		m["stream.queue_wait_ms"] = value{median(wait), "ms", len(wait)}
		m["stream.batch_size"] = value{mean(sizes), "count", len(sizes)}
		m["stream.backlog_max"] = value{float64(backlogMax), "count", 0}
		m["stream.gen_late_max_ms"] = value{float64(lateMax) / float64(time.Millisecond), "ms", 0}
		m["stream.dropped"] = value{float64(sm.Dropped), "count", 0}
		spanMS := func(name, span string) {
			d := durations(p.spans, span)
			m[name] = value{median(d), "ms", len(d)}
		}
		spanMS("stream.update_ms", w.engineName()+".update")
		spanMS("stream.snapshot_ms", "stream.snapshot")
		if w.durable {
			spanMS("wal.log_batch_ms", "wal.log_batch")
			spanMS("wal.after_batch_ms", "wal.after_batch")
			after := durations(p.spans, "wal.after_batch")
			m["wal.after_batch_max_ms"] = value{quantile(after, 1), "ms", len(after)}
			m["wal.bytes_per_update"] = value{float64(walStats.Bytes) / float64(max(walStats.Updates, 1)), "B", 0}
			m["wal.fsyncs"] = value{float64(walStats.Fsyncs), "count", 0}
			m["wal.checkpoints"] = value{float64(walStats.Checkpoints), "count", 0}
			m["wal.checkpoint_s"] = value{walStats.CheckpointSeconds, "s", 0}
			m["wal.recover_s"] = value{recovered.total.Seconds(), "s", 0}
			m["wal.load_ms"] = value{recovered.info.LoadMillis, "ms", 0}
			m["wal.rebuild_ms"] = value{float64(recovered.rebuild) / float64(time.Millisecond), "ms", 0}
			m["wal.replay_ms"] = value{recovered.info.ReplayMillis, "ms", 0}
			m["wal.replayed_batches"] = value{float64(recovered.info.ReplayedBatches), "count", 0}
		}
	}
	return p, nil
}

// sinceDue returns, for each of the first n paced updates, the time in ms
// from when it was due to the first record that covers it (records carry the
// cumulative update count they reach, in increasing order). Updates no
// record covers are left out.
func sinceDue(n int, start time.Time, interval time.Duration, recs []snapRec) []float64 {
	out := make([]float64, 0, n)
	for i, j := 0, 0; i < n; i++ {
		for j < len(recs) && recs[j].updates < uint64(i+1) {
			j++
		}
		if j == len(recs) {
			break
		}
		due := start.Add(time.Duration(i) * interval)
		out = append(out, float64(recs[j].at.Sub(due))/float64(time.Millisecond))
	}
	return out
}

// recovery is what reopening a crashed durability directory gave back.
type recovery struct {
	total   time.Duration // crash image → serving stream
	rebuild time.Duration // the engine build inside it
	info    *layph.RecoveryInfo
	snap    *layph.StreamSnapshot
	g       *graph.Graph
}

// recover reopens dir with OpenStream, checks the recovered stream against
// the last snapshot published before the stop, and shuts it down.
func (w workload) recover(dir string, last *layph.StreamSnapshot, n int, p *pass) (*recovery, error) {
	r := &recovery{}
	t := time.Now()
	ds, err := layph.OpenStream(nil, func(g *layph.Graph) layph.System {
		bt := time.Now()
		sys, _ := w.build(g)
		r.rebuild = time.Since(bt)
		return sys
	}, layph.DurableStreamConfig{Dir: dir, WAL: w.walConfig(), Stream: layph.StreamConfig{}})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r.total = time.Since(t)
	r.snap = ds.Stream.Query()
	if r.info = ds.Recovery; r.info == nil {
		r.info = &layph.RecoveryInfo{}
		p.check("recovery ran", false, "OpenStream found no durable state in %s", dir)
	}
	p.check("recovery verified the checkpointed states", r.info.StatesVerified, "")
	p.check("recovery replayed a log tail", r.info.ReplayedBatches > 0, "%d batches", r.info.ReplayedBatches)
	same := r.snap.Seq == last.Seq && r.snap.Updates == last.Updates &&
		len(r.snap.States) >= n && len(last.States) >= n &&
		layph.StatesClose(r.snap.States[:n], last.States[:n], w.tolerance())
	p.check("recovered snapshot equals the last one before the stop", same,
		"seq %d/%d updates %d/%d", r.snap.Seq, last.Seq, r.snap.Updates, last.Updates)
	if err := ds.Close(); err != nil {
		p.check("close recovered stream", false, "%v", err)
	}
	r.g = ds.Stream.Graph()
	return r, nil
}
