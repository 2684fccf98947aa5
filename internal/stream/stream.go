// Package stream turns the repository's one-shot ApplyBatch/Update
// lifecycle into a continuous ingestion pipeline: an ordered update log
// that accepts a stream of unit updates, micro-batches them, applies each
// micro-batch atomically through delta.Apply, and drives any inc.System
// (Layph or a baseline) through Update.
//
// Micro-batching semantics: a pending micro-batch is flushed when it
// reaches Config.MaxBatch updates (count trigger) or when Config.MaxDelay
// has elapsed since its first update arrived (time trigger), whichever
// comes first. Updates are applied strictly in arrival order; the worker
// goroutine is the only mutator of the graph and the system once the
// stream is running.
//
// Snapshot semantics: after every flushed micro-batch the worker publishes
// an immutable Snapshot (a copy of the converged state vector plus
// sequence counters). Query returns the most recently published snapshot,
// so readers never observe a half-applied batch and never race with the
// engine's in-place state updates.
//
// Backpressure: the log is a bounded queue of Config.QueueCap updates.
// Under the Block policy Push blocks until space frees up; under Drop it
// fails fast with ErrQueueFull and counts the update as dropped.
//
// Shutdown: Drain blocks until everything pushed before it has been
// applied and published; Close drains and then stops the worker. Push
// after Close returns ErrClosed.
//
// Durability: with Config.Durability set (see internal/wal), every
// micro-batch is handed to the hook BEFORE it is applied and published —
// write-ahead logging — so any state visible through Query survives a
// crash. The durable boundary is the published snapshot: updates acked by
// Push but still queued or pending when the process dies are lost, which
// is exactly the pre-crash behaviour a client observes from an unflushed
// micro-batch.
package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/metrics"
)

// Policy selects the backpressure behaviour of Push on a full queue.
type Policy uint8

const (
	// Block makes Push wait until queue space frees up (lossless).
	Block Policy = iota
	// Drop makes Push fail immediately with ErrQueueFull (lossy, bounded
	// latency for the producer).
	Drop
)

// Errors returned by Push and Drain.
var (
	// ErrClosed reports an operation on a closed stream.
	ErrClosed = errors.New("stream: closed")
	// ErrQueueFull reports a dropped update under the Drop policy.
	ErrQueueFull = errors.New("stream: queue full")
)

// Durable is the durability hook of a stream (implemented by wal.Log).
// Both methods run on the worker goroutine, serialized with every apply.
type Durable interface {
	// LogBatch persists one micro-batch BEFORE it is applied to the graph
	// and before its snapshot publishes. seq is the snapshot sequence
	// number the batch will produce. A non-nil error means the batch is
	// NOT durable: the stream keeps it pending and retries rather than
	// publishing state that a crash would lose.
	LogBatch(seq uint64, batch delta.Batch) error
	// AfterBatch runs after the batch's snapshot has been published, with
	// exclusive access to the graph and the (immutable) published states;
	// wal.Log uses it to cut periodic checkpoints. The hook may keep the
	// states slice after it returns, but must copy what it needs from g
	// before returning: the next batch mutates it. Errors are recorded
	// as sticky but do not stall the stream — the WAL already holds the
	// batch, so a failed checkpoint only lengthens future recovery.
	AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error
}

// Config tunes a Stream. The zero value gives sane defaults.
type Config struct {
	// MaxBatch is the count trigger: a pending micro-batch of this many
	// updates is flushed immediately (0 = 1024).
	MaxBatch int
	// MaxDelay is the time trigger: a non-empty pending micro-batch older
	// than this is flushed even if under-full (0 = 50ms; negative
	// disables the time trigger).
	MaxDelay time.Duration
	// QueueCap bounds the update log between producers and the worker
	// (0 = 4*MaxBatch).
	QueueCap int
	// Policy is the backpressure policy on a full queue (default Block).
	Policy Policy
	// OnBatch, when non-nil, is invoked on the worker goroutine after
	// each micro-batch is applied and its snapshot published. It must be
	// fast; it stalls ingestion while it runs.
	OnBatch func(BatchResult)
	// Durability, when non-nil, receives every micro-batch before it is
	// applied (LogBatch) and after its snapshot publishes (AfterBatch).
	// The write-ahead-log contract: a snapshot is never published unless
	// its batch has been logged first, so everything visible through
	// Query survives a crash.
	Durability Durable
	// StartSeq and StartUpdates seed the initial snapshot's counters, so
	// a stream resumed from a recovered checkpoint continues the sequence
	// instead of restarting at zero.
	StartSeq, StartUpdates uint64
	// StartStats pre-loads the lifetime engine aggregate (Metrics.Engine),
	// letting recovery fold the WAL tail's replay work into /metrics.
	StartStats inc.Stats
	// Relayer, when non-nil, enables the re-layering drift controller
	// (see RelayerConfig) over a system with Redetect (core.Layph); over any
	// other system it is ignored.
	Relayer *RelayerConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
		if c.QueueCap > 65536 {
			c.QueueCap = 65536
		}
	}
	return c
}

// rollingWindow is how many recent batches the rolling throughput and
// latency metrics cover.
const rollingWindow = 64

// Snapshot is an immutable, consistent view of the system state between
// micro-batches. States must not be mutated by readers.
type Snapshot struct {
	// Seq counts published snapshots (0 = initial batch computation).
	Seq uint64
	// Updates is the cumulative number of streamed updates applied.
	Updates uint64
	// States is the converged state vector as of this snapshot.
	States []float64
	// At is the publication time.
	At time.Time
}

// BatchResult describes one flushed micro-batch to the OnBatch hook.
type BatchResult struct {
	// Seq is the sequence number of the snapshot this batch produced.
	Seq uint64
	// Size is the number of unit updates in the micro-batch.
	Size int
	// Applied is false when the batch netted out to nothing on the graph
	// (e.g. deleting edges that were never added), in which case the
	// engine was not invoked.
	Applied bool
	// Stats is the engine's update record (zero when !Applied).
	Stats inc.Stats
	// Snap is the snapshot published for this batch.
	Snap *Snapshot
}

// Metrics is a point-in-time summary of stream health.
type Metrics struct {
	// Accepted and Dropped count Push outcomes; Applied counts updates
	// flushed into the graph (accepted but not yet flushed updates are
	// still queued or pending).
	Accepted, Dropped, Applied int64
	// Batches counts flushed micro-batches.
	Batches int64
	// Throughput is rolling applied updates per second over the recent
	// batch window.
	Throughput float64
	// MeanBatchLatency is the mean apply+update time per micro-batch over
	// the window.
	MeanBatchLatency time.Duration
	// LogFailures counts failed Durable.LogBatch/AfterBatch calls (0
	// without a durability hook). The first failure is kept as a sticky
	// error, readable via DurabilityErr.
	LogFailures int64
	// Engine aggregates the per-batch inc.Stats over the stream lifetime
	// (including Config.StartStats, i.e. recovery replay work).
	Engine inc.Stats
	// Relayer reports the re-layering drift controller's state
	// (Relayer.Enabled is false when no relayer is configured).
	Relayer RelayerMetrics
}

type item struct {
	upd   delta.Update
	flush chan struct{} // non-nil: drain barrier, no update payload
	stop  bool          // close request
}

// Stream is an ordered micro-batching ingestion pipeline feeding one
// incremental engine. Construct with New; Push may be called from any
// number of goroutines.
type Stream struct {
	g   *graph.Graph
	sys inc.System
	cfg Config

	in     chan item
	done   chan struct{} // closed when the worker exits
	closed atomic.Bool
	// pmu orders producer sends against Close: Push/Drain hold the read
	// side around their channel send, Close takes the write side before
	// enqueuing the stop token, so every acknowledged send is in the
	// queue ahead of the stop and is flushed before the worker exits.
	pmu sync.RWMutex

	snap atomic.Pointer[Snapshot]

	accepted    atomic.Int64
	dropped     atomic.Int64
	applied     atomic.Int64
	batches     atomic.Int64
	logFailures atomic.Int64
	window      *metrics.Rolling

	mu     sync.Mutex // guards agg, durErr and rlm
	agg    inc.Stats
	durErr error // first durability failure, sticky

	// rl is the drift controller's worker-owned state (nil when disabled);
	// rlm is the metrics copy it publishes under mu for readers.
	rl  *relayerState
	rlm RelayerMetrics
}

// New starts a stream over g driving sys. The system must already have
// run its initial batch computation on g (every constructor in this
// repository does), and after New neither g nor sys may be touched by the
// caller except through the stream.
func New(g *graph.Graph, sys inc.System, cfg Config) *Stream {
	if g == nil || sys == nil {
		panic("stream: nil graph or system")
	}
	cfg = cfg.withDefaults()
	s := &Stream{
		g: g, sys: sys, cfg: cfg,
		in:     make(chan item, cfg.QueueCap),
		done:   make(chan struct{}),
		window: metrics.NewRolling(rollingWindow),
		agg:    cfg.StartStats,
	}
	if rd, ok := sys.(redetector); ok && cfg.Relayer != nil {
		s.rl = &relayerState{
			cfg:   cfg.Relayer.withDefaults(),
			sys:   rd,
			landC: make(chan func() inc.Stats, 1),
		}
		s.rl.m.Enabled = true
		s.rlm = s.rl.m
	}
	s.snap.Store(&Snapshot{
		Seq: cfg.StartSeq, Updates: cfg.StartUpdates,
		States: copyStates(sys.States()), At: time.Now(),
	})
	go s.loop()
	return s
}

// Push appends one update to the log. Under the Block policy it waits for
// queue space; under Drop it returns ErrQueueFull when the queue is full.
// Push returns ErrClosed once Close has been called.
func (s *Stream) Push(u delta.Update) error {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.cfg.Policy == Drop {
		select {
		case s.in <- item{upd: u}:
			s.accepted.Add(1)
			return nil
		default:
			s.dropped.Add(1)
			return ErrQueueFull
		}
	}
	select {
	case s.in <- item{upd: u}:
		s.accepted.Add(1)
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// Query returns the latest published snapshot. It never blocks and the
// returned snapshot is immutable.
func (s *Stream) Query() *Snapshot {
	return s.snap.Load()
}

// Drain blocks until every update pushed before the call has been applied
// and its snapshot published. It does not stop the stream. On a stream
// with a durability hook, Drain surfaces the sticky durability error: a
// returned error means the stream is degraded and some drained updates
// may not be durable (or even applied) yet.
func (s *Stream) Drain() error {
	barrier := make(chan struct{})
	s.pmu.RLock()
	if s.closed.Load() {
		s.pmu.RUnlock()
		return ErrClosed
	}
	select {
	case s.in <- item{flush: barrier}:
		s.pmu.RUnlock()
	case <-s.done:
		s.pmu.RUnlock()
		return ErrClosed
	}
	select {
	case <-barrier:
		return s.DurabilityErr()
	case <-s.done:
		return ErrClosed
	}
}

// DurabilityErr returns the first durability-hook failure, if any. It is
// sticky: once the write-ahead log has failed, the stream is degraded
// (publication stalls on the unloggable batch) and should be restarted.
func (s *Stream) DurabilityErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durErr
}

func (s *Stream) recordDurErr(err error) {
	s.logFailures.Add(1)
	s.mu.Lock()
	if s.durErr == nil {
		s.durErr = err
	}
	s.mu.Unlock()
}

// Graph exposes the graph the stream mutates. It must not be touched
// while the stream is running (the worker goroutine owns it); durability
// helpers use it after Close to cut a final checkpoint.
func (s *Stream) Graph() *graph.Graph { return s.g }

// Close drains the queue, flushes the pending micro-batch, publishes the
// final snapshot and stops the worker. It is idempotent; only the first
// call performs the drain.
func (s *Stream) Close() error {
	if s.closed.Swap(true) {
		<-s.done
		return nil
	}
	// Wait for in-flight Push/Drain sends to land so the stop token is
	// ordered behind every acknowledged update.
	s.pmu.Lock()
	s.pmu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	select {
	case s.in <- item{stop: true}:
	case <-s.done:
	}
	<-s.done
	return nil
}

// Closed reports whether Close has been called. Serving layers use it to
// fail pushes fast while the final drain runs.
func (s *Stream) Closed() bool { return s.closed.Load() }

// Metrics returns a point-in-time summary of counters and rolling rates.
func (s *Stream) Metrics() Metrics {
	s.mu.Lock()
	agg := s.agg
	rlm := s.rlm
	s.mu.Unlock()
	return Metrics{
		Accepted:         s.accepted.Load(),
		Dropped:          s.dropped.Load(),
		Applied:          s.applied.Load(),
		Batches:          s.batches.Load(),
		Throughput:       s.window.Rate(),
		MeanBatchLatency: s.window.MeanDuration(),
		LogFailures:      s.logFailures.Load(),
		Engine:           agg,
		Relayer:          rlm,
	}
}

// System exposes the driven engine (for Name etc.). The engine's live
// state must not be read while the stream is running; use Query.
func (s *Stream) System() inc.System { return s.sys }

func (s *Stream) loop() {
	defer close(s.done)
	var pending delta.Batch
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var timerC <-chan time.Time

	// flush logs (when durable), applies and publishes the pending batch.
	// final marks the shutdown flush, where an unloggable batch is dropped
	// with a sticky error (crash-equivalent) instead of retried forever.
	flush := func(final bool) {
		if timerC != nil {
			timer.Stop()
			timerC = nil
		}
		if len(pending) == 0 {
			return
		}
		prev := s.snap.Load()
		// Write-ahead: the batch must be durable before it is applied and
		// before its snapshot becomes visible. On failure the batch stays
		// pending — later updates keep accumulating behind it and the
		// queue's backpressure reaches the producers — and the time
		// trigger retries, in case the log recovers (disk full, ...).
		if s.cfg.Durability != nil {
			if err := s.cfg.Durability.LogBatch(prev.Seq+1, pending); err != nil {
				s.recordDurErr(err)
				if final {
					pending = nil
					return
				}
				if s.cfg.MaxDelay > 0 {
					timer.Reset(s.cfg.MaxDelay)
					timerC = timer.C
				}
				return
			}
		}
		batch := pending
		pending = nil
		start := time.Now()
		applied := delta.Apply(s.g, batch)
		var st inc.Stats
		if !applied.Empty() {
			st = s.sys.Update(applied)
		}
		elapsed := time.Since(start)

		states := prev.States
		if !applied.Empty() {
			states = copyStates(s.sys.States())
		}
		snap := &Snapshot{
			Seq:     prev.Seq + 1,
			Updates: prev.Updates + uint64(len(batch)),
			States:  states,
			At:      time.Now(),
		}
		s.snap.Store(snap)
		if s.cfg.Durability != nil {
			if err := s.cfg.Durability.AfterBatch(snap.Seq, snap.Updates, s.g, snap.States); err != nil {
				s.recordDurErr(err)
			}
		}

		s.applied.Add(int64(len(batch)))
		s.batches.Add(1)
		s.window.Observe(int64(len(batch)), elapsed)
		s.mu.Lock()
		s.agg.Add(st)
		s.mu.Unlock()
		if s.rl != nil && !final {
			s.relayerStep(st, !applied.Empty(), snap)
		}
		if s.cfg.OnBatch != nil {
			s.cfg.OnBatch(BatchResult{
				Seq: snap.Seq, Size: len(batch),
				Applied: !applied.Empty(), Stats: st, Snap: snap,
			})
		}
	}

	for {
		select {
		case it := <-s.in:
			switch {
			case it.stop:
				// Scoop up items that raced with Close into the buffered
				// queue behind the stop token, then do the final flush.
				var barriers []chan struct{}
				for scooping := true; scooping; {
					select {
					case late := <-s.in:
						switch {
						case late.stop:
						case late.flush != nil:
							barriers = append(barriers, late.flush)
						default:
							pending = append(pending, late.upd)
						}
					default:
						scooping = false
					}
				}
				flush(true)
				for _, b := range barriers {
					close(b)
				}
				return
			case it.flush != nil:
				flush(false)
				close(it.flush)
			default:
				pending = append(pending, it.upd)
				if len(pending) >= s.cfg.MaxBatch {
					flush(false)
				} else if len(pending) == 1 && s.cfg.MaxDelay > 0 {
					timer.Reset(s.cfg.MaxDelay)
					timerC = timer.C
				}
			}
		case <-timerC:
			timerC = nil
			flush(false)
		}
	}
}

func copyStates(x []float64) []float64 {
	cp := make([]float64, len(x))
	copy(cp, x)
	return cp
}
