// Package wal is the durability layer of the streaming engine: an
// append-only write-ahead log of micro-batches plus periodic snapshot
// checkpoints, so a crashed process recovers by loading the latest valid
// checkpoint and replaying the WAL tail instead of rebuilding everything
// from nothing.
//
// # On-disk layout
//
// One directory per stream:
//
//	checkpoint-<seq>.ckpt   graph + state vector + counters at seq
//	wal-<seq>.log           batch records whose first seq is <seq>
//
// A new WAL segment is started at every checkpoint, so a segment named
// wal-<s>.log contains only records with seq >= s, and every record in
// segments older than the newest checkpoint is covered by it. Obsolete
// checkpoints and segments are pruned after each successful checkpoint.
//
// # Record framing
//
// Each WAL record is
//
//	[4B little-endian payload length]
//	[8B little-endian batch seq]
//	[4B IEEE CRC32 over the seq bytes followed by the payload]
//	[payload]
//
// where the payload is the micro-batch in delta's text wire format (one
// update per line, see delta.ParseUpdate). Recovery stops at the first
// record whose header or payload is truncated or whose CRC mismatches:
// a torn tail — the expected artifact of crashing mid-append — yields
// the longest valid prefix, and the discarded byte count is reported.
// Records never straddle segment files.
//
// # Fsync policy
//
// Appends go through a buffered writer that is flushed to the OS on
// every batch; SyncPolicy controls when fdatasync makes them storage-
// durable: SyncEveryBatch before each append returns (full durability,
// pays an fsync per micro-batch), SyncInterval at most once per
// Config.Interval (bounded loss window), SyncOff never (contents survive
// a process crash but not an OS crash).
//
// # Crash-consistency contract
//
// LogBatch(seq) returns only after the record is written (and synced,
// per policy); the stream publishes snapshot seq strictly afterwards, so
// recovery — checkpoint load, then tail replay in seq order — always
// reaches at least the last published snapshot. Checkpoints are written
// to a temp file and atomically renamed, so a crash mid-checkpoint
// leaves the previous one intact; a trailing CRC line guards the file's
// integrity on load.
//
// A periodic checkpoint happens in two parts. The cut runs on the
// stream's worker inside AfterBatch: it rotates to segment wal-<seq+1>
// (flushing, syncing and closing the old one, syncing the directory)
// and copies the graph into a flat edge image; the published state
// vector is immutable and needs no copy. The write runs on one
// background goroutine: it formats checkpoint-<seq>.ckpt from the image
// and states, fsyncs it, renames it into place, syncs the directory and
// only then prunes what the new checkpoint covers. At most one write is
// in flight: a cut that finds the previous write still running waits
// for it, and so do Start, Checkpoint, Wait and Close, before anything
// else. Until a write is durable, the previous checkpoint and every
// segment after it stay on disk, so a crash mid-write recovers from the
// previous checkpoint and replays the segments before and after the cut
// contiguously up to the last logged record. A failed write is counted
// in Stats.Failures and returned by the next AfterBatch or Wait; the
// segments it would have pruned stay.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
)

// SyncPolicy selects when appended records are fsynced to storage.
type SyncPolicy uint8

const (
	// SyncEveryBatch fsyncs before every LogBatch returns (default).
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval fsyncs at most once per Config.Interval; a crash can
	// lose at most one interval's worth of acknowledged batches.
	SyncInterval
	// SyncOff never fsyncs: appends are flushed to the OS page cache
	// only. Survives a process kill, not a machine crash.
	SyncOff
)

// String names the policy for logs and metrics.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParseSyncPolicy parses the CLI spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncEveryBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch|interval|off)", s)
}

// Config tunes a Log. The zero value gives sane defaults.
type Config struct {
	// Sync is the fsync policy (default SyncEveryBatch).
	Sync SyncPolicy
	// Interval is the SyncInterval period (0 = 100ms).
	Interval time.Duration
	// CheckpointEvery cuts a checkpoint after this many logged batches
	// (0 = 64; negative disables periodic checkpoints).
	CheckpointEvery int
	// Meta is a free-form workload tag ("algo=sssp system=layph ...")
	// stored in every checkpoint, so recovery can detect an engine
	// mismatch before serving wrong states.
	Meta string
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// Stats is a point-in-time summary of WAL activity; the json tags name
// the keys of the /metrics "wal" block.
type Stats struct {
	// Batches/Updates/Bytes count appended records, the unit updates in
	// them, and the framed bytes written.
	Batches int64 `json:"batches"`
	Updates int64 `json:"updates"`
	Bytes   int64 `json:"bytes"`
	// Fsyncs counts fdatasync calls on the live segment.
	Fsyncs int64 `json:"fsyncs"`
	// Checkpoints counts checkpoints cut (including the Start one) and
	// LastCheckpointSeq is the seq of the newest, both counted when the
	// cut happens, before a background write makes it durable.
	// CheckpointSeconds is the cumulative wall-clock time spent writing
	// checkpoint files (the cut's own cost shows in AfterBatch).
	Checkpoints       int64   `json:"checkpoints"`
	LastCheckpointSeq uint64  `json:"last_checkpoint_seq"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	// Failures counts append/checkpoint errors surfaced to the stream.
	Failures int64 `json:"failures"`
	// Policy echoes the configured fsync policy.
	Policy string `json:"policy"`
}

// Log is the append side of the durability layer. It implements the
// stream.Durable interface: LogBatch before each apply, AfterBatch (the
// checkpoint trigger) after each publish. All methods are safe for one
// writer goroutine plus concurrent Stats readers.
type Log struct {
	dir string
	cfg Config

	mu        sync.Mutex
	lock      *os.File // exclusive dir lock held from Open to Close
	f         *os.File
	segPath   string // path of the live segment
	bw        *bufWriter
	seq       uint64 // last appended seq
	lastSync  time.Time
	sinceCkpt int
	stats     Stats

	img    *graph.EdgeImage // the cut's edge image, reused; nil before the first periodic cut
	bg     *bgWrite         // the background checkpoint write, nil when none is in flight
	bgErr  error            // a finished write's error, until AfterBatch or Wait reports it
	onStep stepFunc         // test hook called after each step of a checkpoint write
}

// bgWrite is one background checkpoint write. err and secs are set
// before done closes and read only after.
type bgWrite struct {
	done chan struct{}
	err  error
	secs float64
}

// bufWriter is a small fixed wrapper so flushing and counting live in
// one place.
type bufWriter struct {
	buf []byte
	f   *os.File
}

func (b *bufWriter) write(p []byte) {
	b.buf = append(b.buf, p...)
}

func (b *bufWriter) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

const (
	recordHeaderBytes = 16
	// maxRecordBytes caps a record payload; recovery treats a bigger
	// declared length as corruption instead of allocating it.
	maxRecordBytes = 64 << 20
)

// Open prepares the durability directory: it creates dir if needed and,
// when durable state exists, loads the latest valid checkpoint plus the
// WAL tail into a Recovered (nil for a fresh directory). The caller
// replays the tail (Recovered.Tail) through its engine and then calls
// Start, which cuts a fresh checkpoint at the recovered position and
// begins a new segment; only then is the Log ready for LogBatch.
func Open(dir string, cfg Config) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// Take the directory lock before reading anything: a second live
	// stream appending to (or checkpointing) the same directory would
	// interleave records and corrupt both histories. The lock is advisory
	// per open file description, so it also rejects a second Open from
	// the same process, and the OS releases it when a crashed process
	// dies — crash recovery never meets a stale lock.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	// A crash mid-write leaves a checkpoint temp file that recovery
	// ignores and no later write reuses unless it cuts the same seq.
	if tmps, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"+tmpSuffix)); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	rec, err := Recover(dir)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	l := &Log{dir: dir, cfg: cfg.withDefaults(), lock: lock}
	l.stats.Policy = l.cfg.Sync.String()
	return l, rec, nil
}

// Start cuts a checkpoint of the current state (seq/updates counters,
// graph, converged states) and opens a fresh segment for records seq+1
// and up. For a fresh directory the caller passes its initial state
// (seq 0); after recovery it passes the replayed position. Pre-existing
// segments and older checkpoints are pruned — everything they held is
// covered by the new checkpoint. The checkpoint is durable when Start
// returns.
func (l *Log) Start(seq, updates uint64, g *graph.Graph, states []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	werr := l.waitLocked()
	if l.f != nil {
		return errors.Join(werr, errors.New("wal: Start called twice"))
	}
	if err := l.checkpointLocked(seq, updates, g, states); err != nil {
		return errors.Join(werr, err)
	}
	l.seq = seq
	l.sinceCkpt = 0
	return werr
}

// LogBatch appends one micro-batch record and makes it durable per the
// sync policy. seq must be contiguous (last seq + 1): the stream is the
// single writer and any gap is a programming error that would corrupt
// recovery, so it fails loudly.
func (l *Log) LogBatch(seq uint64, batch delta.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.fail(errors.New("wal: LogBatch before Start"))
	}
	if seq != l.seq+1 {
		return l.fail(fmt.Errorf("wal: non-contiguous batch seq %d after %d", seq, l.seq))
	}
	var payload bytes.Buffer
	if err := delta.WriteUpdates(&payload, batch); err != nil {
		// A corrupt update must fail the append, not be silently
		// dropped: acking it would persist less than was accepted.
		return l.fail(fmt.Errorf("wal: encode batch %d: %w", seq, err))
	}
	var hdr [recordHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	crc := crc32.ChecksumIEEE(hdr[4:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload.Bytes())
	binary.LittleEndian.PutUint32(hdr[12:16], crc)

	l.bw.write(hdr[:])
	l.bw.write(payload.Bytes())
	if err := l.bw.flush(); err != nil {
		return l.fail(fmt.Errorf("wal: append batch %d: %w", seq, err))
	}
	switch l.cfg.Sync {
	case SyncEveryBatch:
		if err := l.f.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: fsync batch %d: %w", seq, err))
		}
		l.stats.Fsyncs++
		l.lastSync = time.Now()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.cfg.Interval {
			if err := l.f.Sync(); err != nil {
				return l.fail(fmt.Errorf("wal: fsync batch %d: %w", seq, err))
			}
			l.stats.Fsyncs++
			l.lastSync = time.Now()
		}
	}
	l.seq = seq
	l.stats.Batches++
	l.stats.Updates += int64(len(batch))
	l.stats.Bytes += int64(recordHeaderBytes + payload.Len())
	return nil
}

// AfterBatch is the stream's post-publish hook: it counts batches toward
// the checkpoint trigger and cuts one when CheckpointEvery is reached.
// The cut copies g into the log's edge image and keeps states, which the
// caller must not modify afterwards; the file is written in the
// background (see the package doc). An error is either this cut's or
// that of a background write that finished since the last report.
func (l *Log) AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.collectLocked(false)
	l.sinceCkpt++
	if l.cfg.CheckpointEvery <= 0 || l.sinceCkpt < l.cfg.CheckpointEvery {
		return l.takeErrLocked()
	}
	werr := l.waitLocked()
	if err := l.cutLocked(seq, updates, g, states); err != nil {
		// The WAL already holds every batch; a failed checkpoint only
		// lengthens the next recovery, so report and carry on logging
		// into the current segment.
		return errors.Join(werr, err)
	}
	l.sinceCkpt = 0
	return werr
}

// Checkpoint cuts a checkpoint at the given position outside the
// periodic schedule — e.g. the final checkpoint of a clean shutdown,
// after the stream has been closed (making the next start replay-free).
// It writes synchronously: the checkpoint is durable when it returns.
func (l *Log) Checkpoint(seq, updates uint64, g *graph.Graph, states []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	werr := l.waitLocked()
	if err := l.checkpointLocked(seq, updates, g, states); err != nil {
		return errors.Join(werr, err)
	}
	l.sinceCkpt = 0
	return werr
}

// Wait blocks until no checkpoint write is in flight and returns the
// error of a background write not yet reported by AfterBatch.
func (l *Log) Wait() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked()
}

// waitLocked is Wait with l.mu held. The writer never takes l.mu, so
// holding it while waiting cannot deadlock.
func (l *Log) waitLocked() error {
	l.collectLocked(true)
	return l.takeErrLocked()
}

// collectLocked folds a finished background write into the stats; with
// wait set it first blocks until the write in flight, if any, finishes.
// Must hold l.mu.
func (l *Log) collectLocked(wait bool) {
	if l.bg == nil {
		return
	}
	if wait {
		<-l.bg.done
	} else {
		select {
		case <-l.bg.done:
		default:
			return
		}
	}
	l.stats.CheckpointSeconds += l.bg.secs
	if l.bg.err != nil {
		l.stats.Failures++
		l.bgErr = l.bg.err
	}
	l.bg = nil
}

func (l *Log) takeErrLocked() error {
	err := l.bgErr
	l.bgErr = nil
	return err
}

// checkpointLocked writes checkpoint-<seq>.ckpt synchronously, rotates
// to a fresh segment wal-<seq+1>.log, and prunes everything the new
// checkpoint covers. The file goes first: a crash before it is durable
// must not leave a directory holding a new segment but no checkpoint.
// Must hold l.mu with no write in flight.
func (l *Log) checkpointLocked(seq, updates uint64, g *graph.Graph, states []float64) error {
	start := time.Now()
	c, err := newCheckpoint(seq, updates, l.cfg.Meta, g, states)
	if err != nil {
		return l.fail(err)
	}
	if err := c.write(l.dir, l.onStep); err != nil {
		return l.fail(err)
	}
	if err := l.rotateLocked(seq); err != nil {
		return l.fail(err)
	}
	if err := l.pruneObsolete(seq); err != nil {
		return l.fail(err)
	}
	l.stats.Checkpoints++
	l.stats.LastCheckpointSeq = seq
	l.stats.CheckpointSeconds += time.Since(start).Seconds()
	return nil
}

// cutLocked is the worker's part of a periodic checkpoint: it rotates to
// wal-<seq+1>.log, fills the edge image, and starts the background write
// of checkpoint-<seq>.ckpt. Must hold l.mu with no write in flight.
func (l *Log) cutLocked(seq, updates uint64, g *graph.Graph, states []float64) error {
	c, err := newCheckpoint(seq, updates, l.cfg.Meta, g, states)
	if err != nil {
		return l.fail(err)
	}
	if err := l.rotateLocked(seq); err != nil {
		return l.fail(err)
	}
	if l.img == nil {
		l.img = new(graph.EdgeImage)
	}
	l.img.Fill(g)
	c.graph = l.img
	l.stats.Checkpoints++
	l.stats.LastCheckpointSeq = seq

	bg := &bgWrite{done: make(chan struct{})}
	l.bg = bg
	go func() {
		defer close(bg.done)
		start := time.Now()
		bg.err = c.write(l.dir, l.onStep)
		if bg.err == nil {
			bg.err = l.pruneObsolete(seq)
		}
		bg.secs = time.Since(start).Seconds()
	}()
	return nil
}

// rotateLocked makes wal-<seq+1>.log the live segment, so further records
// go to a segment strictly newer than the checkpoint at seq and pruning
// stays segment-granular. When the live segment already IS wal-<seq+1> (a
// checkpoint at an unchanged seq, e.g. clean shutdown right after the
// last one), it holds no records and is simply kept. Must hold l.mu.
func (l *Log) rotateLocked(seq uint64) error {
	target := segmentPath(l.dir, seq+1)
	if l.f == nil || l.segPath != target {
		if l.f != nil {
			if err := l.bw.flush(); err != nil {
				return err
			}
			if l.cfg.Sync != SyncOff {
				if err := l.f.Sync(); err != nil {
					return err
				}
				l.stats.Fsyncs++
			}
			if err := l.f.Close(); err != nil {
				return err
			}
			l.f = nil
		}
		// O_TRUNC: a pre-existing wal-<seq+1> can only hold torn garbage
		// (any valid record in it would have been replayed, putting the
		// recovered position past seq); truncating makes the torn-tail
		// discard permanent instead of appending live records behind it.
		f, err := os.OpenFile(target, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("wal: open segment: %w", err)
		}
		l.f = f
		l.segPath = target
		l.bw = &bufWriter{f: f}
	}
	l.lastSync = time.Now()
	return syncDir(l.dir)
}

// Close flushes and syncs the live segment and releases the file. It
// does not checkpoint; pair with Checkpoint for a clean shutdown.
// A background checkpoint write in flight is finished first, and its
// error, if not yet reported, is returned.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.waitLocked()
	// Release the directory lock even when Start was never called (the
	// durable-open error paths Close a Log that has no live segment).
	if l.lock != nil {
		if err := l.lock.Close(); err != nil && first == nil {
			first = err
		}
		l.lock = nil
	}
	if l.f == nil {
		return first
	}
	if err := l.bw.flush(); err != nil && first == nil {
		first = err
	}
	if l.cfg.Sync != SyncOff {
		if err := l.f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	l.f = nil
	return first
}

// Dir returns the durability directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the WAL counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.collectLocked(false)
	return l.stats
}

func (l *Log) fail(err error) error {
	l.stats.Failures++
	return err
}

// --- directory helpers --------------------------------------------------

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", firstSeq))
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt", seq))
}

// tmpSuffix marks a checkpoint file that is still being written.
const tmpSuffix = ".tmp"

// pruneObsolete removes checkpoints older than seq and segments whose
// records are all covered by the checkpoint at seq (best-effort: a
// leftover file only wastes space, recovery skips covered records), then
// reports the prune step.
func (l *Log) pruneObsolete(seq uint64) error {
	cks, segs, _ := scanDir(l.dir)
	for _, c := range cks {
		if c < seq {
			os.Remove(checkpointPath(l.dir, c))
		}
	}
	for _, s := range segs {
		if s <= seq {
			os.Remove(segmentPath(l.dir, s))
		}
	}
	return l.onStep.after(stepPrune)
}

// scanDir lists checkpoint seqs and segment first-seqs, ascending.
func scanDir(dir string) (checkpoints, segments []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		var n uint64
		switch {
		case len(name) == len("checkpoint-0000000000000000.ckpt") &&
			name[:11] == "checkpoint-" && filepath.Ext(name) == ".ckpt":
			if _, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", &n); err == nil {
				checkpoints = append(checkpoints, n)
			}
		case len(name) == len("wal-0000000000000000.log") &&
			name[:4] == "wal-" && filepath.Ext(name) == ".log":
			if _, err := fmt.Sscanf(name, "wal-%d.log", &n); err == nil {
				segments = append(segments, n)
			}
		}
	}
	sortU64(checkpoints)
	sortU64(segments)
	return checkpoints, segments, nil
}

func sortU64(x []uint64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// syncDir fsyncs a directory so renames and creates survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
