package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
)

// ErrSeqGap reports a hole in the replayable record sequence: the WAL
// tail skips a seq the checkpoint does not cover. Unlike a torn tail
// (expected after a crash, safely truncated) a gap means records were
// lost in the middle, so recovered state would silently diverge —
// recovery refuses instead.
var ErrSeqGap = errors.New("wal: sequence gap in log tail")

// Record is one replayable micro-batch from the WAL tail.
type Record struct {
	Seq   uint64
	Batch delta.Batch
}

// Recovered is everything a restart needs: the newest valid checkpoint
// plus the contiguous WAL tail past it, in replay order.
type Recovered struct {
	// Graph and States are the checkpointed materialized state.
	Graph  *graph.Graph
	States []float64
	// Meta is the workload tag stored at checkpoint time.
	Meta string
	// CheckpointSeq/CheckpointUpdates are the stream counters at the
	// checkpoint; replaying Tail advances them.
	CheckpointSeq     uint64
	CheckpointUpdates uint64
	// Tail holds the records with seq > CheckpointSeq, contiguous from
	// CheckpointSeq+1, ending at the last durable record.
	Tail []Record
	// DiscardedBytes counts trailing bytes dropped as a torn tail
	// (truncated header/payload or CRC mismatch in the final segment).
	DiscardedBytes int64
	// LoadDuration is the wall-clock time spent reading and verifying
	// the checkpoint and segments (excludes engine replay).
	LoadDuration time.Duration
}

// HasDurableState reports whether dir holds a checkpoint or a WAL segment,
// so that Open will recover from it rather than start fresh. A checkpoint
// temp file left by a crash does not count: Open deletes it.
func HasDurableState(dir string) bool {
	cks, segs, err := scanDir(dir)
	return err == nil && len(cks)+len(segs) > 0
}

// Recover reads the durability directory without mutating it: it loads
// the newest checkpoint that verifies, then scans every segment for
// records past it. Returns (nil, nil) when the directory holds no
// durable state. Checkpoints that fail verification are skipped in
// favor of older ones; only if none loads is the error surfaced.
func Recover(dir string) (*Recovered, error) {
	start := time.Now()
	cks, segs, err := scanDir(dir)
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if len(cks) == 0 && len(segs) == 0 {
		return nil, nil
	}
	if len(cks) == 0 {
		return nil, fmt.Errorf("wal: %s has WAL segments but no checkpoint", dir)
	}
	rec := &Recovered{}
	var ckErr error
	loaded := false
	for i := len(cks) - 1; i >= 0; i-- {
		g, states, updates, meta, err := readCheckpoint(dir, cks[i])
		if err != nil {
			if ckErr == nil {
				ckErr = err
			}
			continue
		}
		rec.Graph, rec.States, rec.Meta = g, states, meta
		rec.CheckpointSeq, rec.CheckpointUpdates = cks[i], updates
		loaded = true
		break
	}
	if !loaded {
		return nil, fmt.Errorf("wal: no loadable checkpoint in %s: %w", dir, ckErr)
	}

	// Scan segments oldest-first. Records at or below the checkpoint seq
	// are covered by it and skipped; the rest must run contiguously from
	// CheckpointSeq+1. Only the newest segment may legitimately end in a
	// torn record; corruption in an older one implies the gap it would
	// create, which the contiguity check turns into ErrSeqGap.
	next := rec.CheckpointSeq + 1
	for i, s := range segs {
		records, discarded, err := readSegment(segmentPath(dir, s))
		if err != nil {
			return nil, err
		}
		if discarded > 0 && i == len(segs)-1 {
			rec.DiscardedBytes += discarded
		}
		for _, r := range records {
			if r.Seq < next {
				continue
			}
			if r.Seq > next {
				return nil, fmt.Errorf("%w: have %d, want %d (segment %s)",
					ErrSeqGap, r.Seq, next, segmentPath(dir, s))
			}
			rec.Tail = append(rec.Tail, r)
			next++
		}
	}
	rec.LoadDuration = time.Since(start)
	return rec, nil
}

// readSegment parses one WAL segment, returning every record up to the
// first invalid one and the byte count of whatever trailing region was
// discarded. A clean EOF at a record boundary discards nothing.
func readSegment(path string) (records []Record, discarded int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, 0, nil
		}
		if len(rest) < recordHeaderBytes {
			return records, int64(len(rest)), nil
		}
		payloadLen := binary.LittleEndian.Uint32(rest[0:4])
		seq := binary.LittleEndian.Uint64(rest[4:12])
		want := binary.LittleEndian.Uint32(rest[12:16])
		if payloadLen > maxRecordBytes {
			// A garbage length would otherwise read past any plausible
			// record; treat as torn from here.
			return records, int64(len(rest)), nil
		}
		end := recordHeaderBytes + int(payloadLen)
		if len(rest) < end {
			return records, int64(len(rest)), nil
		}
		payload := rest[recordHeaderBytes:end]
		crc := crc32.ChecksumIEEE(rest[4:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			return records, int64(len(rest)), nil
		}
		batch, err := delta.ReadUpdates(bytes.NewReader(payload))
		if err != nil {
			// CRC passed but the payload fails to parse: this is not a
			// torn write, it is an encoder/decoder mismatch. Fail loudly
			// rather than silently dropping an acknowledged batch.
			return nil, 0, fmt.Errorf("wal: segment %s: record seq %d: %w", path, seq, err)
		}
		records = append(records, Record{Seq: seq, Batch: batch})
		off += end
	}
}

// RecoveryInfo summarizes a completed recovery for metrics and logs.
type RecoveryInfo struct {
	// CheckpointSeq is where the loaded checkpoint stood; Seq/Updates
	// are the stream counters after tail replay (what the stream
	// resumed from).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	Seq           uint64 `json:"seq"`
	Updates       uint64 `json:"updates"`
	// ReplayedBatches/ReplayedUpdates count the WAL tail pushed back
	// through the incremental engine.
	ReplayedBatches int64 `json:"replayed_batches"`
	ReplayedUpdates int64 `json:"replayed_updates"`
	// DiscardedBytes is the torn-tail region dropped, if any.
	DiscardedBytes int64 `json:"discarded_bytes"`
	// LoadMillis covers checkpoint+segment reading, ReplayMillis the
	// engine replay of the tail.
	LoadMillis   float64 `json:"load_ms"`
	ReplayMillis float64 `json:"replay_ms"`
	// StatesVerified is true when the rebuilt engine's converged states
	// matched the checkpoint's state vector (an end-to-end integrity
	// check recovery gets for free).
	StatesVerified bool `json:"states_verified"`
	// Meta is the workload tag from the checkpoint.
	Meta string `json:"meta,omitempty"`
}
