package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"layph/internal/graph"
)

// Checkpoint file format (text, CRC-trailed):
//
//	layph-checkpoint v1
//	seq <N>
//	updates <N>
//	meta <free-form tag, may be empty>
//	states <N>
//	<N lines of float64, shortest round-trip form; Inf/NaN literal>
//	graph
//	<graph.WriteEdgeList output>
//	crc <IEEE CRC32 of every byte above this line>
//
// The file is written to a temp name, fsynced, and renamed into place,
// then the directory is fsynced: a crash at any point leaves either the
// previous checkpoint or a complete new one, never a partial file under
// the live name (Open deletes a leftover temp file). The trailing crc
// line catches the remaining failure mode — a file that renamed fine but
// was corrupted at rest.

// checkpoint is the content of one checkpoint file. graph is the live
// graph for a synchronous write, or the edge image taken at a cut for a
// background one; states is never written to after it is handed over.
type checkpoint struct {
	seq, updates uint64
	meta         string
	states       []float64
	graph        interface{ WriteEdgeList(io.Writer) error }
}

// newCheckpoint checks a checkpoint's content against g. The state
// vector may be longer than the graph's vertex space: engines that
// append internal replicas (Layph's proxy vertices live past g.Cap() in
// its flat ID space) are truncated to the real vertices — the replicas
// are derived state, reconstructed when the engine is rebuilt on the
// recovered graph, and their IDs are not stable across rebuilds anyway.
func newCheckpoint(seq, updates uint64, meta string, g *graph.Graph, states []float64) (*checkpoint, error) {
	if len(states) < g.Cap() {
		return nil, fmt.Errorf("wal: checkpoint: %d states for a graph of %d vertices", len(states), g.Cap())
	}
	if strings.ContainsAny(meta, "\n\r") {
		return nil, fmt.Errorf("wal: checkpoint meta contains newline")
	}
	return &checkpoint{seq: seq, updates: updates, meta: meta, states: states[:g.Cap()], graph: g}, nil
}

// encode streams the checkpoint file to w, computing the crc trailer on
// the way, so no copy of the whole file is held in memory.
func (c *checkpoint) encode(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	fmt.Fprintf(bw, "layph-checkpoint v1\nseq %d\nupdates %d\nmeta %s\nstates %d\n",
		c.seq, c.updates, c.meta, len(c.states))
	for _, x := range c.states {
		bw.WriteString(formatState(x))
		bw.WriteByte('\n')
	}
	bw.WriteString("graph\n")
	if err := c.graph.WriteEdgeList(bw); err != nil {
		return fmt.Errorf("wal: checkpoint graph: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "crc %d\n", crc.Sum32())
	return err
}

// Steps of a checkpoint write, in order, as reported to a step hook.
const (
	stepWrite   = "write"   // temp file written
	stepFsync   = "fsync"   // temp file fsynced and closed
	stepRename  = "rename"  // renamed to its live name
	stepSyncDir = "syncdir" // directory fsynced: the checkpoint is durable
	stepPrune   = "prune"   // covered checkpoints and segments removed
)

// stepFunc is called after each step of a checkpoint write; a non-nil
// error fails the write there, as an I/O error at that step would.
type stepFunc func(step string) error

func (f stepFunc) after(step string) error {
	if f == nil {
		return nil
	}
	return f(step)
}

// write persists checkpoint-<seq>.ckpt atomically: temp file, fsync,
// rename, directory fsync.
func (c *checkpoint) write(dir string, step stepFunc) error {
	final := checkpointPath(dir, c.seq)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err = c.encode(f); err == nil {
		err = step.after(stepWrite)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err = f.Close(); err == nil {
		err = step.after(stepFsync)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := step.after(stepRename); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return step.after(stepSyncDir)
}

// readCheckpoint loads and verifies checkpoint-<seq>.ckpt.
func readCheckpoint(dir string, seq uint64) (g *graph.Graph, states []float64, updates uint64, meta string, err error) {
	path := checkpointPath(dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, "", fmt.Errorf("wal: %w", err)
	}
	// Split off the trailing "crc N\n" line and verify it covers the rest.
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, nil, 0, "", fmt.Errorf("wal: checkpoint %s: truncated (no trailing newline)", path)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	crcLine := strings.TrimSpace(string(data[cut:]))
	body := data[:cut]
	var want uint32
	if _, err := fmt.Sscanf(crcLine, "crc %d", &want); err != nil {
		return nil, nil, 0, "", fmt.Errorf("wal: checkpoint %s: missing crc trailer", path)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, nil, 0, "", fmt.Errorf("wal: checkpoint %s: crc mismatch (file %d, computed %d)", path, want, got)
	}

	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("unexpected end of file")
		}
		return sc.Text(), nil
	}
	fail := func(what string, err error) error {
		return fmt.Errorf("wal: checkpoint %s: %s: %w", path, what, err)
	}
	hdr, err := line()
	if err != nil || hdr != "layph-checkpoint v1" {
		return nil, nil, 0, "", fail("header", fmt.Errorf("got %q, err %v", hdr, err))
	}
	var fileSeq uint64
	if s, err := line(); err != nil {
		return nil, nil, 0, "", fail("seq", err)
	} else if _, err := fmt.Sscanf(s, "seq %d", &fileSeq); err != nil {
		return nil, nil, 0, "", fail("seq", err)
	}
	if fileSeq != seq {
		return nil, nil, 0, "", fmt.Errorf("wal: checkpoint %s: seq %d inside file named for %d", path, fileSeq, seq)
	}
	if s, err := line(); err != nil {
		return nil, nil, 0, "", fail("updates", err)
	} else if _, err := fmt.Sscanf(s, "updates %d", &updates); err != nil {
		return nil, nil, 0, "", fail("updates", err)
	}
	if s, err := line(); err != nil {
		return nil, nil, 0, "", fail("meta", err)
	} else if !strings.HasPrefix(s, "meta") {
		return nil, nil, 0, "", fail("meta", fmt.Errorf("got %q", s))
	} else {
		meta = strings.TrimPrefix(strings.TrimPrefix(s, "meta"), " ")
	}
	var nStates int
	if s, err := line(); err != nil {
		return nil, nil, 0, "", fail("states", err)
	} else if _, err := fmt.Sscanf(s, "states %d", &nStates); err != nil || nStates < 0 {
		return nil, nil, 0, "", fail("states", fmt.Errorf("bad count in %q (%v)", s, err))
	}
	states = make([]float64, nStates)
	for i := range states {
		s, err := line()
		if err != nil {
			return nil, nil, 0, "", fail(fmt.Sprintf("state %d", i), err)
		}
		states[i], err = parseState(s)
		if err != nil {
			return nil, nil, 0, "", fail(fmt.Sprintf("state %d", i), err)
		}
	}
	if s, err := line(); err != nil || s != "graph" {
		return nil, nil, 0, "", fail("graph marker", fmt.Errorf("got %q, err %v", s, err))
	}
	var gbuf bytes.Buffer
	for sc.Scan() {
		gbuf.WriteString(sc.Text())
		gbuf.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, nil, 0, "", fail("graph", err)
	}
	g, err = graph.ReadEdgeList(&gbuf)
	if err != nil {
		return nil, nil, 0, "", fail("graph", err)
	}
	if g.Cap() != nStates {
		return nil, nil, 0, "", fmt.Errorf("wal: checkpoint %s: %d states but graph capacity %d", path, nStates, g.Cap())
	}
	return g, states, updates, meta, nil
}

// formatState renders a state value in its shortest exact form. Inf and
// NaN appear for unreached vertices in shortest-path workloads, so they
// must round-trip too.
func formatState(x float64) string {
	switch {
	case math.IsInf(x, 1):
		return "+Inf"
	case math.IsInf(x, -1):
		return "-Inf"
	case math.IsNaN(x):
		return "NaN"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func parseState(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
