package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph as "u v w" lines, one per edge, in
// canonical (source-major, then destination) order. Tombstoned vertices that
// lie below Cap() are preserved implicitly: a header line "# vertices N"
// records the ID space so a round trip restores identical IDs.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	lw := newLineWriter(w, g.Cap())
	for u := range g.out {
		if !g.alive[u] {
			lw.dead(VertexID(u))
			continue
		}
		for _, e := range g.out[u] {
			lw.edge(VertexID(u), e.To, e.W)
		}
	}
	return lw.flush()
}

// EdgeImage is a flat copy of what WriteEdgeList writes: the ID space, the
// tombstoned IDs and every out-edge in source order. Filling one copies
// the edges without formatting them, so a caller can take the image while
// it owns the graph and write the text later, on another goroutine, after
// the graph has moved on. Fill reuses the image's storage.
type EdgeImage struct {
	n     int
	dead  []VertexID
	edges []imageEdge
}

type imageEdge struct {
	u, v VertexID
	w    float64
}

// Fill replaces the image's content with g's.
func (im *EdgeImage) Fill(g *Graph) {
	im.n = g.Cap()
	im.dead = im.dead[:0]
	im.edges = slices.Grow(im.edges[:0], g.numE)
	for u := range g.out {
		if !g.alive[u] {
			im.dead = append(im.dead, VertexID(u))
			continue
		}
		for _, e := range g.out[u] {
			im.edges = append(im.edges, imageEdge{VertexID(u), e.To, e.W})
		}
	}
}

// WriteEdgeList writes the image in Graph.WriteEdgeList's format, byte for
// byte what the graph would have written when the image was filled.
func (im *EdgeImage) WriteEdgeList(w io.Writer) error {
	lw := newLineWriter(w, im.n)
	dead := im.dead
	for _, e := range im.edges {
		// A dead vertex has no out-edges, so its line goes before the
		// first edge of any higher source.
		for len(dead) > 0 && dead[0] < e.u {
			lw.dead(dead[0])
			dead = dead[1:]
		}
		lw.edge(e.u, e.v, e.w)
	}
	for _, d := range dead {
		lw.dead(d)
	}
	return lw.flush()
}

// lineWriter formats edge-list lines into one reused buffer and hands it to
// w in lineChunk pieces. Its lines are byte-identical to fmt's "%d %d %g\n"
// and "# dead %d\n" at a fraction of fmt's cost. The first write error is
// kept and returned by flush; later lines are dropped.
type lineWriter struct {
	w   io.Writer
	buf []byte
	err error
}

const lineChunk = 64 << 10

func newLineWriter(w io.Writer, n int) *lineWriter {
	lw := &lineWriter{w: w, buf: make([]byte, 0, lineChunk+64)}
	lw.buf = append(lw.buf, "# vertices "...)
	lw.buf = strconv.AppendInt(lw.buf, int64(n), 10)
	lw.buf = append(lw.buf, '\n')
	return lw
}

func (lw *lineWriter) edge(u, v VertexID, w float64) {
	b := strconv.AppendUint(lw.buf, uint64(u), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(v), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, w, 'g', -1, 64)
	lw.buf = append(b, '\n')
	lw.spill()
}

func (lw *lineWriter) dead(u VertexID) {
	lw.buf = append(lw.buf, "# dead "...)
	lw.buf = strconv.AppendUint(lw.buf, uint64(u), 10)
	lw.buf = append(lw.buf, '\n')
	lw.spill()
}

func (lw *lineWriter) spill() {
	if len(lw.buf) >= lineChunk {
		lw.write()
	}
}

func (lw *lineWriter) write() {
	if lw.err == nil && len(lw.buf) > 0 {
		_, lw.err = lw.w.Write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

func (lw *lineWriter) flush() error {
	lw.write()
	return lw.err
}

// ReadEdgeList parses the format produced by WriteEdgeList. It also accepts
// plain "u v" (weight defaults to 1) and "u v w" edge lists without a header,
// in which case the vertex count is 1 + the maximum ID seen.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *Graph
	type rawEdge struct {
		u, v VertexID
		w    float64
	}
	var pending []rawEdge
	var dead []VertexID
	maxID := VertexID(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			switch {
			case len(fields) == 3 && fields[1] == "vertices":
				n, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, fmt.Errorf("line %d: bad vertex count: %v", lineNo, err)
				}
				g = New(n)
			case len(fields) == 3 && fields[1] == "dead":
				id, err := strconv.ParseUint(fields[2], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad dead id: %v", lineNo, err)
				}
				dead = append(dead, VertexID(id))
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad source: %v", lineNo, err)
		}
		v64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad destination: %v", lineNo, err)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight: %v", lineNo, err)
			}
		}
		e := rawEdge{VertexID(u64), VertexID(v64), w}
		if e.u > maxID {
			maxID = e.u
		}
		if e.v > maxID {
			maxID = e.v
		}
		pending = append(pending, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		n := 0
		if len(pending) > 0 {
			n = int(maxID) + 1
		}
		g = New(n)
	}
	for _, e := range pending {
		if int(e.u) >= g.Cap() || int(e.v) >= g.Cap() {
			return nil, fmt.Errorf("edge (%d,%d) exceeds declared vertex count %d", e.u, e.v, g.Cap())
		}
		g.AddEdge(e.u, e.v, e.w)
	}
	for _, d := range dead {
		if int(d) >= g.Cap() {
			return nil, fmt.Errorf("dead vertex %d exceeds declared vertex count %d", d, g.Cap())
		}
		g.DeleteVertex(d)
	}
	return g, nil
}
