// Package server promotes the streaming pipeline to a network daemon: an
// HTTP/JSON API over a live stream.Stream, serving concurrent reads from
// the pipeline's lock-free immutable snapshots while updates keep
// flowing in.
//
// Endpoints:
//
//	POST /push     ingest an update batch — text wire format (see
//	               delta.ParseUpdate) or a JSON array of
//	               {"op","u","v","w"} objects — into the micro-batcher
//	GET  /query    read state from the current snapshot: ?v=1,2,3 for
//	               point/multi-vertex reads, ?topk=K&order=min|max for
//	               the best-K vertices, both served from ONE snapshot
//	GET  /metrics  rolling throughput/latency plus aggregated engine
//	               stats (activations, pool utilization, ...)
//	GET  /healthz  liveness + readiness
//
// Reads never touch engine locks: /query works entirely on the immutable
// Snapshot published after each micro-batch, so any number of concurrent
// readers coexist with the single stream worker. Pushes are validated
// atomically (ids against a cap, weights finite and non-negative) before
// the first update enters the queue, so a malformed batch is rejected
// wholesale with a 4xx instead of half-applying.
//
// Shutdown ordering: Shutdown first marks the server draining (new
// pushes fail with 503), then closes the stream — which drains the
// queue, flushes the pending micro-batch and publishes the final
// snapshot — and only then stops the HTTP listener, so in-flight queries
// keep being answered from snapshots until the very end.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/stream"
	"layph/internal/wal"
)

// Config tunes the daemon. The zero value gives sane defaults.
type Config struct {
	// Addr is the TCP listen address for Start (default "127.0.0.1:8090";
	// use ":0" for an ephemeral port, then read Addr()).
	Addr string
	// MaxVertexID rejects pushed updates referencing vertex ids at or
	// above it (0 = current state-vector length + 2^20). Without a cap a
	// single hostile "av 4294967295" would grow every state vector to
	// that id and OOM the server.
	MaxVertexID graph.VertexID
	// MaxBodyBytes bounds a /push request body (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxQueryVertices bounds the ids of one multi-vertex /query
	// (0 = 1024).
	MaxQueryVertices int
	// MaxTopK bounds /query?topk (0 = 100).
	MaxTopK int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8090"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxQueryVertices <= 0 {
		c.MaxQueryVertices = 1024
	}
	if c.MaxTopK <= 0 {
		c.MaxTopK = 100
	}
	return c
}

// Server is the HTTP daemon over one Stream. Construct with New, mount
// Handler on any mux or call Start/Shutdown for a managed listener.
type Server struct {
	cfg      Config
	st       *stream.Stream
	wal      atomic.Pointer[wal.Log]
	recovery atomic.Pointer[wal.RecoveryInfo]
	draining atomic.Bool

	mux       *http.ServeMux
	hs        *http.Server
	ln        net.Listener
	serveDone chan struct{}
	serveErr  error
}

// New returns a daemon over st, which must already be running.
func New(st *stream.Stream, cfg Config) *Server {
	if st == nil {
		panic("server: nil stream")
	}
	s := &Server{cfg: cfg.withDefaults(), st: st, serveDone: make(chan struct{})}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/push", s.handlePush)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// AttachDurability exposes the stream's WAL and (optionally) the crash
// recovery that produced it through /metrics. info may be nil (fresh
// directory).
func (s *Server) AttachDurability(l *wal.Log, info *wal.RecoveryInfo) {
	if l != nil {
		s.wal.Store(l)
	}
	if info != nil {
		s.recovery.Store(info)
	}
}

// Handler returns the API handler, for mounting without Start (tests,
// embedding under an existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds cfg.Addr and serves in a background goroutine. Use Addr
// for the bound address and Shutdown to stop.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	go func() {
		defer close(s.serveDone)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
		}
	}()
	return nil
}

// Addr returns the bound listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the daemon: new pushes fail with 503, the
// stream is closed (draining the queue and publishing the final
// snapshot), then the listener stops, bounded by ctx. Queries are served
// until the listener goes down. Safe without Start (handler-only use)
// and idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	first := s.st.Close()
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		<-s.serveDone
		if s.serveErr != nil && first == nil {
			first = s.serveErr
		}
	}
	return first
}

// --- /push -------------------------------------------------------------

// pushResponse reports the fate of a pushed batch.
type pushResponse struct {
	// Accepted updates entered the micro-batcher (they will be applied in
	// order); Dropped were shed by the queue under the Drop backpressure
	// policy.
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// jsonUpdate is the JSON wire form of one update: op "a"/"d"/"av"/"dv"
// as in the text format; w may be omitted for "a" (defaults to 1).
type jsonUpdate struct {
	Op string         `json:"op"`
	U  graph.VertexID `json:"u"`
	V  graph.VertexID `json:"v"`
	W  *float64       `json:"w"`
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "push requires POST")
		return
	}
	if s.draining.Load() || s.st.Closed() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	idCap := s.cfg.MaxVertexID
	if idCap == 0 {
		idCap = capFromSnapshot(s.st)
	}
	var (
		batch delta.Batch
		err   error
	)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		batch, err = parseJSONUpdates(r.Body, idCap)
	} else {
		batch, err = parseTextUpdates(r.Body, idCap)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) || errors.Is(err, bufio.ErrTooLong) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	var resp pushResponse
	for _, u := range batch {
		switch err := s.st.Push(u); {
		case err == nil:
			resp.Accepted++
		case errors.Is(err, stream.ErrQueueFull):
			resp.Dropped++
		case errors.Is(err, stream.ErrClosed):
			// Shutdown raced the batch. This partial accept is a pinned
			// API contract, not an accident: updates enter the stream one
			// by one, so a concurrent Close can land between any two of
			// them, and un-pushing the prefix is impossible (earlier
			// updates may already be applied and published). The response
			// therefore reports exactly how many updates were accepted —
			// all of which are in the final snapshot (and, with a WAL,
			// durable), while the rest were refused wholesale. Clients
			// retrying a mid-batch 503 must resubmit only the unaccepted
			// suffix. TestPushShutdownRaceAccounting holds this invariant:
			// accepted-count == applied-count == WAL-logged-count.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "stream closed mid-batch", "accepted": resp.Accepted,
			})
			return
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// capFromSnapshot derives the default push id cap from the current
// state-vector length, leaving generous headroom for organic growth.
func capFromSnapshot(st *stream.Stream) graph.VertexID {
	n := st.Query().Len()
	cap64 := uint64(n) + 1<<20
	if cap64 > math.MaxUint32 {
		return math.MaxUint32
	}
	return graph.VertexID(cap64)
}

func checkIDs(u delta.Update, idCap graph.VertexID) error {
	isEdge := u.Kind == delta.AddEdge || u.Kind == delta.DelEdge
	if u.U >= idCap || (isEdge && u.V >= idCap) {
		return fmt.Errorf("server: vertex id beyond cap %d", idCap)
	}
	return nil
}

// parseTextUpdates parses a text wire-format body strictly: unlike the
// replay CLI, an HTTP push with any malformed line is rejected whole.
func parseTextUpdates(r io.Reader, idCap graph.VertexID) (delta.Batch, error) {
	var b delta.Batch
	err := delta.ForEachUpdate(r, func(lineno int, u delta.Update, perr error) error {
		if perr != nil {
			return fmt.Errorf("line %d: %w", lineno, perr)
		}
		if err := checkIDs(u, idCap); err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
		b = append(b, u)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

func parseJSONUpdates(r io.Reader, idCap graph.VertexID) (delta.Batch, error) {
	dec := json.NewDecoder(r)
	var raw []jsonUpdate
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("server: bad JSON update array: %w", err)
	}
	if dec.More() {
		return nil, errors.New("server: trailing data after JSON update array")
	}
	b := make(delta.Batch, 0, len(raw))
	for i, ju := range raw {
		var u delta.Update
		switch ju.Op {
		case "a":
			w := 1.0
			if ju.W != nil {
				w = *ju.W
			}
			if err := delta.CheckWeight(w); err != nil {
				return nil, fmt.Errorf("update %d: %w", i, err)
			}
			u = delta.Update{Kind: delta.AddEdge, U: ju.U, V: ju.V, W: w}
		case "d":
			u = delta.Update{Kind: delta.DelEdge, U: ju.U, V: ju.V}
		case "av":
			u = delta.Update{Kind: delta.AddVertex, U: ju.U}
		case "dv":
			u = delta.Update{Kind: delta.DelVertex, U: ju.U}
		default:
			return nil, fmt.Errorf("update %d: unknown op %q (want a|d|av|dv)", i, ju.Op)
		}
		if err := checkIDs(u, idCap); err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		b = append(b, u)
	}
	return b, nil
}

// --- /query ------------------------------------------------------------

// queryResponse is one consistent read: every state in it comes from the
// single snapshot identified by Seq.
type queryResponse struct {
	Seq     uint64               `json:"seq"`
	Updates uint64               `json:"updates"`
	At      time.Time            `json:"at"`
	States  []stream.VertexState `json:"states,omitempty"`
	Top     []stream.VertexState `json:"top,omitempty"`
	Order   string               `json:"order,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "query requires GET")
		return
	}
	q := r.URL.Query()
	vParam, topkParam := q.Get("v"), q.Get("topk")
	if vParam == "" && topkParam == "" {
		httpError(w, http.StatusBadRequest, "need ?v=<id>[,<id>...] and/or ?topk=<k>")
		return
	}

	snap := s.st.Query() // one snapshot serves the whole request
	resp := queryResponse{Seq: snap.Seq, Updates: snap.Updates, At: snap.At}

	if vParam != "" {
		ids := strings.Split(vParam, ",")
		if len(ids) > s.cfg.MaxQueryVertices {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("too many vertices in one query: %d > %d", len(ids), s.cfg.MaxQueryVertices))
			return
		}
		resp.States = make([]stream.VertexState, 0, len(ids))
		for _, idStr := range ids {
			n, err := strconv.ParseUint(strings.TrimSpace(idStr), 10, 32)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad vertex id %q", idStr))
				return
			}
			v := graph.VertexID(n)
			x, ok := snap.State(v)
			if !ok {
				httpError(w, http.StatusNotFound,
					fmt.Sprintf("vertex %d beyond state vector (len %d)", v, snap.Len()))
				return
			}
			resp.States = append(resp.States, stream.VertexState{V: v, X: x})
		}
	}
	if topkParam != "" {
		k, err := strconv.Atoi(topkParam)
		if err != nil || k < 1 || k > s.cfg.MaxTopK {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("topk must be an integer in [1,%d]", s.cfg.MaxTopK))
			return
		}
		order := q.Get("order")
		if order == "" {
			order = "min"
		}
		if order != "min" && order != "max" {
			httpError(w, http.StatusBadRequest, "order must be min or max")
			return
		}
		resp.Top = snap.TopK(k, order == "max")
		resp.Order = order
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /metrics and /healthz ---------------------------------------------

// engineMetrics is the JSON shape of the aggregated inc.Stats.
type engineMetrics struct {
	Activations       int64   `json:"activations"`
	Rounds            int     `json:"rounds"`
	Resets            int     `json:"resets"`
	UpdateSeconds     float64 `json:"update_seconds"`
	SubgraphsParallel int64   `json:"subgraphs_parallel"`
	PoolUtilization   float64 `json:"pool_utilization"`
	ReplayedBatches   int64   `json:"replayed_batches,omitempty"`
}

// walMetrics is the /metrics wal block: the log's own counters plus the
// stream's count of batches it could not log.
type walMetrics struct {
	wal.Stats
	LogFailures int64 `json:"log_failures"`
}

// metricsResponse summarizes daemon and stream health.
type metricsResponse struct {
	Ready           bool          `json:"ready"`
	Draining        bool          `json:"draining"`
	Seq             uint64        `json:"seq"`
	Updates         uint64        `json:"updates"`
	Accepted        int64         `json:"accepted"`
	Dropped         int64         `json:"dropped"`
	Applied         int64         `json:"applied"`
	Batches         int64         `json:"batches"`
	ThroughputUPS   float64       `json:"throughput_ups"`
	MeanBatchMillis float64       `json:"mean_batch_ms"`
	Engine          engineMetrics `json:"engine"`
	// WAL and Recovery appear only on a durable stream (see
	// Server.AttachDurability).
	WAL      *walMetrics       `json:"wal,omitempty"`
	Recovery *wal.RecoveryInfo `json:"recovery,omitempty"`
	// Relayer appears only when the stream runs the re-layering drift
	// controller (StreamConfig.Relayer).
	Relayer *stream.RelayerMetrics `json:"relayer,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "metrics requires GET")
		return
	}
	m := s.st.Metrics()
	snap := s.st.Query()
	resp := metricsResponse{
		Ready:           !s.st.Closed(),
		Draining:        s.draining.Load(),
		Seq:             snap.Seq,
		Updates:         snap.Updates,
		Accepted:        m.Accepted,
		Dropped:         m.Dropped,
		Applied:         m.Applied,
		Batches:         m.Batches,
		ThroughputUPS:   m.Throughput,
		MeanBatchMillis: float64(m.MeanBatchLatency) / float64(time.Millisecond),
		Engine: engineMetrics{
			Activations:       m.Engine.Activations,
			Rounds:            m.Engine.Rounds,
			Resets:            m.Engine.Resets,
			UpdateSeconds:     m.Engine.Duration.Seconds(),
			SubgraphsParallel: m.Engine.SubgraphsParallel,
			PoolUtilization:   m.Engine.PoolUtilization,
			ReplayedBatches:   m.Engine.ReplayedBatches,
		},
		Recovery: s.recovery.Load(),
	}
	if m.Relayer.Enabled {
		resp.Relayer = &m.Relayer
	}
	if l := s.wal.Load(); l != nil {
		resp.WAL = &walMetrics{Stats: l.Stats(), LogFailures: m.LogFailures}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "healthz requires GET")
		return
	}
	resp := map[string]any{
		"ok":       true,
		"ready":    !s.st.Closed(),
		"draining": s.draining.Load(),
		"seq":      s.st.Query().Seq,
	}
	// The process is alive (status stays 200), but a stream whose
	// durability hook failed is not healthy: say so.
	if err := s.st.DurabilityErr(); err != nil {
		resp["ok"] = false
		resp["durability_error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- shared helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
