package stream

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/ingress"
)

func testGraph(seed int64) *graph.Graph {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: seed,
	})
	return g
}

// updateSeq pre-generates a valid sequence of n unit updates (deletions
// target edges that exist when reached).
func updateSeq(g *graph.Graph, n int, seed int64) []delta.Update {
	return delta.NewGenerator(seed).UnitSequence(g, n, true)
}

func hashStates(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// stubSys is an inc.System whose Update blocks until release is closed,
// used to exercise backpressure without a real engine.
type stubSys struct {
	release chan struct{}
	x       []float64
}

func (s *stubSys) Name() string      { return "stub" }
func (s *stubSys) States() []float64 { return s.x }
func (s *stubSys) Update(*delta.Applied) inc.Stats {
	<-s.release
	return inc.Stats{Rounds: 1}
}

func TestCountTrigger(t *testing.T) {
	g := testGraph(1)
	sys := ingress.New(g, algo.NewSSSP(0))
	results := make(chan BatchResult, 16)
	s := New(g, sys, Config{
		MaxBatch: 10, MaxDelay: -1, // time trigger off
		OnBatch: func(r BatchResult) { results <- r },
	})
	seq := updateSeq(g, 25, 2)
	for _, u := range seq {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.Size != 10 {
				t.Fatalf("batch %d: size %d, want 10 (count trigger)", i, r.Size)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("count-triggered batch never flushed")
		}
	}
	select {
	case r := <-results:
		t.Fatalf("unexpected extra batch of size %d before drain", r.Size)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	r := <-results
	if r.Size != 5 {
		t.Fatalf("drained remainder: size %d, want 5", r.Size)
	}
	if snap := s.Query(); snap.Seq != 3 || snap.Updates != 25 {
		t.Fatalf("snapshot seq=%d updates=%d, want 3/25", snap.Seq, snap.Updates)
	}
	s.Close()
}

func TestTimeTrigger(t *testing.T) {
	g := testGraph(3)
	sys := ingress.New(g, algo.NewSSSP(0))
	results := make(chan BatchResult, 4)
	s := New(g, sys, Config{
		MaxBatch: 1 << 20, MaxDelay: 20 * time.Millisecond,
		OnBatch: func(r BatchResult) { results <- r },
	})
	defer s.Close()
	for _, u := range updateSeq(g, 3, 4) {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-results:
		if r.Size != 3 {
			t.Fatalf("time-triggered batch size %d, want 3", r.Size)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("time trigger never fired")
	}
}

func TestDrainOnClose(t *testing.T) {
	g := testGraph(5)
	sys := ingress.New(g, algo.NewSSSP(0))
	s := New(g, sys, Config{MaxBatch: 1 << 20, MaxDelay: -1})
	seq := updateSeq(g, 100, 6)
	for _, u := range seq {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := s.Query()
	if snap.Updates != 100 {
		t.Fatalf("close flushed %d updates, want all 100", snap.Updates)
	}
	m := s.Metrics()
	if m.Applied != 100 || m.Accepted != 100 {
		t.Fatalf("metrics applied=%d accepted=%d, want 100/100", m.Applied, m.Accepted)
	}
	if err := s.Push(delta.Update{Kind: delta.AddEdge, U: 0, V: 1, W: 1}); err != ErrClosed {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	if err := s.Drain(); err != ErrClosed {
		t.Fatalf("drain after close: %v, want ErrClosed", err)
	}
	// Second close is a no-op.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotConsistencyUnderConcurrentPushQuery(t *testing.T) {
	g := testGraph(7)
	sys := ingress.New(g, algo.NewSSSP(0))
	published := sync.Map{} // seq -> states hash
	s := New(g, sys, Config{
		MaxBatch: 20, MaxDelay: time.Millisecond,
		OnBatch: func(r BatchResult) { published.Store(r.Seq, hashStates(r.Snap.States)) },
	})
	published.Store(uint64(0), hashStates(s.Query().States))

	type obs struct {
		seq  uint64
		hash uint64
	}
	const readers = 4
	observed := make([][]obs, readers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Query()
				if snap.Seq < last {
					t.Errorf("reader %d: snapshot seq went backwards (%d after %d)", i, snap.Seq, last)
					return
				}
				last = snap.Seq
				observed[i] = append(observed[i], obs{snap.Seq, hashStates(snap.States)})
			}
		}(i)
	}

	for _, u := range updateSeq(g, 2000, 8) {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	checked := 0
	for i, seen := range observed {
		for _, o := range seen {
			want, ok := published.Load(o.seq)
			if !ok {
				t.Fatalf("reader %d observed unpublished snapshot seq %d", i, o.seq)
			}
			if want.(uint64) != o.hash {
				t.Fatalf("reader %d: snapshot %d content differs from published state (torn read)", i, o.seq)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("readers made no observations")
	}
}

func TestStreamedEqualsOneShot(t *testing.T) {
	g := testGraph(9)
	pristine := g.Clone()
	seq := updateSeq(g, 1500, 10)

	sys := ingress.New(g, algo.NewSSSP(0))
	s := New(g, sys, Config{MaxBatch: 97, MaxDelay: -1}) // odd size: uneven boundaries
	for _, u := range seq {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	streamed := s.Query().States

	// One-shot: same sequence as a single batch through a fresh engine.
	oneShot := ingress.New(pristine, algo.NewSSSP(0))
	applied := delta.Apply(pristine, delta.Batch(seq))
	oneShot.Update(applied)

	n := g.Cap()
	if !algo.StatesClose(streamed[:n], oneShot.States()[:n], 1e-9) {
		t.Fatal("streamed states differ from one-shot ApplyBatch+Update")
	}
	// And both must match a from-scratch restart on the final graph.
	restart := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{}).X
	if !algo.StatesClose(streamed[:n], restart[:n], 1e-9) {
		t.Fatal("streamed states differ from restart baseline")
	}
}

func TestBackpressureDrop(t *testing.T) {
	g := graph.New(1000)
	stub := &stubSys{release: make(chan struct{}), x: make([]float64, 1000)}
	s := New(g, stub, Config{MaxBatch: 1, MaxDelay: -1, QueueCap: 2, Policy: Drop})
	var dropped int
	for i := 0; i < 10; i++ {
		u := delta.Update{Kind: delta.AddEdge, U: graph.VertexID(i), V: graph.VertexID(i + 1), W: 1}
		if err := s.Push(u); err == ErrQueueFull {
			dropped++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if dropped == 0 {
		t.Fatal("no pushes dropped despite blocked worker and QueueCap=2")
	}
	close(stub.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Dropped != int64(dropped) {
		t.Fatalf("dropped counter %d, want %d", m.Dropped, dropped)
	}
	if m.Applied != m.Accepted {
		t.Fatalf("applied %d != accepted %d after close", m.Applied, m.Accepted)
	}
}

func TestBackpressureBlock(t *testing.T) {
	g := graph.New(1000)
	stub := &stubSys{release: make(chan struct{}), x: make([]float64, 1000)}
	s := New(g, stub, Config{MaxBatch: 1, MaxDelay: -1, QueueCap: 1, Policy: Block})
	// First pushes: one taken by the worker (now blocked in Update), one
	// parked in the queue.
	for i := 0; i < 2; i++ {
		u := delta.Update{Kind: delta.AddEdge, U: graph.VertexID(i), V: graph.VertexID(i + 1), W: 1}
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- s.Push(delta.Update{Kind: delta.AddEdge, U: 5, V: 6, W: 1})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("push returned (%v) while the queue was full; Block must wait", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(stub.release)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push never completed after the worker resumed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Applied != 3 {
		t.Fatalf("applied %d updates, want 3", m.Applied)
	}
}

func TestMetricsRollup(t *testing.T) {
	g := testGraph(11)
	sys := ingress.New(g, algo.NewSSSP(0))
	s := New(g, sys, Config{MaxBatch: 50, MaxDelay: -1})
	for _, u := range updateSeq(g, 500, 12) {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Batches != 10 {
		t.Fatalf("batches %d, want 10", m.Batches)
	}
	if m.Throughput <= 0 {
		t.Fatalf("throughput %v, want > 0", m.Throughput)
	}
	if m.MeanBatchLatency <= 0 {
		t.Fatalf("latency %v, want > 0", m.MeanBatchLatency)
	}
	if m.Engine.Duration <= 0 {
		t.Fatal("aggregated engine stats empty")
	}
}

// Graceful-shutdown ordering: an update whose Push returned nil is
// acknowledged and must be flushed into the final snapshot even when
// Close races with the push — lost acks would let an HTTP client see a
// 200 for an update the daemon then silently dropped. Many pushers hammer
// a tiny queue while Close lands mid-stream; afterwards the accepted,
// applied, and snapshot counters must all agree exactly.
func TestCloseDuringInFlightPushesKeepsAcknowledged(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		g := testGraph(int64(20 + round))
		sys := ingress.New(g, algo.NewSSSP(0))
		s := New(g, sys, Config{MaxBatch: 16, MaxDelay: -1, QueueCap: 8})
		seq := updateSeq(g, 600, int64(round))

		const pushers = 6
		var acked atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < len(seq); i += pushers {
					switch err := s.Push(seq[i]); err {
					case nil:
						acked.Add(1)
					case ErrClosed:
						return
					default:
						t.Errorf("push: %v", err)
						return
					}
				}
			}(p)
		}
		// Let some pushes land, then close mid-flight.
		for s.Metrics().Accepted < 50 {
			time.Sleep(50 * time.Microsecond)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		m := s.Metrics()
		snap := s.Query()
		if m.Accepted != acked.Load() {
			t.Fatalf("round %d: accepted counter %d != acknowledged pushes %d", round, m.Accepted, acked.Load())
		}
		if m.Applied != acked.Load() {
			t.Fatalf("round %d: applied %d != acknowledged %d (acked update dropped on Close)", round, m.Applied, acked.Load())
		}
		if snap.Updates != uint64(acked.Load()) {
			t.Fatalf("round %d: final snapshot covers %d updates, want %d", round, snap.Updates, acked.Load())
		}
	}
}

// Drain racing Close must never report success for updates that were not
// flushed: whichever of the two wins, a nil Drain implies every prior
// acknowledged push is in the final snapshot.
func TestDrainRacingClose(t *testing.T) {
	g := testGraph(31)
	sys := ingress.New(g, algo.NewSSSP(0))
	s := New(g, sys, Config{MaxBatch: 32, MaxDelay: -1, QueueCap: 16})
	seq := updateSeq(g, 400, 32)
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, u := range seq {
			if err := s.Push(u); err != nil {
				return
			}
			acked.Add(1)
		}
	}()
	drained := make(chan error, 1)
	go func() {
		defer wg.Done()
		time.Sleep(200 * time.Microsecond)
		drained <- s.Drain()
	}()
	time.Sleep(400 * time.Microsecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-drained; err != nil && err != ErrClosed {
		t.Fatalf("drain: %v", err)
	}
	if m := s.Metrics(); m.Applied != acked.Load() {
		t.Fatalf("applied %d != acknowledged %d", m.Applied, acked.Load())
	}
}

func TestSnapshotReadHelpers(t *testing.T) {
	snap := &Snapshot{States: []float64{3, math.Inf(1), 0, 7, 3, math.NaN(), 1}}
	if x, ok := snap.State(3); !ok || x != 7 {
		t.Fatalf("State(3) = %v,%v", x, ok)
	}
	if _, ok := snap.State(graph.VertexID(len(snap.States))); ok {
		t.Fatal("State beyond vector must report !ok")
	}
	if snap.Len() != 7 {
		t.Fatalf("Len = %d", snap.Len())
	}
	wantMin := []VertexState{{V: 2, X: 0}, {V: 6, X: 1}, {V: 0, X: 3}, {V: 4, X: 3}}
	if got := snap.TopK(4, false); !equalVS(got, wantMin) {
		t.Fatalf("TopK(4,min) = %v, want %v", got, wantMin)
	}
	wantMax := []VertexState{{V: 3, X: 7}, {V: 0, X: 3}, {V: 4, X: 3}}
	if got := snap.TopK(3, true); !equalVS(got, wantMax) {
		t.Fatalf("TopK(3,max) = %v, want %v", got, wantMax)
	}
	// k beyond the finite population returns only finite entries.
	if got := snap.TopK(100, false); len(got) != 5 {
		t.Fatalf("TopK(100) kept %d entries, want 5 finite", len(got))
	}
	if got := snap.TopK(0, false); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
}

func equalVS(a, b []VertexState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The parallel-execution counters of a pool-backed engine must survive
// the stream's per-batch Stats aggregation: SubgraphsParallel sums and
// PoolUtilization stays a ratio (duration-weighted mean), so rolling
// `layph serve` reports can surface both.
func TestMetricsCarryParallelCounters(t *testing.T) {
	g := testGraph(13)
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 4})
	s := New(g, sys, Config{MaxBatch: 100, MaxDelay: -1})
	for _, u := range updateSeq(g, 600, 14) {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Engine.SubgraphsParallel == 0 {
		t.Fatal("SubgraphsParallel not aggregated across micro-batches")
	}
	if m.Engine.PoolUtilization <= 0 || m.Engine.PoolUtilization > 1 {
		t.Fatalf("PoolUtilization not a ratio after aggregation: %v", m.Engine.PoolUtilization)
	}
}

// --- durability hook ----------------------------------------------------

// recordingDurable captures every hook invocation in order, optionally
// failing the first failLog LogBatch calls.
type recordingDurable struct {
	mu      sync.Mutex
	events  []string // "log <seq>" / "after <seq>"
	logged  []uint64
	updates int
	after   []uint64
	failLog int
	errLog  error
}

func (d *recordingDurable) LogBatch(seq uint64, b delta.Batch) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failLog > 0 {
		d.failLog--
		return d.errLog
	}
	d.events = append(d.events, "log")
	d.logged = append(d.logged, seq)
	d.updates += len(b)
	return nil
}

func (d *recordingDurable) AfterBatch(seq, updates uint64, g *graph.Graph, states []float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events = append(d.events, "after")
	d.after = append(d.after, seq)
	return nil
}

// Every published snapshot must be preceded by a LogBatch of its batch:
// the logged seqs are contiguous from StartSeq+1, each AfterBatch follows
// its LogBatch, and the logged update total equals the applied total.
func TestDurableLogsBeforePublish(t *testing.T) {
	g := testGraph(11)
	seq := updateSeq(g, 2000, 12)
	sys := ingress.New(g, algo.NewSSSP(0))
	dur := &recordingDurable{}
	var published []uint64
	s := New(g, sys, Config{
		MaxBatch: 128, MaxDelay: -1, Durability: dur,
		OnBatch: func(br BatchResult) {
			// OnBatch runs on the worker after publish: the batch's seq
			// must already be in the durable log.
			dur.mu.Lock()
			n := len(dur.logged)
			last := uint64(0)
			if n > 0 {
				last = dur.logged[n-1]
			}
			dur.mu.Unlock()
			if last < br.Seq {
				t.Errorf("snapshot %d published before its batch was logged (last logged %d)", br.Seq, last)
			}
			published = append(published, br.Seq)
		},
	})
	for _, u := range seq {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s.Close()

	dur.mu.Lock()
	defer dur.mu.Unlock()
	if len(dur.logged) == 0 {
		t.Fatal("nothing logged")
	}
	for i, sq := range dur.logged {
		if sq != uint64(i+1) {
			t.Fatalf("logged seq[%d] = %d, want %d (contiguous from 1)", i, sq, i+1)
		}
	}
	if dur.updates != len(seq) {
		t.Fatalf("logged %d updates, want %d", dur.updates, len(seq))
	}
	if len(dur.after) != len(dur.logged) {
		t.Fatalf("%d AfterBatch calls vs %d LogBatch calls", len(dur.after), len(dur.logged))
	}
	for i := 0; i+1 < len(dur.events); i += 2 {
		if dur.events[i] != "log" || dur.events[i+1] != "after" {
			t.Fatalf("hook order %v at %d: want strict log/after alternation", dur.events[i:i+2], i)
		}
	}
	if m := s.Metrics(); m.LogFailures != 0 {
		t.Fatalf("LogFailures = %d on a healthy log", m.LogFailures)
	}
}

// A failing write-ahead log must stall publication (no snapshot advances
// past durable state) and surface as a sticky error, and a recovered log
// must then flush the accumulated batch.
func TestDurableLogFailureStallsThenRecovers(t *testing.T) {
	g := testGraph(13)
	seq := updateSeq(g, 300, 14)
	sys := ingress.New(g, algo.NewSSSP(0))
	dur := &recordingDurable{failLog: 2, errLog: errFull}
	s := New(g, sys, Config{MaxBatch: 64, MaxDelay: 5 * time.Millisecond, Durability: dur})
	for _, u := range seq[:100] {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	// The first two flush attempts fail; the time trigger retries until
	// the "disk" recovers, then everything pushed lands in one batch.
	deadline := time.Now().Add(5 * time.Second)
	for s.Query().Seq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never advanced after log recovery")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.DurabilityErr(); err == nil {
		t.Fatal("sticky durability error not recorded")
	}
	if m := s.Metrics(); m.LogFailures < 2 {
		t.Fatalf("LogFailures = %d, want >= 2", m.LogFailures)
	}
	// Drain reports the degraded state even though the batch now flushed.
	if err := s.Drain(); err == nil {
		t.Fatal("Drain returned nil on a degraded stream")
	}
	dur.mu.Lock()
	logged := dur.updates
	dur.mu.Unlock()
	if logged != 100 {
		t.Fatalf("logged %d updates after recovery, want 100", logged)
	}
	snap := s.Query()
	if snap.Updates != 100 {
		t.Fatalf("snapshot updates = %d, want 100", snap.Updates)
	}
	s.Close()
}

var errFull = errFullT{}

type errFullT struct{}

func (errFullT) Error() string { return "wal: disk full (injected)" }

// StartSeq/StartUpdates/StartStats resume a recovered stream's counters
// instead of restarting from zero.
func TestStartCountersResume(t *testing.T) {
	g := testGraph(15)
	seq := updateSeq(g, 200, 16)
	sys := ingress.New(g, algo.NewSSSP(0))
	start := inc.Stats{Activations: 77, Rounds: 3, ReplayedBatches: 5}
	s := New(g, sys, Config{
		MaxBatch: 100, MaxDelay: -1,
		StartSeq: 42, StartUpdates: 9000, StartStats: start,
	})
	defer s.Close()
	if snap := s.Query(); snap.Seq != 42 || snap.Updates != 9000 {
		t.Fatalf("initial snapshot seq=%d updates=%d, want 42/9000", snap.Seq, snap.Updates)
	}
	for _, u := range seq[:100] {
		if err := s.Push(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := s.Query()
	if snap.Seq != 43 || snap.Updates != 9100 {
		t.Fatalf("post-batch snapshot seq=%d updates=%d, want 43/9100", snap.Seq, snap.Updates)
	}
	m := s.Metrics()
	if m.Engine.ReplayedBatches != 5 || m.Engine.Activations < 77 {
		t.Fatalf("engine aggregate %+v did not fold in StartStats", m.Engine)
	}
}
