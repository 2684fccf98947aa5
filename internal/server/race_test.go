package server

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/stream"

	"encoding/json"
	"net/http/httptest"
)

// TestConcurrentReadersLiveWriter is the serving concurrency net, sized
// to run under -race in CI: many /query readers hammer the daemon over
// real HTTP while one writer streams /push batches. Every response must
// be internally consistent — all of its states (point reads and top-k
// alike) must come from the single published snapshot identified by its
// Seq, never a blend of two snapshots.
func TestConcurrentReadersLiveWriter(t *testing.T) {
	nUpdates, readers := 4000, 6
	if testing.Short() {
		nUpdates, readers = 1500, 4
	}

	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 21,
	})
	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: 2})

	// published records every snapshot the stream ever publishes, keyed
	// by Seq; snapshots are immutable so storing the pointer is safe. The
	// stream makes a snapshot readable before OnBatch records it, so a
	// reader can see a Seq that published does not hold yet: it waits for
	// the Seq's ready channel, which closes once published holds it.
	var published, ready sync.Map // uint64 -> *stream.Snapshot, chan struct{}
	readyCh := func(seq uint64) chan struct{} {
		ch, _ := ready.LoadOrStore(seq, make(chan struct{}))
		return ch.(chan struct{})
	}
	publish := func(seq uint64, snap *stream.Snapshot) {
		published.Store(seq, snap)
		close(readyCh(seq))
	}
	st := stream.New(g, sys, stream.Config{
		MaxBatch: 64, MaxDelay: -1,
		OnBatch: func(r stream.BatchResult) { publish(r.Seq, r.Snap) },
	})
	publish(0, st.Query())
	defer st.Close()

	srv := New(st, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seq := delta.NewGenerator(22).UnitSequence(g, nUpdates, true)

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := &http.Client{}
			probe := []graph.VertexID{0, 1, graph.VertexID(7 * (r + 1)), 599}
			url := ts.URL + "/query?topk=5&v=0,1," + itoa(probe[2]) + ",599"
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: %d %v %s", r, resp.StatusCode, err, raw)
					return
				}
				var qr apiQueryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					t.Errorf("reader %d: decode: %v (%s)", r, err, raw)
					return
				}
				if qr.Seq < lastSeq {
					t.Errorf("reader %d: snapshot seq went backwards (%d after %d)", r, qr.Seq, lastSeq)
					return
				}
				lastSeq = qr.Seq
				select {
				case <-readyCh(qr.Seq):
				case <-time.After(time.Second):
				}
				v, ok := published.Load(qr.Seq)
				if !ok {
					t.Errorf("reader %d: response claims unpublished snapshot seq %d", r, qr.Seq)
					return
				}
				snap := v.(*stream.Snapshot)
				for _, s := range qr.States {
					want, ok := snap.State(s.V)
					if !ok || !sameFloat(want, s.X) {
						t.Errorf("reader %d: state of vertex %d is %g, but snapshot %d holds %g (torn response)",
							r, s.V, s.X, qr.Seq, want)
						return
					}
				}
				for i, s := range qr.Top {
					want, ok := snap.State(s.V)
					if !ok || !sameFloat(want, s.X) {
						t.Errorf("reader %d: top-k entry %d (vertex %d = %g) not from snapshot %d (torn response)",
							r, i, s.V, s.X, qr.Seq)
						return
					}
				}
				reads.Add(1)
			}
		}(r)
	}

	// Writer: stream the whole sequence through /push in small batches.
	client := &http.Client{}
	const chunk = 100
	for i := 0; i < len(seq); i += chunk {
		end := i + chunk
		if end > len(seq) {
			end = len(seq)
		}
		var buf bytes.Buffer
		if err := delta.WriteUpdates(&buf, delta.Batch(seq[i:end])); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/push", "text/plain", &buf)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push chunk %d: %d", i/chunk, resp.StatusCode)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if reads.Load() == 0 {
		t.Fatal("readers made no successful observations")
	}
	if m := st.Metrics(); m.Applied != int64(len(seq)) {
		t.Fatalf("applied %d updates, want %d", m.Applied, len(seq))
	}
}

// sameFloat compares so Inf==Inf and NaN==NaN hold.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

func itoa(v graph.VertexID) string {
	b := [10]byte{}
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(b[i:])
}
