package main

// layph serve: continuous ingestion mode. Updates are read from a text
// stream (stdin or a file; see delta.ParseUpdate for the format) or
// synthesized with -rand, pushed into the micro-batching pipeline of
// internal/stream, and applied incrementally by the chosen engine while a
// reporter goroutine prints rolling state and throughput.
//
// With -listen ADDR the process becomes a daemon: an HTTP API
// (internal/server) accepts POST /push batches and serves GET /query
// reads from live snapshots, alongside any -input/-rand feed, until
// SIGINT/SIGTERM triggers a graceful drain and shutdown.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"layph"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/server"
	"layph/internal/shard"
	"layph/internal/stream"
	"layph/internal/wal"
)

func serveMain(args []string) {
	fs := flag.NewFlagSet("layph serve", flag.ExitOnError)
	ef := registerEngineFlags(fs)
	fs.BoolVar(&ef.relayer, "relayer", false, "re-layering drift controller (-system layph or layph-norepl, unsharded): when layering quality decays, re-detect communities in the background and land them on the live engine, rebuilding only the changed subgraphs; without it the layering stays frozen")
	var (
		input     = fs.String("input", "", "update stream file ('-' = stdin; empty requires -rand or -listen)")
		randN     = fs.Int("rand", 0, "synthesize this many random updates instead of reading -input")
		seed      = fs.Int64("seed", 42, "seed for -rand")
		maxBatch  = fs.Int("batch", 1024, "micro-batch count trigger")
		maxDelay  = fs.Duration("window", 50*time.Millisecond, "micro-batch time trigger")
		queueCap  = fs.Int("queue", 0, "bounded queue capacity (0 = 4*batch)")
		policy    = fs.String("policy", "block", "backpressure on full queue: block | drop")
		report    = fs.Duration("report", time.Second, "progress report interval (0 disables reports)")
		top       = fs.Int("top", 3, "sample this many vertex states in reports")
		maxVertex = fs.Uint("maxvertex", 0, "reject updates referencing vertex ids >= this (0 = |V| + 1048576)")
		listen    = fs.String("listen", "", "serve the HTTP API on this address (e.g. 127.0.0.1:8090) until SIGINT")

		relayerTouched = fs.Float64("relayer-touched", 0, "touched-subgraph-ratio EWMA trigger threshold (0 = 0.35)")
		relayerGrowth  = fs.Float64("relayer-skeleton-growth", 0, "skeleton-fraction growth factor over the post-build baseline that triggers (0 = 1.5)")
		relayerMinB    = fs.Int("relayer-min-batches", 0, "cooldown: applied batches after a (re)build before triggers re-arm (0 = 16)")
		relayerSwapLag = fs.Int("relayer-swap-lag", 0, "applied batches between trigger and the deterministic landing boundary (0 = 8)")

		walDir        = fs.String("wal", "", "durability directory: write-ahead log + checkpoints; a restart on the same directory recovers and resumes")
		ckptEvery     = fs.Int("checkpoint-every", 64, "cut a snapshot checkpoint after this many micro-batches (with -wal)")
		fsync         = fs.String("fsync", "batch", "WAL fsync policy: batch | interval | off (with -wal)")
		fsyncInterval = fs.Duration("fsync-interval", 100*time.Millisecond, "fsync period for -fsync interval")
	)
	fs.Parse(args)
	ef.mustValidate()

	if *listen == "" && *input == "" && *randN <= 0 {
		fmt.Fprintln(os.Stderr, "serve: need -input FILE, -input -, -rand N, or -listen ADDR")
		os.Exit(2)
	}
	var pol stream.Policy
	switch *policy {
	case "block":
		pol = stream.Block
	case "drop":
		pol = stream.Drop
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown -policy %q\n", *policy)
		os.Exit(2)
	}

	scfg := stream.Config{
		MaxBatch: *maxBatch, MaxDelay: *maxDelay,
		QueueCap: *queueCap, Policy: pol,
	}
	if ef.relayer {
		scfg.Relayer = &stream.RelayerConfig{
			TouchedRatioThreshold: *relayerTouched,
			SkeletonGrowthFactor:  *relayerGrowth,
			MinBatches:            *relayerMinB,
			SwapLagBatches:        *relayerSwapLag,
		}
	}

	buildStart := time.Now()
	var (
		s   *stream.Stream
		g   *graph.Graph
		dur *layph.DurableStream
	)
	if *walDir != "" {
		syncPol, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(2)
		}
		// The workload tag pins the directory to this algo/engine/source
		// combination; resuming it under a different one is refused.
		meta := fmt.Sprintf("algo=%s system=%s source=%d", ef.algoName, ef.system, ef.source)
		if ef.shards > 1 {
			meta += fmt.Sprintf(" shards=%d", ef.shards)
		}
		if wal.HasDurableState(*walDir) {
			fmt.Printf("wal: recovering from %s (-graph/-preset ignored)\n", *walDir)
		} else {
			g = ef.loadGraph()
		}
		dur, err = layph.OpenStream(g, func(g *graph.Graph) inc.System {
			sys, _ := ef.buildOn(g)
			return sys
		}, layph.DurableStreamConfig{
			Dir: *walDir,
			WAL: wal.Config{
				Sync: syncPol, Interval: *fsyncInterval,
				CheckpointEvery: *ckptEvery, Meta: meta,
			},
			Stream: scfg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		s, g = dur.Stream, dur.Stream.Graph()
		if r := dur.Recovery; r != nil {
			fmt.Printf("wal: recovered to seq=%d updates=%d (checkpoint seq=%d + %d batches/%d updates replayed; load=%.0fms replay=%.0fms states-verified=%v)\n",
				r.Seq, r.Updates, r.CheckpointSeq, r.ReplayedBatches, r.ReplayedUpdates,
				r.LoadMillis, r.ReplayMillis, r.StatesVerified)
			if r.DiscardedBytes > 0 {
				fmt.Printf("wal: discarded %d bytes of torn log tail\n", r.DiscardedBytes)
			}
		}
		fmt.Printf("engine: %s ready in %v (durable, fsync=%s, checkpoint every %d batches)\n",
			s.System().Name(), time.Since(buildStart).Round(time.Millisecond), syncPol, *ckptEvery)
	} else {
		g0, sys, _ := ef.build()
		g = g0
		fmt.Printf("engine: %s ready in %v (initial batch computation done)\n",
			sys.Name(), time.Since(buildStart).Round(time.Millisecond))
		s = stream.New(g, sys, scfg)
	}

	stopReport := make(chan struct{})
	reportDone := make(chan struct{})
	if *report > 0 {
		go func() {
			defer close(reportDone)
			tick := time.NewTicker(*report)
			defer tick.Stop()
			for {
				select {
				case <-stopReport:
					return
				case <-tick.C:
					printReport(s, *top)
				}
			}
		}()
	} else {
		close(reportDone)
	}

	idCap := graph.VertexID(*maxVertex)
	if idCap == 0 {
		idCap = graph.VertexID(g.Cap() + 1<<20)
	}

	if *listen != "" {
		daemonMain(s, dur, *listen, idCap, *input, *randN, *seed, g, stopReport, reportDone, *top)
		return
	}

	pushed, dropped := feed(s, *input, *randN, *seed, g, idCap)

	if err := s.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	close(stopReport)
	<-reportDone
	s.Close()
	closeDurable(dur)

	fmt.Printf("done: pushed=%d dropped=%d\n", pushed, dropped)
	printFinal(s, *top)
}

// closeDurable cuts the final checkpoint and closes the WAL (nil-safe),
// printing the log's lifetime totals.
func closeDurable(dur *layph.DurableStream) {
	if dur == nil {
		return
	}
	if err := dur.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wal:", err)
	}
	st := dur.Log.Stats()
	fmt.Printf("wal totals: batches=%d updates=%d bytes=%d fsyncs=%d checkpoints=%d (%.3fs) last-checkpoint-seq=%d\n",
		st.Batches, st.Updates, st.Bytes, st.Fsyncs, st.Checkpoints, st.CheckpointSeconds, st.LastCheckpointSeq)
}

// daemonMain runs serve's -listen mode: start the HTTP API, keep any
// -input/-rand feed running in the background, and block until
// SIGINT/SIGTERM, then drain the stream and stop the listener.
func daemonMain(s *stream.Stream, dur *layph.DurableStream, addr string, idCap graph.VertexID,
	input string, randN int, seed int64, g *graph.Graph,
	stopReport, reportDone chan struct{}, top int) {
	srv := server.New(s, server.Config{Addr: addr, MaxVertexID: idCap})
	if dur != nil {
		srv.AttachDurability(dur.Log, dur.Recovery)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("listening on http://%s\n", srv.Addr())

	// Any local feed runs alongside the HTTP writers; it stops on its
	// own when the stream closes underneath it during shutdown.
	if input != "" || randN > 0 {
		go feed(s, input, randN, seed, g, idCap)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	signal.Stop(sig)
	fmt.Printf("%s: draining stream and shutting down\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
	closeDurable(dur)
	close(stopReport)
	<-reportDone
	printFinal(s, top)
}

// printFinal prints the end-of-run summary from the stream's final
// snapshot and metrics (valid after Close: snapshots stay readable).
func printFinal(s *stream.Stream, top int) {
	snap := s.Query()
	m := s.Metrics()
	fmt.Printf("stream totals: accepted=%d dropped=%d applied=%d batches=%d\n",
		m.Accepted, m.Dropped, m.Applied, m.Batches)
	fmt.Printf("engine totals: activations=%d rounds=%d resets=%d update-time=%v subgraph-tasks=%d pool-util=%.0f%%\n",
		m.Engine.Activations, m.Engine.Rounds, m.Engine.Resets, m.Engine.Duration.Round(time.Microsecond),
		m.Engine.SubgraphsParallel, 100*m.Engine.PoolUtilization)
	if gr, ok := s.System().(interface{ ShardInfos() []shard.Info }); ok {
		fmt.Printf("shard totals: shards=%d exchange-rounds=%d boundary-pins=%d\n",
			len(gr.ShardInfos()), m.Engine.ShardRounds, m.Engine.BoundaryPins)
	}
	if rl := m.Relayer; rl.Enabled {
		fmt.Printf("relayer totals: full-relayers=%d touched-ewma=%.3f skeleton=%.3f/%.3f moves=%d last-trigger=%s\n",
			rl.FullRelayers, rl.TouchedRatioEWMA,
			rl.SkeletonFraction, rl.SkeletonBaseline, rl.MembershipMoves, rl.LastTrigger)
	}
	fmt.Printf("final snapshot: seq=%d updates=%d %s\n", snap.Seq, snap.Updates, sampleStates(snap.States, top))
}

// feed pushes the whole update source into the stream, returning how many
// updates were pushed and dropped. Updates referencing vertex ids at or
// above idCap are rejected: a single hostile "av 4294967295" line would
// otherwise make the graph (and every engine state vector) grow to that
// id and OOM the server. A closed stream (daemon shutdown racing the
// feed) ends the feed quietly instead of failing the process.
func feed(s *stream.Stream, input string, randN int, seed int64, g *graph.Graph, idCap graph.VertexID) (pushed, dropped int64) {
	var errStop = errors.New("stream closed")
	push := func(u delta.Update) error {
		switch err := s.Push(u); {
		case err == nil:
			pushed++
		case errors.Is(err, stream.ErrQueueFull):
			dropped++
		case errors.Is(err, stream.ErrClosed):
			return errStop
		default:
			fmt.Fprintln(os.Stderr, "push:", err)
			os.Exit(1)
		}
		return nil
	}

	if randN > 0 {
		for _, u := range delta.NewGenerator(seed).UnitSequence(g, randN, true) {
			if push(u) != nil {
				return pushed, dropped
			}
		}
		return pushed, dropped
	}

	var r io.Reader
	if input == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(input)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	err := delta.ForEachUpdate(r, func(lineno int, u delta.Update, perr error) error {
		if perr != nil {
			fmt.Fprintf(os.Stderr, "line %d: %v (skipped)\n", lineno, perr)
			return nil
		}
		isEdge := u.Kind == delta.AddEdge || u.Kind == delta.DelEdge
		if u.U >= idCap || (isEdge && u.V >= idCap) {
			fmt.Fprintf(os.Stderr, "line %d: vertex id beyond -maxvertex %d (skipped)\n", lineno, idCap)
			return nil
		}
		return push(u)
	})
	if err != nil && !errors.Is(err, errStop) {
		fmt.Fprintln(os.Stderr, "read:", err)
	}
	return pushed, dropped
}

func printReport(s *stream.Stream, top int) {
	snap := s.Query()
	m := s.Metrics()
	relayers := ""
	if m.Relayer.Enabled {
		relayers = fmt.Sprintf(" relayers=%d", m.Relayer.FullRelayers)
	}
	fmt.Printf("t=%s seq=%-6d applied=%-9d rate=%.0f/s batch-lat=%v subs-par=%d pool-util=%.0f%%%s %s\n",
		time.Now().Format("15:04:05"), snap.Seq, m.Applied, m.Throughput,
		m.MeanBatchLatency.Round(time.Microsecond), m.Engine.SubgraphsParallel,
		100*m.Engine.PoolUtilization, relayers, sampleStates(snap.States, top))
}

func sampleStates(x []float64, top int) string {
	if top <= 0 {
		return ""
	}
	parts := make([]string, 0, top)
	for i := 0; i < top && i < len(x); i++ {
		parts = append(parts, fmt.Sprintf("x[%d]=%.4g", i, x[i]))
	}
	return strings.Join(parts, " ")
}
