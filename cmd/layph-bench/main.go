// Command layph-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	layph-bench -list
//	layph-bench -experiment fig1
//	layph-bench -experiment all -scale 1.0 -threads 16
//
// Each experiment prints rows shaped like the corresponding plot of the
// paper's evaluation section; README's `layph-bench` section lists the
// experiments and the BENCH_<id>.json records some of them write.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"layph/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.Float64("scale", 0, "dataset scale factor (0 = quick default)")
		threads    = flag.Int("threads", 0, "worker threads (0 = default)")
		batches    = flag.Int("batches", 0, "update batches per measurement (0 = default)")
		batchSize  = flag.Int("batchsize", 0, "|dG| per batch (0 = paper default 5000)")
		seed       = flag.Int64("seed", 0, "workload seed (0 = default)")
		summary    = flag.Bool("summary", false, "also print the headline speedup summary")
		perfsmoke  = flag.Bool("perfsmoke", false, "run the t=1 vs t=4 parallel perf smoke and exit nonzero if parallel loses to sequential (self-skips when GOMAXPROCS < 4)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	o := bench.Options{
		Scale: *scale, Threads: *threads, Batches: *batches,
		BatchSize: *batchSize, Seed: *seed,
	}

	if *perfsmoke {
		os.Exit(bench.PerfSmoke(os.Stdout, o))
	}

	run := func(e bench.Experiment) {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		e.Run(os.Stdout, o)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range bench.All() {
			run(e)
		}
	} else {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *experiment)
			os.Exit(2)
		}
		run(e)
	}
	if *summary {
		fmt.Println("== headline speedups (Layph vs competitors, Fig 5 matrix) ==")
		bench.SpeedupSummary(os.Stdout, o)
	}
}
