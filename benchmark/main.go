// Command benchmark is the repository's benchmark: six workloads that vary
// how many dense subgraphs an update batch enters and whether it arrives
// through library calls, a stream, or a durable stream; end-to-end metrics
// from an untraced pass, per-layer metrics from a traced one; every run
// checked against a restart on the final graph. README.md is the glossary.
//
//	go run -C benchmark . -workload all -seed 1
//	go run -C benchmark . -workload stream-sssp-durable -trace 1
//	go run -C benchmark . -workload batch-sssp-local -repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the update sequence")
	seconds := flag.Float64("seconds", 10, "measuring time of one run")
	trace := flag.Int("trace", 0, "1: split the time between an untraced and a traced pass and report per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, on seeds seed..seed+repeat-1, summarized at the end")
	outDir := flag.String("out", "out", "directory for result and trace files")
	flag.Parse()

	chosen := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		chosen = []workload{w}
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds > 0, -repeat >= 1, -trace 0 or 1")
		os.Exit(2)
	}
	sz := sizing{scale: fullScale, seconds: *seconds, outDir: *outDir, setups: fullSetups, setupSeconds: fullSetupSeconds}
	if err := run(chosen, *seed, *repeat, *trace == 1, sz); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes the chosen workloads repeat times each, prints every metric,
// writes the records, and prints the summary line. It returns an error when
// a run could not be made or an output was wrong.
func run(chosen []workload, seed int64, repeat int, traced bool, sz sizing) error {
	env := currentEnvironment()
	if env.Capped {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING: GOMAXPROCS < 2 — the load generator and the stream worker share one core; records are marked capped")
	}
	if err := os.MkdirAll(sz.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}

	table := endToEnd
	if traced {
		table = perLayer
	}
	// shown is table plus what is recorded for information only.
	shown := table
	if !traced {
		shown = append(append([]metric(nil), table...), information...)
	}
	sum := summary{Correct: true, Metrics: map[string]value{}}
	series := map[string]map[string][]float64{} // workload → metric → one value per repetition
	for rep := 0; rep < repeat; rep++ {
		for _, w := range chosen {
			rec, err := runOne(w, seed+int64(rep), sz, traced, env)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printRecord(rec)
			if _, err := writeJSON(sz.outDir, w.Name+".json", rec); err != nil {
				return err
			}
			sum.Correct = sum.Correct && rec.Correct
			sum.Attempted += rec.Attempted
			sum.Failed += rec.Failed
			got := rec.EndToEnd
			if traced {
				got = rec.PerLayer
			}
			if series[w.Name] == nil {
				series[w.Name] = map[string][]float64{}
			}
			for _, m := range shown {
				series[w.Name][m.Name] = append(series[w.Name][m.Name], got[m.Name].Value)
			}
		}
	}

	if a, b := series["batch-sssp-local"], series["batch-sssp-local-ingress"]; !traced && a != nil && b != nil {
		fmt.Printf("\nlayph/ingress response_p50_ms on the identical local sequence: %.3f (information only, never gated)\n",
			median(a["response_p50_ms"])/median(b["response_p50_ms"]))
	}
	if repeat > 1 {
		rs := repeatSummary{Env: env, Seed: seed, Repeat: repeat, Seconds: sz.seconds}
		for _, w := range chosen {
			for _, m := range shown {
				rs.Rows = append(rs.Rows, spreadOf(w.Name, m, series[w.Name][m.Name]))
			}
		}
		printRepeat(rs)
		if _, err := writeJSON(sz.outDir, "repeat.json", rs); err != nil {
			return err
		}
	}

	// One workload: metrics by name, as BENCHMARK.json lists them. Several:
	// by workload/name. Several repetitions: the median.
	for _, w := range chosen {
		for _, m := range table {
			key := m.Name
			if len(chosen) > 1 {
				key = w.Name + "/" + m.Name
			}
			sum.Metrics[key] = value{Value: median(series[w.Name][m.Name]), Unit: m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return fmt.Errorf("an output was wrong; see the failed checks above")
	}
	return nil
}

// runOne runs one workload on one seed. Untraced, the whole measuring time
// goes to one pass with fullSetups set-ups. Traced, the time is split
// between an untraced reference pass and a traced pass of the same
// sequence, so the tracing overhead is known.
func runOne(w workload, seed int64, sz sizing, traced bool, env environment) (*record, error) {
	began := time.Now()
	rec := &record{Env: env, Workload: w.Name, Why: w.Why, Seed: seed, Seconds: sz.seconds, Traced: traced}
	if traced {
		sz.seconds /= 2
		sz.setups, sz.setupSeconds = 1, 0
	}
	ref, err := runWorkload(w, seed, sz, false)
	if err != nil {
		return nil, err
	}
	rec.EndToEnd = ref.e2e
	rec.Attempted, rec.Failed, rec.Checks = ref.attempted, ref.failed, ref.checks
	rec.Correct = ref.correct()

	if traced {
		tp, err := runWorkload(w, seed, sz, true)
		if err != nil {
			return nil, err
		}
		rec.Attempted += tp.attempted
		rec.Failed += tp.failed
		for _, c := range tp.checks {
			c.Name = "traced pass: " + c.Name
			rec.Checks = append(rec.Checks, c)
		}

		rec.PerLayer = tp.layer
		rec.PerLayer["trace.overhead_frac"] = value{
			tp.e2e["updates_per_s"].Value/ref.e2e["updates_per_s"].Value - 1, "ratio", 0}
		for _, m := range perLayer {
			if _, ok := rec.PerLayer[m.Name]; !ok {
				rec.PerLayer[m.Name] = value{0, m.Unit, 0} // a layer this workload does not use
			}
		}
		cov := rec.PerLayer["trace.coverage"].Value
		covered := cov >= 0.95 && cov <= 1.05
		rec.Checks = append(rec.Checks, check{
			Name: "child spans sum to within 5% of their parent", OK: covered,
			Detail: fmt.Sprintf("children cover %.4f of the parent", cov),
		})
		rec.Correct = rec.Correct && tp.correct() && covered

		rec.SelfTimeMS = map[string]value{}
		for name, d := range selfTimes(tp.spans) {
			rec.SelfTimeMS[name] = value{median(d), "ms", len(d)}
		}
		path, err := writeJSON(sz.outDir, "trace-"+w.Name+".json",
			traceFile{Env: env, Workload: w.Name, Seed: seed, Spans: tp.spans})
		if err != nil {
			return nil, err
		}
		rec.TraceFile = path
	}
	if !rec.Correct {
		rec.Failed = rec.Attempted
	}
	rec.FailedFrac = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.WallClockS = time.Since(began).Seconds()
	return rec, nil
}

func printRecord(rec *record) {
	mode := "untraced"
	if rec.Traced {
		mode = "reference pass + traced pass, half the time each"
	}
	fmt.Printf("\n== %s  seed=%d  %gs  %s  wall-clock %.1fs\n", rec.Workload, rec.Seed, rec.Seconds, mode, rec.WallClockS)
	printMetrics(endToEnd, rec.EndToEnd)
	printMetrics(information, rec.EndToEnd)
	fmt.Printf("  %-28s %14.4f %-6s  (%d of %d)\n", "failed_frac", rec.FailedFrac, "ratio", rec.Failed, rec.Attempted)
	if rec.Traced {
		fmt.Println("  -- per layer")
		printMetrics(perLayer, rec.PerLayer)
		fmt.Println("  -- median self time per span (span minus its children)")
		names := make([]string, 0, len(rec.SelfTimeMS))
		for n := range rec.SelfTimeMS {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := rec.SelfTimeMS[n]
			fmt.Printf("  %-28s %14.4f %-6s  (n=%d)\n", n, v.Value, v.Unit, v.Samples)
		}
		fmt.Println("  trace:", rec.TraceFile)
	}
	for _, c := range rec.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %s  %s\n", status, c.Name, c.Detail)
	}
}

// spreadRow is how one metric of one workload varied over the repetitions.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// IQRShare is (Q3 − Q1) ÷ median, the spread the driver compares with
	// the bound; RangeShare is (max − min) ÷ median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
	Bound      float64 `json:"bound,omitempty"`
}

type repeatSummary struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Repeat  int         `json:"repeat"`
	Seconds float64     `json:"seconds"`
	Rows    []spreadRow `json:"rows"`
	Claim   *string     `json:"claim"`
}

// spreadOf summarizes one series. The quartiles are those of Python's
// statistics.quantiles(values, n=4), which is what the driver uses.
func spreadOf(workload string, m metric, xs []float64) spreadRow {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	r := spreadRow{Workload: workload, Metric: m.Name, Unit: m.Unit, Median: median(s), Bound: m.Bound}
	r.Q1, r.Q3 = cut(1), cut(3)
	if r.Median != 0 {
		r.IQRShare = (r.Q3 - r.Q1) / r.Median
		r.RangeShare = (s[n-1] - s[0]) / r.Median
	}
	return r
}

func printRepeat(rs repeatSummary) {
	fmt.Printf("\n== spread over %d runs (seeds %d..%d)\n", rs.Repeat, rs.Seed, rs.Seed+int64(rs.Repeat)-1)
	fmt.Printf("  %-26s %-26s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, r := range rs.Rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Printf("  %-26s %-26s %12.4f %12.4f %12.4f %8.4f %8.4f %6s\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.IQRShare, r.RangeShare, bound)
	}
}
