package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// heapMB is the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// environment describes where the numbers were taken. No record is written
// without it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Capped marks a run on fewer than two processors, where the load
	// generator and the stream worker time-share one core and stream
	// latencies measure the scheduler as much as the system.
	Capped bool `json:"capped"`
}

func currentEnvironment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	p := runtime.GOMAXPROCS(0)
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: p,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Capped:     p < 2,
	}
}

// value is one reported number. Samples is how many measurements the
// median or percentile was taken over (0 for a plain count or total).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is what one run of one workload writes to out/<workload>.json.
type record struct {
	Env        environment      `json:"env"`
	Workload   string           `json:"workload"`
	Why        string           `json:"why"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	WallClockS float64          `json:"wall_clock_s"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	FailedFrac float64          `json:"failed_frac"`
	Checks     []check          `json:"checks"`
	EndToEnd   map[string]value `json:"end_to_end"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	SelfTimeMS map[string]value `json:"self_time_ms,omitempty"`
	TraceFile  string           `json:"trace_file,omitempty"`
	Claim      *string          `json:"claim"` // this benchmark claims no gain
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []span      `json:"spans"`
}

func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create output directory: %w", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode %s: %w", name, err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write %s: %w", name, err)
	}
	return path, nil
}

// printMetrics prints the named metrics of one map in table order.
func printMetrics(table []metric, got map[string]value) {
	for _, m := range table {
		v, ok := got[m.Name]
		if !ok {
			continue
		}
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Printf("  %-28s %14.4f %-6s%s\n", m.Name, v.Value, v.Unit, n)
	}
}
