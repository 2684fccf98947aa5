// Package metrics provides the timers behind the paper's per-phase runtime
// breakdown (Figure 7) and the stream's rolling throughput and latency
// window.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phases accumulates named wall-clock durations, e.g. Layph's four online
// phases (layered-graph update, messages upload, Lup iteration, messages
// assignment).
type Phases struct {
	order []string
	dur   map[string]time.Duration
}

// NewPhases returns an empty phase recorder.
func NewPhases() *Phases {
	return &Phases{dur: make(map[string]time.Duration)}
}

// Add accumulates d under the named phase.
func (p *Phases) Add(name string, d time.Duration) {
	if _, ok := p.dur[name]; !ok {
		p.order = append(p.order, name)
	}
	p.dur[name] += d
}

// Time runs f and accumulates its duration under name.
func (p *Phases) Time(name string, f func()) {
	start := time.Now()
	f()
	p.Add(name, time.Since(start))
}

// Get returns the accumulated duration of a phase (zero if absent).
func (p *Phases) Get(name string) time.Duration { return p.dur[name] }

// Total returns the sum over all phases.
func (p *Phases) Total() time.Duration {
	var t time.Duration
	for _, d := range p.dur {
		t += d
	}
	return t
}

// Fractions returns each phase's share of the total, keyed by name.
func (p *Phases) Fractions() map[string]float64 {
	total := p.Total()
	out := make(map[string]float64, len(p.dur))
	for k, d := range p.dur {
		if total > 0 {
			out[k] = float64(d) / float64(total)
		}
	}
	return out
}

// String renders the phases as "name=dur(frac%)" in recorded order.
func (p *Phases) String() string {
	fr := p.Fractions()
	parts := make([]string, 0, len(p.order))
	names := append([]string(nil), p.order...)
	if len(names) == 0 {
		for k := range p.dur {
			names = append(names, k)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%v(%.1f%%)", n, p.dur[n].Round(time.Microsecond), 100*fr[n]))
	}
	return strings.Join(parts, " ")
}
