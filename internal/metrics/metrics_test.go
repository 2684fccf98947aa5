package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestPhasesAccumulate(t *testing.T) {
	p := NewPhases()
	p.Add("a", 2*time.Millisecond)
	p.Add("b", 6*time.Millisecond)
	p.Add("a", 2*time.Millisecond)
	if p.Get("a") != 4*time.Millisecond {
		t.Fatalf("a = %v", p.Get("a"))
	}
	if p.Total() != 10*time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}
	fr := p.Fractions()
	if fr["a"] != 0.4 || fr["b"] != 0.6 {
		t.Fatalf("fractions = %v", fr)
	}
	if s := p.String(); !strings.HasPrefix(s, "a=") || !strings.Contains(s, " b=") {
		t.Fatalf("String() = %q, want a then b", s)
	}
}

func TestPhasesTimeAndString(t *testing.T) {
	p := NewPhases()
	p.Time("work", func() { time.Sleep(2 * time.Millisecond) })
	if p.Get("work") <= 0 {
		t.Fatal("Time did not record")
	}
	if !strings.Contains(p.String(), "work=") {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestEmptyPhases(t *testing.T) {
	p := NewPhases()
	if p.Total() != 0 || len(p.Fractions()) != 0 || p.String() != "" {
		t.Fatal("empty phases not empty")
	}
}
