package delta

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"layph/internal/graph"
)

func TestParseFormatRoundTrip(t *testing.T) {
	b := Batch{
		{Kind: AddEdge, U: 1, V: 2, W: 3.5},
		{Kind: DelEdge, U: 2, V: 1},
		{Kind: AddVertex, U: 9},
		{Kind: DelVertex, U: 4},
	}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(b) {
		t.Fatalf("round trip: %d updates, want %d", len(got), len(b))
	}
	for i := range b {
		if got[i] != b[i] {
			t.Fatalf("update %d: %v != %v", i, got[i], b[i])
		}
	}
}

func TestReadUpdatesSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\na 0 1\n  \nd 0 1\n# trailing\n"
	b, err := ReadUpdates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || b[0].Kind != AddEdge || b[0].W != 1 || b[1].Kind != DelEdge {
		t.Fatalf("parsed %v", b)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	for _, line := range []string{"", "x 1 2", "a 1", "a 1 2 zz", "d 1", "av", "dv 1 2", "a -1 2"} {
		if _, err := ParseUpdate(line); err == nil {
			t.Fatalf("ParseUpdate(%q) accepted", line)
		}
	}
	bad := "a 0 1\nboom\n"
	if _, err := ReadUpdates(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("ReadUpdates error %v, want line 2 context", err)
	}
}

// untrustedRejects are the hostile shapes the wire format receives once it
// fronts an HTTP endpoint: the parser must reject them with an error (never
// panic, never let a poisoned value through).
var untrustedRejects = []struct {
	name, line string
	wantErr    string
}{
	{"nan weight", "a 1 2 NaN", "non-finite"},
	{"pos-inf weight", "a 1 2 Inf", "non-finite"},
	{"neg-inf weight", "a 1 2 -Inf", "non-finite"},
	{"negative weight", "a 1 2 -3.5", "negative weight"},
	{"overflowing weight", "a 1 2 1e309", "bad weight"},
	{"hex weight", "a 1 2 0xFF", "bad weight"},
	{"id overflows uint32", "a 4294967296 2", "bad vertex id"},
	{"negative id", "a 1 -2", "bad vertex id"},
	{"float id", "a 1.5 2", "bad vertex id"},
	{"empty after op", "a", "want 'a <u> <v> [w]'"},
	{"extra fields", "a 1 2 3 4", "want 'a <u> <v> [w]'"},
	{"delete with weight", "d 1 2 3", "want 'd <u> <v>'"},
	{"unknown op", "addedge 1 2", "unknown update op"},
	{"null bytes", "a \x00 2", "bad vertex id"},
}

// untrustedAccepts are benign shapes that stay accepted: zero weight,
// omitted weight, big-but-valid ids, scientific notation, surrounding
// whitespace.
var untrustedAccepts = []struct {
	line string
	want Update
}{
	{"a 1 2 0", Update{Kind: AddEdge, U: 1, V: 2, W: 0}},
	{"a 1 2", Update{Kind: AddEdge, U: 1, V: 2, W: 1}},
	{"a 4294967295 0 2e-3", Update{Kind: AddEdge, U: 4294967295, V: 0, W: 0.002}},
	{"  d   7   9  ", Update{Kind: DelEdge, U: 7, V: 9}},
}

// TestParseUpdateUntrustedInput requires untrustedRejects rejected with
// their error and untrustedAccepts parsed as given.
func TestParseUpdateUntrustedInput(t *testing.T) {
	for _, tc := range untrustedRejects {
		t.Run(tc.name, func(t *testing.T) {
			u, err := ParseUpdate(tc.line)
			if err == nil {
				t.Fatalf("ParseUpdate(%q) accepted as %v", tc.line, u)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseUpdate(%q) error %q, want substring %q", tc.line, err, tc.wantErr)
			}
		})
	}
	for _, tc := range untrustedAccepts {
		u, err := ParseUpdate(tc.line)
		if err != nil {
			t.Fatalf("ParseUpdate(%q): %v", tc.line, err)
		}
		if u != tc.want {
			t.Fatalf("ParseUpdate(%q) = %v, want %v", tc.line, u, tc.want)
		}
	}
}

// FuzzParseUpdate: ParseUpdate never panics, an update it accepts has a
// weight CheckWeight accepts, and FormatUpdate then ParseUpdate gives the
// update back unchanged.
func FuzzParseUpdate(f *testing.F) {
	for _, tc := range untrustedRejects {
		f.Add(tc.line)
	}
	for _, tc := range untrustedAccepts {
		f.Add(tc.line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdate(line)
		if err != nil {
			return
		}
		if err := CheckWeight(u.W); err != nil {
			t.Fatalf("ParseUpdate(%q) accepted %v: %v", line, u, err)
		}
		text, err := FormatUpdate(u)
		if err != nil {
			t.Fatalf("FormatUpdate(%v) of ParseUpdate(%q): %v", u, line, err)
		}
		if back, err := ParseUpdate(text); err != nil || back != u {
			t.Fatalf("ParseUpdate(%q) = %v, %v; want %v (from %q)", text, back, err, u, line)
		}
	})
}

// A duplicate add/del of the same edge inside one batch must net out to
// nothing when applied — HTTP clients will retry and replay.
func TestDuplicateAddDelNetsOut(t *testing.T) {
	g := graph.New(4)
	b, err := ReadUpdates(strings.NewReader("a 0 1 2\nd 0 1\na 0 1 2\nd 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a := Apply(g, b); !a.Empty() {
		t.Fatalf("add/del/add/del of one edge netted %+v, want empty", a)
	}
	if _, ok := g.HasEdge(0, 1); ok {
		t.Fatal("edge survived a net-zero batch")
	}
	// Duplicate adds with the same weight collapse to one edge; the
	// duplicate is a silent no-op.
	b2, err := ReadUpdates(strings.NewReader("a 2 3 5\na 2 3 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	a2 := Apply(g, b2)
	if len(a2.AddedEdges) != 1 {
		t.Fatalf("duplicate add recorded %d net added edges, want 1", len(a2.AddedEdges))
	}
	if w, ok := g.HasEdge(2, 3); !ok || w != 5 {
		t.Fatalf("edge (2,3) = %v,%v after duplicate add", w, ok)
	}
}

// FormatUpdate must refuse an update with a corrupt Kind instead of
// rendering it as a comment: WriteUpdates feeds the WAL, and a comment
// line would be silently skipped on replay — acked but never persisted.
func TestFormatUpdateUnknownKind(t *testing.T) {
	cases := []struct {
		name string
		u    Update
		want string // rendered line for valid kinds; "" = expect an error
	}{
		{"add edge", Update{Kind: AddEdge, U: 1, V: 2, W: 3.5}, "a 1 2 3.5"},
		{"del edge", Update{Kind: DelEdge, U: 2, V: 1}, "d 2 1"},
		{"add vertex", Update{Kind: AddVertex, U: 9}, "av 9"},
		{"del vertex", Update{Kind: DelVertex, U: 4}, "dv 4"},
		{"kind just past range", Update{Kind: DelVertex + 1, U: 1, V: 2}, ""},
		{"kind far out of range", Update{Kind: Kind(200), U: 1, V: 2, W: 1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, err := FormatUpdate(tc.u)
			if tc.want == "" {
				if err == nil {
					t.Fatalf("FormatUpdate(%+v) = %q, want error", tc.u, line)
				}
				if !strings.Contains(err.Error(), "unknown kind") {
					t.Fatalf("FormatUpdate(%+v) error %q, want 'unknown kind'", tc.u, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("FormatUpdate(%+v): %v", tc.u, err)
			}
			if line != tc.want {
				t.Fatalf("FormatUpdate(%+v) = %q, want %q", tc.u, line, tc.want)
			}
		})
	}

	// The write path fails loudly, identifying the corrupt element, and a
	// clean prefix does not excuse the batch.
	b := Batch{{Kind: AddEdge, U: 0, V: 1, W: 1}, {Kind: Kind(7), U: 3}}
	var buf bytes.Buffer
	err := WriteUpdates(&buf, b)
	if err == nil {
		t.Fatalf("WriteUpdates accepted a corrupt batch, wrote %q", buf.String())
	}
	if !strings.Contains(err.Error(), "update 1") || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("WriteUpdates error %q, want position and 'unknown kind'", err)
	}
}

// Overlong lines (beyond the scanner's 1 MiB token cap) must surface as a
// scan error carrying the line position, not a panic or a silent
// truncation: without the position a corrupt log record is undiagnosable.
func TestOverlongLineRejected(t *testing.T) {
	long := "a 0 1 " + strings.Repeat("9", 2<<20)
	err := ForEachUpdate(strings.NewReader(long), func(int, Update, error) error { return nil })
	if err == nil {
		t.Fatal("2 MiB line accepted by ForEachUpdate")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("overlong-line error %v does not unwrap to bufio.ErrTooLong", err)
	}
	if _, err := ReadUpdates(strings.NewReader(long)); err == nil {
		t.Fatal("2 MiB line accepted by ReadUpdates")
	}
	// Valid lines before the corrupt one position the error: the monster
	// line above is line 3.
	prefixed := "a 0 1\nd 0 1\n" + long + "\n"
	err = ForEachUpdate(strings.NewReader(prefixed), func(int, Update, error) error { return nil })
	if err == nil {
		t.Fatal("overlong line 3 accepted")
	}
	if !strings.Contains(err.Error(), "after line 2") {
		t.Fatalf("scanner error %q lacks position context (want 'after line 2')", err)
	}
	// A line just under the cap still parses (weight overflows float64
	// range and is rejected by value, not by length — still an error, but
	// proves the scanner passed it through).
	nearCap := "a 0 1 1" + strings.Repeat("0", 1000)
	if _, err := ParseUpdate(nearCap); err == nil {
		t.Fatal("10^1000 weight accepted")
	}
}
