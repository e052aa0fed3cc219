package audit

import (
	"strings"
	"testing"
)

// TestDiffLinesTellTheLogsApart extends TestDiff: the two lines a
// divergence prints must differ whatever field diverged — a span ID
// alone (the schedule dependence a phase-keyed span ID rules out), or a
// byte late in a long epoch_snapshot payload.
func TestDiffLinesTellTheLogsApart(t *testing.T) {
	lines := func(t *testing.T, d *Divergence) (string, string) {
		t.Helper()
		if d == nil || d.A == nil || d.B == nil {
			t.Fatalf("divergence = %v", d)
		}
		_, rest, _ := strings.Cut(d.String(), "\n  A: ")
		a, b, ok := strings.Cut(rest, "\n  B: ")
		if !ok {
			t.Fatalf("String() = %q", d.String())
		}
		return a, b
	}

	a := cleanLog().events
	b := cleanLog().events
	a[6].Trace, a[6].Span = "00000000000000aa", "0000000000000001"
	b[6].Trace, b[6].Span = "00000000000000aa", "0000000000000002"
	la, lb := lines(t, Diff(a, b))
	if la == lb || !strings.Contains(la, "0000000000000001") || !strings.Contains(lb, "0000000000000002") {
		t.Fatalf("span-only divergence prints\n  A: %s\n  B: %s", la, lb)
	}

	a = cleanLog().events
	b = cleanLog().events
	snap := 5 // epoch 0's epoch_snapshot
	i := strings.LastIndex(b[snap].Data, "0.75")
	if i < 96 {
		t.Fatalf("fixture payload too short to test the window: %q", b[snap].Data)
	}
	b[snap].Data = b[snap].Data[:i] + "0.76" + b[snap].Data[i+4:]
	la, lb = lines(t, Diff(a, b))
	if la == lb || !strings.Contains(la, "0.75") || !strings.Contains(lb, "0.76") {
		t.Fatalf("late payload divergence prints\n  A: %s\n  B: %s", la, lb)
	}
}
