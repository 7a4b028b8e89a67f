package chip

import (
	"strings"
	"testing"

	"reactivenoc/internal/sim"
)

// TestDiffComparesWindows: two runs equal at the end but apart inside one
// sample window diverge, and a skipped metric is skipped in windows too.
func TestDiffComparesWindows(t *testing.T) {
	snap := func(at sim.Cycle, stalls, active int64) sim.Snapshot {
		return sim.Snapshot{At: at, Vals: map[string]int64{"core/stall_cycles": stalls, "kernel/active": active}}
	}
	a := &Results{Metrics: snap(200, 9, 1), Series: []sim.Snapshot{snap(97, 4, 1), snap(194, 5, 1)}}
	b := &Results{Metrics: snap(200, 9, 2), Series: []sim.Snapshot{snap(97, 3, 5), snap(194, 6, 5)}}
	skip := func(name string) bool { return name == "kernel/active" }
	err := Diff(a, b, skip)
	if err == nil || !strings.Contains(err.Error(), "metric core/stall_cycles at cycle 97: 4 vs 3") ||
		strings.Contains(err.Error(), "kernel/active") {
		t.Fatalf("Diff = %v, want the window-97 stall divergence alone", err)
	}
	b.Series = b.Series[:1]
	if err := Diff(a, b, skip); err == nil || !strings.Contains(err.Error(), "series: 2 vs 1 windows") {
		t.Fatalf("Diff = %v, want the missing window", err)
	}
	if err := Diff(a, a, nil); err != nil {
		t.Fatalf("a run differs from itself: %v", err)
	}
}
