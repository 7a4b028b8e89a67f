package exp

import (
	"context"
	"strings"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// TestTuneFrom: the fold picks, per workload, the grid variant with the
// fewest cycles, and its speedup is Baseline's cycles over the winner's.
// Baseline is in the grid, so the winner never loses to it.
func TestTuneFrom(t *testing.T) {
	grid := config.TuneGrid()[:3] // Baseline, Reuse_NoAck, Timed_NoAck
	hotspot, _ := workload.ByName("hotspot")
	scale := Scale{MeasureOps: 1000, Seed: 7, Profiles: []workload.Profile{workload.Micro(), hotspot}}
	s := RunSweepCtx(context.Background(), config.Chip16(), grid, scale, Policy{})
	if len(s.Failures) > 0 {
		t.Fatal(s.FailureSummary())
	}
	tn, err := TuneFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tn.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tn.Rows))
	}
	for _, row := range tn.Rows {
		base := s.Res["Baseline"][row.Workload]
		timed := s.Res["Timed_NoAck"][row.Workload]
		for _, v := range grid {
			if r := s.Res[v.Name][row.Workload]; r.Cycles < row.BestCycles {
				t.Errorf("%s: best %s (%d cycles), but %s ran %d", row.Workload, row.Best, row.BestCycles, v.Name, r.Cycles)
			}
		}
		if s.Res[row.Best][row.Workload].Cycles != row.BestCycles {
			t.Errorf("%s: best %s is not the run of %d cycles", row.Workload, row.Best, row.BestCycles)
		}
		if row.Speedup < 1 || row.Speedup != float64(base.Cycles)/float64(row.BestCycles) {
			t.Errorf("%s: speedup %v, want Baseline %d over best %d cycles", row.Workload, row.Speedup, base.Cycles, row.BestCycles)
		}
		if want := float64(timed.Cycles-base.Cycles) / float64(base.Cycles); row.TimedDelta != want {
			t.Errorf("%s: Timed vs Baseline %v, want %v", row.Workload, row.TimedDelta, want)
		}
		if row.TimedCircuitHit <= 0 {
			t.Errorf("%s: Timed_NoAck rode no circuit", row.Workload)
		}
	}
	if _, err := TuneFrom(&Sweep{}); err == nil {
		t.Error("a sweep without Baseline folded into a tuning report")
	}
}

// TestTuneFormat pins the rendering: one row per workload, cycles whole,
// speedup as a ratio, the Timed delta signed.
func TestTuneFormat(t *testing.T) {
	tn := &Tune{Chip: "16-core", Rows: []TuneRow{
		{Workload: "micro", Best: "Timed_NoAck", BestCycles: 4100, Speedup: 1.210,
			TimedDelta: -0.174, BestCircuitHit: 0.31, TimedCircuitHit: 0.31},
		{Workload: "hotspot", Best: "Reuse_NoAck", BestCycles: 4939, Speedup: 1.065,
			TimedDelta: 0.011, BestCircuitHit: 0.28, TimedCircuitHit: 0.19},
	}}
	out := tn.Format()
	for _, want := range []string{
		"Tuning (16-core): each workload's fastest variant of the tuning grid\n",
		"micro     Timed_NoAck  4100    1.210x   -17.4%             31.0%       31.0%",
		"hotspot   Reuse_NoAck  4939    1.065x   +1.1%              28.0%       19.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("format misses %q:\n%s", want, out)
		}
	}
}

// TestTuneWorkloadsContrastRegimes: the default rows are the stationary
// anchors followed by the whole adversarial suite.
func TestTuneWorkloadsContrastRegimes(t *testing.T) {
	var names []string
	for _, p := range TuneWorkloads() {
		names = append(names, p.Name)
	}
	if got, want := strings.Join(names, ","), "micro,canneal,mix,hotspot,transpose,tornado,onoff,phased"; got != want {
		t.Errorf("default rows %s, want %s", got, want)
	}
}
