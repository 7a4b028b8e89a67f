package bench

import (
	"context"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// TestStepperMatchesRunCtx is the licence for every per-class number: the
// hand-stepped machine must be the run chip.RunCtx performs, on a packet
// network, untimed and timed circuits, and the lane-sliced SDM fabric.
func TestStepperMatchesRunCtx(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	for _, variant := range []string{"Baseline", "Complete_NoAck", "SlackDelay_1_NoAck", "SDM"} {
		t.Run(variant, func(t *testing.T) {
			v, ok := config.ByName(variant)
			if !ok {
				t.Fatalf("unknown variant %s", variant)
			}
			s := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
			s.WarmupOps, s.MeasureOps, s.Seed = 500, 1500, 23
			want, err := chip.RunCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := stepRun(s, NewSpanLog(), "test")
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || got.SimCycles != want.SimCycles {
				t.Fatalf("cycles %d/%d, chip.RunCtx %d/%d", got.Cycles, got.SimCycles, want.Cycles, want.SimCycles)
			}
			if digest(got) != digest(want) {
				t.Fatalf("digest\n got %s\nwant %s", digest(got), digest(want))
			}
			if st.timer.ticks[clsCore] == 0 || st.timer.ns[clsCore] == 0 {
				t.Fatalf("no core time recorded: %+v", st.timer)
			}
		})
	}
}
