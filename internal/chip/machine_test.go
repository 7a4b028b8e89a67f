package chip

import "testing"

// stepUntilDone advances m with Step alone until Done, failing the test on
// an oracle violation or if the phase outlasts limit cycles.
func stepUntilDone(t *testing.T, m *Machine, limit int) {
	t.Helper()
	for i := 0; !m.Done(); i++ {
		if i == limit {
			t.Fatalf("phase not done after %d hand-stepped cycles", limit)
		}
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// TestHandSteppedMachineMatchesRunCtx drives a Machine from outside with
// Step and Done only — warm-up, the measured reset, the measured phase —
// on every 16-core golden row. The result must reproduce the pinned row
// and RunCtx's Results bit for bit, so RunPhase's watchdog and polls are
// pure observers and BeginMeasured is the whole of the measured reset.
func TestHandSteppedMachineMatchesRunCtx(t *testing.T) {
	for _, row := range goldenMatrix {
		row := row
		if row.chip != "16-core" {
			continue
		}
		t.Run(row.workload+"/"+row.variant, func(t *testing.T) {
			t.Parallel()
			spec := goldenSpec(row, t)
			m, err := Build(spec)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer m.Release()
			const limit = 1_000_000
			stepUntilDone(t, m, limit)
			m.BeginMeasured()
			stepUntilDone(t, m, limit)
			if err := m.Finish(); err != nil {
				t.Fatalf("finish: %v", err)
			}
			got := m.Harvest()
			checkGolden(t, row, got)

			want, err := Run(spec)
			if err != nil {
				t.Fatalf("RunCtx: %v", err)
			}
			sameResults(t, "hand-stepped vs RunCtx", got, want)
		})
	}
}
