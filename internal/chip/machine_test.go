package chip

import (
	"strings"
	"testing"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

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

// TestKernelWorkPinned pins the component ticks the sparse kernel spends on
// the 16-core micro Baseline golden row. The simulated results cannot see a
// component that ticks when it need not; this count can, on any host. A
// change that wakes stalled cores or blocked L2 banks again, or any other
// sleeper, moves it up; one that sleeps more moves it down, and re-pins it.
func TestKernelWorkPinned(t *testing.T) {
	const want = 77_055 // 105,637 while stalled cores and blocked banks ticked every cycle
	row := goldenMatrix[0]
	m, err := Build(goldenSpec(row, t))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer m.Release()
	stepUntilDone(t, m, 1_000_000)
	m.BeginMeasured()
	stepUntilDone(t, m, 1_000_000)
	checkGolden(t, row, m.Harvest())
	if got := m.kernel.Ticks(); got != want {
		t.Errorf("%s/%s/%s took %d component ticks, pinned %d", row.chip, row.workload, row.variant, got, want)
	}
}

// TestBooksBalance: the audited 64-core canneal Complete_NoAck run, whose
// network counts alone miss an L1-to-L1 reply acked on its home tile,
// balances every identity, and one data reply too many does not.
func TestBooksBalance(t *testing.T) {
	canneal, _ := workload.ByName("canneal")
	spec := DefaultSpec(config.Chip64(), variant(t, "Complete_NoAck"), canneal)
	spec.WarmupOps, spec.MeasureOps, spec.Audit = 3000, 1000, true
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Circ.EliminatedAcks == 0 || r.Msgs.Local[coherence.MsgDataAck] == 0 {
		t.Fatalf("no eliminated or local acks to balance: %d, %d",
			r.Circ.EliminatedAcks, r.Msgs.Local[coherence.MsgDataAck])
	}
	r.Msgs.Network[coherence.MsgL2Reply]++
	if err := balance(&r.Msgs, r.Circ); err == nil || !strings.Contains(err.Error(), Identities()[0]) {
		t.Fatalf("an unacked reply balanced the books: %v", err)
	}
}
