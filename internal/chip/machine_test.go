package chip

import (
	"strings"
	"testing"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
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

// kernelTicks pins, per 16-core golden row (workload/variant), the
// component ticks the sparse kernel spends on the row's warm-up and
// measured phases.
var kernelTicks = map[string]int64{
	"micro/Baseline":             39_521,
	"micro/Fragmented":           37_791,
	"micro/Complete":             37_995,
	"micro/Complete_NoAck":       33_862,
	"micro/Reuse_NoAck":          33_888,
	"micro/Timed_NoAck":          38_045,
	"micro/Slack_1_NoAck":        33_945,
	"micro/Slack_2_NoAck":        33_701,
	"micro/Slack_4_NoAck":        33_778,
	"micro/SlackDelay_1_NoAck":   33_945,
	"micro/Postponed_1_NoAck":    34_467,
	"micro/Ideal":                37_688,
	"canneal/Baseline":           48_298,
	"canneal/Fragmented":         45_766,
	"canneal/Complete":           46_420,
	"canneal/Complete_NoAck":     41_673,
	"canneal/Reuse_NoAck":        41_798,
	"canneal/Timed_NoAck":        46_035,
	"canneal/Slack_1_NoAck":      41_019,
	"canneal/Slack_2_NoAck":      40_725,
	"canneal/Slack_4_NoAck":      40_923,
	"canneal/SlackDelay_1_NoAck": 41_014,
	"canneal/Postponed_1_NoAck":  41_746,
	"canneal/Ideal":              45_452,
	"hotspot/Baseline":           64_356,
	"hotspot/Reuse_NoAck":        59_293,
	"hotspot/Timed_NoAck":        63_979,
	"micro/SDM":                  53_735,
	"micro/SDM_2":                43_807,
	"micro/SDM_8":                70_233,
	"hotspot/SDM":                94_942,
	"micro/DynamicVC":            37_843,
	"hotspot/DynamicVC":          63_019,
	"micro/Speculative":          32_066,
	"micro/Probe_DejaVu":         47_185,
	"canneal/Probe_DejaVu":       59_172,
}

// TestKernelWorkPinned pins the component ticks the sparse kernel spends on
// every 16-core golden row. The simulated results cannot see a component
// that ticks when it need not; this count can, on any host. A change that
// wakes stalled cores, blocked L2 banks, cores in a compute run or
// controllers waiting out a latency again, or any other sleeper, moves it
// up; one that sleeps more moves it down, and re-pins it.
func TestKernelWorkPinned(t *testing.T) {
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		name := row.workload + "/" + row.variant
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := kernelTicks[name]
			if !ok {
				t.Fatalf("no tick count pinned for %s", name)
			}
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
				t.Errorf("%s took %d component ticks, pinned %d", name, got, want)
			}
		})
	}
}

// stepKernelFree runs one phase of m the way a stepper with no kernel does
// (rcbench's hand-stepped machine): every cycle it ticks exactly the
// components that are not Quiescent, in registration order, then steps
// m.kernel — an empty kernel holding only the clock and the epilogues, so
// that Step still runs them and polls the sampler. It fails the test if
// the phase outlasts limit cycles.
func stepKernelFree(t *testing.T, m *Machine, comps []sim.Component, limit int) {
	t.Helper()
	for i := 0; !m.Done(); i++ {
		if i == limit {
			t.Fatalf("phase not done after %d kernel-free cycles", limit)
		}
		now := m.kernel.Now()
		for _, c := range comps {
			if !c.Quiescent() {
				c.Tick(now)
			}
		}
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// TestKernelFreeStepperMatchesRunCtx steps every 16-core golden row with
// no waker reaching a stepper: the components keep the wakers Build wired,
// but into a kernel nothing steps, so Quiescent alone decides what ticks.
// A component that sleeps on the kernel's wheel must therefore stay
// non-quiescent, and every tick before its wake must be a no-op; the run
// must reproduce the row and RunCtx's Results, sample windows included.
func TestKernelFreeStepperMatchesRunCtx(t *testing.T) {
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		t.Run(row.workload+"/"+row.variant, func(t *testing.T) {
			t.Parallel()
			spec := goldenSpec(row, t)
			spec.SampleEvery = 97
			m, err := Build(spec)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer m.Release()
			sys := m.Sys
			var comps []sim.Component
			for id := range sys.L1s {
				comps = append(comps, sys.Net.Router(mesh.NodeID(id)))
			}
			for id := range sys.L1s {
				comps = append(comps, sys.Net.NI(mesh.NodeID(id)))
			}
			for id := range sys.L1s {
				comps = append(comps, sys.L1s[id], sys.L2s[id])
			}
			for _, mc := range sys.MCs {
				comps = append(comps, mc)
			}
			for _, c := range m.cores {
				comps = append(comps, c)
			}
			m.kernel = sim.NewKernel()
			m.kernel.AddEpilogue(sys.Net.FlushBoundary)
			if sys.Mgr != nil {
				m.kernel.AddEpilogue(sys.Mgr.FlushCycle)
			}
			const limit = 100_000
			stepKernelFree(t, m, comps, limit)
			m.BeginMeasured()
			stepKernelFree(t, m, comps, limit)
			if err := m.Finish(); err != nil {
				t.Fatalf("finish: %v", err)
			}
			got := m.Harvest()
			checkGolden(t, row, got)
			want, err := Run(spec)
			if err != nil {
				t.Fatalf("RunCtx: %v", err)
			}
			// The empty kernel has no component to count awake.
			if err := Diff(want, got, func(name string) bool { return name == "kernel/active" }); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBooksBalance: the audited 64-core canneal Complete_NoAck run, whose
// network counts alone miss an L1-to-L1 reply acked on its home tile and
// whose NIs hold replies back and offer them again, balances every
// identity; one data reply too many, one Figure-6 outcome too many or one
// eliminated outcome too many does not.
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
	for i, bump := range []func(m *coherence.MsgStats, c *core.Stats){
		func(m *coherence.MsgStats, _ *core.Stats) { m.Network[coherence.MsgL2Reply]++ },
		func(_ *coherence.MsgStats, c *core.Stats) { c.Replies[core.OutcomeUndone]++ },
		func(_ *coherence.MsgStats, c *core.Stats) { c.Replies[core.OutcomeEliminated]++ },
	} {
		msgs, circ := r.Msgs, *r.Circ
		bump(&msgs, &circ)
		if err := balance(&msgs, &circ); err == nil || !strings.Contains(err.Error(), Identities()[i]) {
			t.Errorf("bump %d balanced the books, or not only identity %d failed: %v", i, i, err)
		}
	}
}
