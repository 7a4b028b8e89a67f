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
	"micro/Baseline":             38_688,
	"micro/Fragmented":           36_959,
	"micro/Complete":             37_162,
	"micro/Complete_NoAck":       33_211,
	"micro/Reuse_NoAck":          33_237,
	"micro/Timed_NoAck":          37_215,
	"micro/Slack_1_NoAck":        33_287,
	"micro/Slack_2_NoAck":        33_052,
	"micro/Slack_4_NoAck":        33_120,
	"micro/SlackDelay_1_NoAck":   33_287,
	"micro/Postponed_1_NoAck":    33_806,
	"micro/Ideal":                36_856,
	"canneal/Baseline":           47_210,
	"canneal/Fragmented":         44_682,
	"canneal/Complete":           45_334,
	"canneal/Complete_NoAck":     40_818,
	"canneal/Reuse_NoAck":        40_942,
	"canneal/Timed_NoAck":        44_944,
	"canneal/Slack_1_NoAck":      40_172,
	"canneal/Slack_2_NoAck":      39_886,
	"canneal/Slack_4_NoAck":      40_086,
	"canneal/SlackDelay_1_NoAck": 40_168,
	"canneal/Postponed_1_NoAck":  40_902,
	"canneal/Ideal":              44_365,
	"hotspot/Baseline":           62_322,
	"hotspot/Reuse_NoAck":        57_415,
	"hotspot/Timed_NoAck":        61_937,
	"micro/SDM":                  52_898,
	"micro/SDM_2":                42_973,
	"micro/SDM_8":                69_393,
	"hotspot/SDM":                92_742,
	"micro/DynamicVC":            37_014,
	"hotspot/DynamicVC":          60_987,
	"micro/Speculative":          31_235,
	"micro/Probe_DejaVu":         46_349,
	"canneal/Probe_DejaVu":       58_083,
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
// network counts alone miss an L1-to-L1 reply acked on its home tile, whose
// NIs hold replies back and offer them again, and whose owner on a line's
// home tile answers a forward for an undone circuit locally, balances every
// identity; one data reply too many, one Figure-6 outcome too many, one
// eliminated outcome too many, one undone circuit too many, one built
// circuit too many, one stall cycle too many, one credit too many or one
// undo token too many does not.
func TestBooksBalance(t *testing.T) {
	canneal, _ := workload.ByName("canneal")
	spec := DefaultSpec(config.Chip64(), variant(t, "Complete_NoAck"), canneal)
	spec.WarmupOps, spec.MeasureOps, spec.Audit = 3000, 3000, true
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Circ.EliminatedAcks == 0 || r.Msgs.Local[coherence.MsgDataAck] == 0 || r.Circ.CircuitsUndone == 0 ||
		r.Circ.UndoneElsewhere == 0 || r.Circ.UndoTokens == 0 {
		t.Fatalf("no eliminated acks, local acks, undone circuits, local undone replies or undo tokens to balance: %d, %d, %d, %d, %d",
			r.Circ.EliminatedAcks, r.Msgs.Local[coherence.MsgDataAck], r.Circ.CircuitsUndone, r.Circ.UndoneElsewhere, r.Circ.UndoTokens)
	}
	if b := booksOf(r); b.stalls == 0 {
		t.Fatal("no stall cycles to balance")
	}
	for i, bump := range []func(b *books){
		func(b *books) { b.msgs.Network[coherence.MsgL2Reply]++ },
		func(b *books) { b.circ.Replies[core.OutcomeUndone]++ },
		func(b *books) { b.circ.Replies[core.OutcomeEliminated]++ },
		func(b *books) { b.circ.CircuitsUndone++ },
		func(b *books) { b.circ.CircuitsBuilt++ },
		func(b *books) { b.stalls++ },
		func(b *books) { b.events.CreditsSent++ },
		func(b *books) { b.circ.UndoTokens++ },
	} {
		msgs, circ, events := r.Msgs, *r.Circ, r.Events
		b := booksOf(r)
		b.msgs, b.circ, b.events = &msgs, &circ, &events
		bump(&b)
		if err := balance(b); err == nil || !strings.Contains(err.Error(), Identities()[i]) {
			t.Errorf("bump %d balanced the books, or not only identity %d failed: %v", i, i, err)
		}
	}
}
