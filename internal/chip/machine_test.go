package chip

import (
	"strings"
	"testing"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
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

// workClasses are the kernel's tick classes, in the order Build first
// registers them: the routers, the NIs, each tile's L1 and L2, the memory
// controllers, then the cores.
var workClasses = [...]string{"router", "ni", "l1", "l2", "mc", "core"}

// workBudget pins, per 16-core golden row (workload/variant), the component
// ticks the sparse kernel spends in each class (workClasses) over the row's
// warm-up and measured phases.
var workBudget = map[string][len(workClasses)]int64{
	"micro/Baseline":             {17754, 5158, 318, 551, 45, 14862},
	"micro/Fragmented":           {16038, 5145, 319, 551, 44, 14862},
	"micro/Complete":             {16239, 5146, 319, 551, 45, 14862},
	"micro/Complete_NoAck":       {13165, 4452, 319, 368, 45, 14862},
	"micro/Reuse_NoAck":          {13156, 4487, 319, 368, 45, 14862},
	"micro/Timed_NoAck":          {16292, 5147, 319, 551, 44, 14862},
	"micro/Slack_1_NoAck":        {13174, 4511, 319, 377, 44, 14862},
	"micro/Slack_2_NoAck":        {12986, 4472, 319, 369, 44, 14862},
	"micro/Slack_4_NoAck":        {13038, 4483, 319, 374, 44, 14862},
	"micro/SlackDelay_1_NoAck":   {13174, 4511, 319, 377, 44, 14862},
	"micro/Postponed_1_NoAck":    {13186, 5017, 319, 377, 45, 14862},
	"micro/Ideal":                {15923, 5157, 319, 551, 44, 14862},
	"canneal/Baseline":           {22249, 6916, 402, 725, 95, 16823},
	"canneal/Fragmented":         {19729, 6909, 402, 725, 94, 16823},
	"canneal/Complete":           {20353, 6938, 402, 724, 94, 16823},
	"canneal/Complete_NoAck":     {16934, 6078, 402, 487, 94, 16823},
	"canneal/Reuse_NoAck":        {17005, 6131, 402, 487, 94, 16823},
	"canneal/Timed_NoAck":        {19967, 6933, 402, 725, 94, 16823},
	"canneal/Slack_1_NoAck":      {16325, 6048, 402, 480, 94, 16823},
	"canneal/Slack_2_NoAck":      {16085, 6008, 402, 474, 94, 16823},
	"canneal/Slack_4_NoAck":      {16263, 6032, 402, 472, 94, 16823},
	"canneal/SlackDelay_1_NoAck": {16311, 6058, 402, 480, 94, 16823},
	"canneal/Postponed_1_NoAck":  {16329, 6776, 402, 478, 94, 16823},
	"canneal/Ideal":              {19432, 6889, 402, 725, 94, 16823},
	"hotspot/Baseline":           {32844, 11862, 981, 1467, 42, 15126},
	"hotspot/Reuse_NoAck":        {28742, 11330, 983, 1190, 44, 15126},
	"hotspot/Timed_NoAck":        {32317, 12011, 976, 1466, 44, 15123},
	"micro/SDM":                  {29900, 7212, 321, 556, 46, 14863},
	"micro/SDM_2":                {21143, 6052, 319, 551, 46, 14862},
	"micro/SDM_8":                {46269, 7338, 321, 556, 46, 14863},
	"hotspot/SDM":                {56113, 18970, 990, 1496, 43, 15130},
	"micro/DynamicVC":            {16097, 5140, 319, 552, 44, 14862},
	"hotspot/DynamicVC":          {31368, 11995, 980, 1475, 44, 15125},
	"micro/Speculative":          {10360, 5103, 318, 550, 42, 14862},
	"micro/Probe_DejaVu":         {19838, 10726, 321, 555, 46, 14863},
	"canneal/Probe_DejaVu":       {25095, 14943, 402, 724, 96, 16823},
}

// TestKernelWorkPinned pins, class by class, the component ticks the sparse
// kernel spends on every 16-core golden row, as a run publishes them
// (kernel/work/ticks/<class>). The simulated results cannot see a component
// that ticks when it need not; these counts can, on any host, and say
// which class did. A change that wakes stalled cores, blocked L2 banks,
// cores in a compute run or controllers waiting out a latency again, or any
// other sleeper, moves its class up; one that sleeps more moves it down,
// and re-pins it. Recycling what a run is built in moves none of them.
func TestKernelWorkPinned(t *testing.T) {
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		name := row.workload + "/" + row.variant
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := workBudget[name]
			if !ok {
				t.Fatalf("no work budget pinned for %s", name)
			}
			r, err := Run(goldenSpec(row, t))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkGolden(t, row, r)
			for i, class := range workClasses {
				if got := r.Metrics.Value("kernel/work/ticks/" + class); got != want[i] {
					t.Errorf("%s: %d %s ticks, pinned %d", name, got, class, want[i])
				}
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
			// The empty kernel has no component to count awake, and ticks none.
			if err := Diff(want, got, kernelMetric); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBooksBalance: the audited 64-core canneal Complete_NoAck run, whose
// network counts alone miss an L1-to-L1 reply acked on its home tile, whose
// NIs hold replies back and offer them again, and whose owner on a line's
// home tile answers a forward for an undone circuit with a local Fwd_Miss
// (the bank's L2_Reply books the undone outcome), balances every
// identity; one data reply too many, one Figure-6 outcome too many, one
// eliminated outcome too many, one undone circuit too many, one built
// circuit too many, one stall cycle too many, one credit too many, one
// undo token too many or one link flit too many (charged its energy, so
// that only the flit identity sees it) does not.
func TestBooksBalance(t *testing.T) {
	canneal, _ := workload.ByName("canneal")
	spec := DefaultSpec(config.Chip64(), variant(t, "Complete_NoAck"), canneal)
	spec.WarmupOps, spec.MeasureOps, spec.Audit = 3000, 3000, true
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Circ.EliminatedAcks == 0 || r.Msgs.Local[coherence.MsgDataAck] == 0 || r.Circ.CircuitsUndone == 0 ||
		r.Msgs.Local[coherence.MsgFwdMiss] == 0 || r.Circ.UndoTokens == 0 {
		t.Fatalf("no eliminated acks, local acks, undone circuits, local Fwd_Misses or undo tokens to balance: %d, %d, %d, %d, %d",
			r.Circ.EliminatedAcks, r.Msgs.Local[coherence.MsgDataAck], r.Circ.CircuitsUndone,
			r.Msgs.Local[coherence.MsgFwdMiss], r.Circ.UndoTokens)
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
		func(b *books) {
			b.events.LinkFlits++
			b.dynamic += power.EventEnergy(&noc.PowerEvents{LinkFlits: 1})
		},
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
