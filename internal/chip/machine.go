package chip

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/power"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// watchdogStall is how long the cores may collectively retire nothing
// before the run is declared deadlocked. Memory round trips under heavy
// line-blocking contention reach a few thousand cycles; an order of
// magnitude above that is unambiguous.
const watchdogStall sim.Cycle = 50_000

// diagTraceCap is the trace tail retained for fault-armed runs that did
// not ask for tracing themselves, so a chaos failure still carries its
// last lifecycle events.
const diagTraceCap = 48

// checkEvery is how often (in cycles) a run polls its context and
// wall-clock deadline; cancellation latency stays under a millisecond of
// simulation work.
const checkEvery = 2048

// Machine is one assembled chip and the state its run's phases share.
// RunCtx drives it from Build to Harvest; it can equally be stepped by
// hand, one cycle at a time, with Step and Done.
type Machine struct {
	// Sys is the simulated system: network, circuit manager, caches,
	// coherence and memory controllers.
	Sys *coherence.System

	spec   Spec
	kernel *sim.Kernel
	cores  []*cpu.Core
	wakers []sim.Waker
	// done counts done-transitions so the end-of-phase predicate is an
	// integer compare instead of an O(cores) scan every cycle; Sys.Busy()
	// (which walks the whole machine) only runs in the drain tail after
	// the last core finishes.
	done int

	reg     *sim.Registry
	tr      *trace.Buffer
	inj     *fault.Injector
	rec     *tracefeed.Recorder
	suite   *verify.Suite
	sampler *sim.Sampler

	phase                       string
	horizon, stall, verifyEvery sim.Cycle
	// clean is set once Finish has returned nil: Release recycles the
	// system's shell only then.
	clean        bool
	wallDeadline time.Time
	measureStart sim.Cycle
}

// Build assembles the machine spec describes and leaves it at cycle 0,
// its cores armed for the first phase. Input no run could honour — a spec
// Validate rejects, a bad or mismatched trace — is a plain error, and
// nothing is built.
func Build(spec Spec) (*Machine, error) {
	m := &Machine{spec: spec}
	if err := m.build(); err != nil {
		return nil, err
	}
	return m, nil
}

// build is Build on a machine RunCtx already holds, so that a panic part
// way through still finds what was built for its diagnostics and Release.
func (m *Machine) build() error {
	spec := m.spec
	m.phase = "setup"
	if err := spec.Validate(); err != nil {
		return err
	}
	geom := mesh.New(spec.Chip.Width, spec.Chip.Height)
	n := geom.Nodes()

	// A trace-driven workload replays a recorded run: the file supplies
	// the prefill regions and each core's exact operation sequence, and
	// the spec's phase budgets must match the recording's or the cores'
	// retirement limits would slice the stream differently. It is loaded
	// and checked before anything is built, so a bad trace costs no chip.
	var feed *tracefeed.Trace
	if spec.Workload.TracePath != "" {
		var crc uint32
		var err error
		feed, crc, err = tracefeed.Load(spec.Workload.TracePath)
		if err != nil {
			return fmt.Errorf("chip: %w", err)
		}
		if spec.Workload.TraceCRC != 0 && spec.Workload.TraceCRC != crc {
			return fmt.Errorf("chip: trace %s has CRC %08x, spec pinned %08x",
				spec.Workload.TracePath, crc, spec.Workload.TraceCRC)
		}
		if feed.Cores() != n {
			return fmt.Errorf("chip: trace %s recorded %d cores, chip %s has %d",
				spec.Workload.TracePath, feed.Cores(), spec.Chip.Name, n)
		}
		if feed.WarmupOps != spec.WarmupOps || feed.MeasureOps != spec.MeasureOps {
			return fmt.Errorf("chip: trace %s recorded %d+%d ops/core, spec asks %d+%d",
				spec.Workload.TracePath, feed.WarmupOps, feed.MeasureOps, spec.WarmupOps, spec.MeasureOps)
		}
	}

	opts := spec.Variant.Opts
	opts.NoPool = opts.NoPool || spec.NoPool
	regions := make([][]workload.Region, n)
	for i := range regions {
		if feed != nil {
			regions[i] = feed.CoreRegions(i)
		} else {
			regions[i] = spec.Workload.Regions(i)
		}
	}
	m.Sys = images.build(geom, opts, spec.Chip.MCs, regions)
	sys := m.Sys

	// A diagnostic tracer rides along whenever the caller asked for one or
	// armed the fault injector, so failures carry a bounded trace tail.
	traceCap := spec.TraceCap
	if traceCap <= 0 && spec.Fault != nil {
		traceCap = diagTraceCap
	}
	if traceCap > 0 {
		m.tr = trace.New(traceCap)
		sys.Net.SetTracer(m.tr)
		if sys.Mgr != nil {
			sys.Mgr.SetTracer(m.tr)
		}
	}

	if spec.Fault != nil {
		m.inj = fault.New(*spec.Fault)
		sys.SetFaultHook(m.inj)
		sys.Net.SetFaultHook(m.inj)
		if sys.Mgr != nil {
			sys.Mgr.SetFaultHook(m.inj)
		}
	}

	if spec.RecordTrace != "" {
		m.rec = tracefeed.NewRecorder(spec.Workload, n, spec.Seed, spec.WarmupOps, spec.MeasureOps)
	}

	limit := spec.WarmupOps
	if limit <= 0 {
		limit = spec.MeasureOps
	}
	m.cores = make([]*cpu.Core, n)
	for i := range m.cores {
		var st cpu.Stream
		if feed != nil {
			st = feed.Stream(i)
		} else {
			st = spec.Workload.StreamGeom(i, geom.Width, geom.Height, spec.Seed)
		}
		c := cpu.New(i, sys.L1s[i], st, limit)
		if m.rec != nil {
			c.SetRecorder(m.rec)
		}
		c.SetDoneSink(func() { m.done++ })
		m.cores[i] = c
	}

	// Registration order replicates the seed engine's tick order exactly:
	// the system (routers, NIs, per-tile L1/L2, MCs), then the cores.
	m.kernel = sim.NewKernel()
	m.kernel.SetDense(spec.DenseKernel)
	// Each tile registers its router, NI, L1, L2 and core; then the MCs.
	m.kernel.Reserve(5*n + len(sys.MCs))
	sys.Register(m.kernel)
	m.wakers = make([]sim.Waker, n)
	for i, c := range m.cores {
		m.wakers[i] = m.kernel.Add(c)
		c.SetWaker(m.wakers[i])
	}

	m.reg = sim.NewRegistry()
	sys.DescribeMetrics(m.reg)
	for _, c := range m.cores {
		c.Describe(m.reg)
	}
	if sys.Mgr != nil {
		m.reg.Gauge("circ/open", func() int64 { return sys.Mgr.OpenCircuits(m.kernel.Now()) })
	}
	m.reg.Gauge("kernel/active", func() int64 { return int64(m.kernel.ActiveCount()) })

	m.horizon = spec.Horizon
	if m.horizon == 0 {
		m.horizon = sim.Cycle(spec.WarmupOps+spec.MeasureOps)*220 + 1_000_000
	}
	m.stall = spec.WatchdogStall
	if m.stall <= 0 {
		m.stall = watchdogStall
	}
	if spec.Timeout > 0 {
		m.wallDeadline = time.Now().Add(spec.Timeout)
	}

	// The oracle suite samples the machine on its own cadence, below the
	// watchdog threshold so a structural deadlock is diagnosed as a
	// waits-for cycle before the watchdog can blame generic "no progress".
	if spec.Verify {
		m.verifyEvery = spec.VerifyEvery
		if m.verifyEvery <= 0 {
			m.verifyEvery = 128
		}
		m.suite = verify.NewSuite(verify.Config{Sys: sys, ProgressStall: m.stall / 2})
	}
	return nil
}

// runErr builds the structured failure for the current phase with the
// diagnostic dump, trace tail and injected-fault log attached.
func (m *Machine) runErr(msg string, panicked bool) *RunError {
	s := &m.spec
	e := &RunError{
		Phase: m.phase, Chip: s.Chip.Name, Variant: s.Variant.Name,
		Workload: s.Workload.Name, Seed: s.Seed,
		Msg: msg, Panicked: panicked,
	}
	if m.kernel != nil {
		e.Cycle = m.kernel.Now()
	}
	if m.Sys != nil {
		e.Diag = m.Sys.Net.DumpState()
		if m.Sys.Mgr != nil {
			e.Diag += m.Sys.Mgr.DumpCircuits(e.Cycle)
		}
	}
	if m.tr != nil {
		e.TraceTail = m.tr.Events()
	}
	if m.inj != nil {
		e.Faults = m.inj.Events()
	}
	return e
}

// oracleErr is runErr for a violation the oracle suite caught.
func (m *Machine) oracleErr(v *verify.Violation) *RunError {
	e := m.runErr(v.Msg, false)
	e.Oracle = v.Oracle
	return e
}

// Done reports whether every core has finished its phase and the machine
// has drained.
func (m *Machine) Done() bool { return m.done == len(m.cores) && !m.Sys.Busy() }

// Step advances one cycle: the kernel's step, the sampler's poll, and the
// oracle suite at its cadence, whose violation is the returned *RunError.
func (m *Machine) Step() error {
	m.kernel.Step()
	now := m.kernel.Now()
	if m.sampler != nil {
		m.sampler.Poll(now)
	}
	if m.suite != nil && now%m.verifyEvery == 0 {
		if v := m.suite.Check(now); v != nil {
			return m.oracleErr(v)
		}
	}
	return nil
}

// RunPhase steps until Done. Every checkEvery cycles it polls ctx, the
// wall-clock deadline and a forward-progress watchdog: no operation
// retired for the stall limit is a deadlock. A phase that outlasts the
// horizon fails too; every failure is a *RunError naming the phase.
func (m *Machine) RunPhase(ctx context.Context, name string) error {
	m.phase = name
	k := m.kernel
	deadline := k.Now() + m.horizon
	lastRetired, lastProgress := int64(-1), k.Now()
	for !m.Done() {
		if k.Now() >= deadline {
			return m.runErr(fmt.Sprintf("did not finish within %d cycles", m.horizon), false)
		}
		if k.Now()%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return m.runErr("canceled: "+err.Error(), false)
			}
			if !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
				return m.runErr(fmt.Sprintf("exceeded wall-clock timeout %v", m.spec.Timeout), false)
			}
			var retired int64
			for _, c := range m.cores {
				retired += c.RetiredAt(k.Now())
			}
			if retired != lastRetired {
				lastRetired, lastProgress = retired, k.Now()
			} else if k.Now()-lastProgress > m.stall {
				return m.runErr(fmt.Sprintf("no progress for %d cycles (deadlock?)", m.stall), false)
			}
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// BeginMeasured is the measured reset: after a warm-up it clears the
// system's statistics, then re-arms and wakes every core for
// Spec.MeasureOps, and starts the sampler's windows at this cycle.
func (m *Machine) BeginMeasured() {
	if m.spec.WarmupOps > 0 {
		m.Sys.ResetStats()
	}
	m.done = 0
	for i, c := range m.cores {
		c.ResetStats(m.spec.MeasureOps)
		m.wakers[i].Wake()
	}
	start := m.kernel.Now()
	m.measureStart = start
	if m.spec.SampleEvery > 0 {
		m.sampler = sim.NewSampler(m.reg, m.spec.SampleEvery, start)
		if on := m.spec.OnSample; on != nil {
			m.sampler.OnWindow = func(snap sim.Snapshot) {
				snap.At -= start
				on(snap)
			}
		}
	}
}

// Finish closes the measured phase: the sampler's last window, then the
// quiescence oracles and the post-run audit, when the spec armed them.
func (m *Machine) Finish() error {
	now := m.kernel.Now()
	if m.sampler != nil {
		m.sampler.Flush(now)
	}
	if m.suite != nil {
		m.phase = "audit"
		if v := m.suite.CheckQuiescent(now); v != nil {
			return m.oracleErr(v)
		}
	}
	if m.spec.Audit {
		m.phase = "audit"
		var circ *core.Stats
		if m.Sys.Mgr != nil {
			circ = &m.Sys.Mgr.Stats
		}
		partial := core.TraitsFor(m.spec.Variant.Opts).Partial
		if err := cmp.Or(m.Sys.AuditQuiescent(now), balance(&m.Sys.Msgs, circ, partial)); err != nil {
			return m.runErr("post-run audit failed: "+err.Error(), false)
		}
	}
	m.clean = true
	return nil
}

// identities are the books: exact accounting identities every audited run
// balances over its counters. The warm-up runs until the machine is idle,
// so no transaction straddles BeginMeasured and no side needs an
// in-flight term. An identity over the circuit layer's counts (circuits)
// holds only in a run that has one, and one over whole circuits (whole)
// only where a circuit is all-or-nothing (not core.Traits.Partial).
var identities = []struct {
	name            string
	circuits, whole bool
	sides           func(msgs *coherence.MsgStats, circ *core.Stats) (int64, int64)
}{
	// An L1-to-L1 reply to a requestor on the line's home tile is acked
	// without crossing the network, so both sides count local messages.
	{"every data reply needs exactly one ack, sent or eliminated", false, false,
		func(m *coherence.MsgStats, circ *core.Stats) (int64, int64) {
			sent := func(t coherence.MsgType) int64 { return m.Network[t] + m.Local[t] }
			return sent(coherence.MsgL2Reply) + sent(coherence.MsgL1ToL1),
				sent(coherence.MsgDataAck) + circ.EliminatedAcks
		}},
	// The manager classifies a reply when its NI first lets it leave:
	// its own circuit (circuit, failed, undone), a borrowed one
	// (scrounger) or none (not-eligible). A reply the NI holds back and
	// offers again, and a scrounger's continuation leg, arrive marked
	// Classified and are not counted twice; local replies never reach an
	// NI, and setup probes are not coherence messages.
	{"every reply that enters the network lands in exactly one Figure-6 outcome", true, false,
		func(m *coherence.MsgStats, circ *core.Stats) (int64, int64) {
			var entered, landed int64
			for t, n := range m.Network {
				if coherence.MsgType(t).IsReply() {
					entered += n
				}
			}
			for o := core.OutcomeCircuit; o <= core.OutcomeNotEligible; o++ {
				landed += circ.Replies[o]
			}
			return entered, landed
		}},
	{"every eliminated ack is the eliminated Figure-6 outcome", true, false,
		func(m *coherence.MsgStats, circ *core.Stats) (int64, int64) {
			return circ.EliminatedAcks, circ.Replies[core.OutcomeEliminated]
		}},
	// A built circuit ends carrying its own reply (the circuit outcome)
	// or undone: by the protocol (Manager.Undo) or past its timed window.
	// The audit finds no record live at quiescence, so there is no third
	// term. Under Partial policies Undo also counts a fragment set that
	// never completed, which CircuitsBuilt does not, so they are exempt.
	{"every built circuit is used or undone, none left live", true, true,
		func(m *coherence.MsgStats, circ *core.Stats) (int64, int64) {
			return circ.CircuitsBuilt, circ.Replies[core.OutcomeCircuit] + circ.CircuitsUndone
		}},
}

// Identities names every identity an audited run balances.
func Identities() []string {
	names := make([]string, len(identities))
	for i, id := range identities {
		names[i] = id.name
	}
	return names
}

// balance checks every identity over a run's message counts and circuit
// statistics (nil without a circuit layer), naming the first that does not
// hold; partial reports a policy whose circuits may be fragments.
func balance(msgs *coherence.MsgStats, circ *core.Stats, partial bool) error {
	var none core.Stats
	for _, id := range identities {
		if id.whole && partial {
			continue
		}
		c := circ
		if c == nil {
			if id.circuits {
				continue
			}
			c = &none
		}
		if lhs, rhs := id.sides(msgs, c); lhs != rhs {
			return fmt.Errorf("books: %s: %d != %d", id.name, lhs, rhs)
		}
	}
	return nil
}

// Harvest returns the run's measurements, taken at the current cycle with
// the measured phase starting where BeginMeasured left it.
func (m *Machine) Harvest() *Results {
	sys, spec, now, n := m.Sys, m.spec, m.kernel.Now(), len(m.cores)
	res := &Results{Spec: spec}
	var lastFinish sim.Cycle
	for _, c := range m.cores {
		if c.FinishedAt > lastFinish {
			lastFinish = c.FinishedAt
		}
		res.Cores = append(res.Cores, CoreStats{
			Retired:     c.Retired,
			Loads:       c.Loads,
			Stores:      c.Stores,
			Misses:      c.Misses,
			StallCycles: c.StallCycles,
			FinishedAt:  c.FinishedAt,
		})
	}
	res.Cycles = lastFinish - m.measureStart
	if res.Cycles <= 0 {
		res.Cycles = now - m.measureStart
	}

	res.Msgs = sys.Msgs
	res.Lat = sys.Lat
	if sys.Mgr != nil {
		st := sys.Mgr.Stats
		res.Circ = &st
	}
	res.Events = *sys.Net.Events()
	res.Energy = power.NetworkEnergy(&res.Events, n, spec.Variant.Opts, int64(res.Cycles))
	res.AreaSavings = power.AreaSavings(n, spec.Variant.Opts)

	// The cache-layer scalars come from the registry snapshot: every
	// controller registered its counters once at construction, replacing
	// the per-field harvest loop of the original engine.
	res.SimCycles = now
	res.Metrics = m.reg.Snapshot(now)
	res.L1Hits = res.Metrics.Value("l1/hits")
	res.L1Misses = res.Metrics.Value("l1/misses")
	res.L2Hits = res.Metrics.Value("l2/hits")
	res.L2Misses = res.Metrics.Value("l2/misses")
	if m.sampler != nil {
		res.Series = m.sampler.Samples()
		for i := range res.Series {
			res.Series[i].At -= m.measureStart
		}
	}
	if res.Cycles > 0 {
		res.InjRate = float64(res.Events.LinkFlits) / float64(res.Cycles) / float64(n)
	}
	if spec.TraceCap > 0 && m.tr != nil {
		res.Trace = m.tr.Events()
	}
	if m.inj != nil {
		res.Faults = m.inj.Events()
	}
	return res
}

// Release hands the machine's cache arrays to the next run and, when
// Finish returned nil, the rest of its system too (coherence.System.Recycle);
// a failed, cancelled or panicked run leaves its shell to the GC. The
// machine must not be used afterwards. RunCtx calls it on every exit,
// after a failure's diagnostic dump and a success's Harvest have read the
// machine.
func (m *Machine) Release() {
	switch {
	case m.Sys == nil:
	case m.clean:
		m.Sys.Recycle()
	default:
		m.Sys.Release()
	}
}
