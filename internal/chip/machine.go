package chip

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"time"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
	"reactivenoc/internal/recycle"
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
	// shell holds what the machine is built in: nil until build draws it.
	*shell

	spec    Spec
	tr      *trace.Buffer
	inj     *fault.Injector
	rec     *tracefeed.Recorder
	suite   *verify.Suite
	sampler *sim.Sampler

	phase                       string
	horizon, stall, verifyEvery sim.Cycle
	// clean is set once Finish has returned nil: Release files the shell
	// only then.
	clean        bool
	wallDeadline time.Time
	measureStart sim.Cycle
}

// shellKey is everything a machine shell is built from, compared exactly:
// the mesh, which fixes the core count, the memory controllers, and the
// variant's options.
type shellKey struct {
	m    mesh.Mesh
	mcs  int
	opts core.Options
}

// shell is the memory a machine that finished cleanly leaves to the next
// build of its inputs (DESIGN.md §4.11): its system, kernel, cores, their
// synthetic streams and prefill regions, and the metrics registry, whose
// every counter and gauge is bound to the shell's objects, so it is
// described once per shell. A build rebuilds each part in place.
type shell struct {
	key     shellKey
	sys     *coherence.System
	kernel  *sim.Kernel
	cores   []*cpu.Core
	streams []cpu.Stream
	wakers  []sim.Waker
	regions [][]workload.Region
	reg     *sim.Registry
	// done counts done-transitions so the end-of-phase predicate is an
	// integer compare instead of an O(cores) scan every cycle; Sys.Busy()
	// (which walks the whole machine) only runs in the drain tail after
	// the last core finishes. onDone, every core's done sink, bumps it.
	done   int
	onDone func()
}

// shells holds the shells of cleanly finished machines, shared by every
// RunCtx of the process like the cache free lists.
var shells recycle.List[shellKey, *shell]

// drawShell returns a shell of key's inputs a finished machine left or,
// with none or under opts.NoPool, a new one.
func drawShell(key shellKey) *shell {
	if !key.opts.NoPool {
		if sh, ok := shells.Get(key); ok {
			return sh
		}
	}
	sh := &shell{key: key}
	sh.onDone = func() { sh.done++ }
	return sh
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
	sh := drawShell(shellKey{geom, spec.Chip.MCs, opts})
	m.shell = sh
	sh.done = 0
	sh.regions = recycle.Slice(sh.regions, n)
	regions := sh.regions
	if feed != nil {
		// The trace owns its regions; the shell's slices stay its own.
		regions = make([][]workload.Region, n)
	}
	for i := range regions {
		if feed != nil {
			regions[i] = feed.CoreRegions(i)
		} else {
			regions[i] = spec.Workload.AppendRegions(regions[i][:0], i)
		}
	}
	m.Sys = images.build(recycle.Object(&sh.sys), geom, opts, spec.Chip.MCs, regions)
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
	sh.cores = recycle.Slice(sh.cores, n)
	sh.streams = recycle.Slice(sh.streams, n)
	for i := range sh.cores {
		var st cpu.Stream
		if feed != nil {
			st = feed.Stream(i)
		} else {
			sh.streams[i] = spec.Workload.StreamOver(sh.streams[i], i, geom.Width, geom.Height, spec.Seed)
			st = sh.streams[i]
		}
		c := recycle.Object(&sh.cores[i]).Init(i, sys.L1s[i], st, limit)
		if m.rec != nil {
			c.SetRecorder(m.rec)
		}
		c.SetDoneSink(sh.onDone)
	}

	// Registration order replicates the seed engine's tick order exactly:
	// the system (routers, NIs, per-tile L1/L2, MCs), then the cores.
	k := recycle.Object(&sh.kernel).Init()
	k.SetDense(spec.DenseKernel)
	sys.Register(k)
	k.Class("core")
	sh.wakers = recycle.Slice(sh.wakers, n)
	for i, c := range sh.cores {
		sh.wakers[i] = k.Add(c)
		c.SetWaker(sh.wakers[i])
	}
	if sh.reg == nil {
		sh.describe()
	}

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

// describe builds the shell's registry: the system's and cores' counters,
// the open-circuit and awake-component gauges, and each kernel tick class's
// work as kernel/work/ticks/<class>. Every function it registers reads
// through the shell, so the registry stays bound to whatever a rebuild
// leaves in it.
func (sh *shell) describe() {
	reg := sim.NewRegistry()
	sh.sys.DescribeMetrics(reg)
	for _, c := range sh.cores {
		c.Describe(reg)
	}
	if sh.sys.Mgr != nil {
		reg.Gauge("circ/open", func() int64 { return sh.sys.Mgr.OpenCircuits(sh.kernel.Now()) })
	}
	reg.Gauge("kernel/active", func() int64 { return int64(sh.kernel.ActiveCount()) })
	for _, class := range sh.kernel.Classes() {
		reg.CounterAt("kernel/work/ticks/"+class, func(sim.Cycle) int64 { return sh.kernel.ClassTicks(class) })
	}
	sh.reg = reg
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
	if m.shell != nil && m.kernel != nil {
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
		b := books{msgs: &m.Sys.Msgs}
		if m.Sys.Mgr != nil {
			b.circ = &m.Sys.Mgr.Stats
		}
		for _, c := range m.cores {
			b.stalls += c.StallCycles
		}
		for _, l1 := range m.Sys.L1s {
			b.missCycles += l1.MissCycles
		}
		b.events = m.Sys.Net.Events()
		b.unbufferedCircuits = m.Sys.Net.Config().CircuitVCUnbuffered
		b.dynamic = power.NetworkEnergy(b.events, len(m.cores), m.spec.Variant.Opts, 0).Dynamic
		if err := cmp.Or(m.Sys.AuditQuiescent(now), balance(b)); err != nil {
			return m.runErr("post-run audit failed: "+err.Error(), false)
		}
	}
	m.clean = true
	return nil
}

// books are the counters the identities read: the message mix, the
// circuit statistics (nil without a circuit layer), Σ core StallCycles,
// Σ L1 MissCycles, the network's power events, the dynamic energy charged
// for them (picojoules), and whether the circuit VC has no buffer.
type books struct {
	msgs               *coherence.MsgStats
	circ               *core.Stats
	stalls, missCycles int64
	events             *noc.PowerEvents
	dynamic            float64
	unbufferedCircuits bool
}

// booksOf reads a finished run's books from its Results.
func booksOf(r *Results) books {
	b := books{msgs: &r.Msgs, circ: r.Circ, missCycles: r.Metrics.Value("l1/miss_cycles"),
		events: &r.Events, dynamic: r.Energy.Dynamic,
		unbufferedCircuits: core.NetConfigFor(mesh.Mesh{}, r.Spec.Variant.Opts).CircuitVCUnbuffered}
	for _, c := range r.Cores {
		b.stalls += c.StallCycles
	}
	return b
}

// identities are the books: exact accounting identities every audited run
// balances over its counters. The warm-up runs until the machine is idle,
// so no transaction straddles BeginMeasured and no side needs an
// in-flight term. An identity over the circuit layer's counts (circuits)
// holds only in a run that has one.
var identities = []struct {
	name     string
	circuits bool
	sides    func(b books) (int64, int64)
}{
	// An L1-to-L1 reply to a requestor on the line's home tile is acked
	// without crossing the network, so both sides count local messages.
	{"every data reply needs exactly one ack, sent or eliminated", false,
		func(b books) (int64, int64) {
			sent := func(t coherence.MsgType) int64 { return b.msgs.Network[t] + b.msgs.Local[t] }
			return sent(coherence.MsgL2Reply) + sent(coherence.MsgL1ToL1),
				sent(coherence.MsgDataAck) + b.circ.EliminatedAcks
		}},
	// The manager classifies a reply when its NI first lets it leave:
	// its own circuit (circuit, failed, undone), a borrowed one
	// (scrounger) or none (not-eligible). A reply the NI holds back and
	// offers again, and a scrounger's continuation leg, arrive marked
	// Classified and are not counted twice; local replies never reach an
	// NI, and setup probes are not coherence messages.
	{"every reply that enters the network lands in exactly one Figure-6 outcome", true,
		func(b books) (int64, int64) {
			var entered, landed int64
			for t, n := range b.msgs.Network {
				if coherence.MsgType(t).IsReply() {
					entered += n
				}
			}
			for o := core.OutcomeCircuit; o <= core.OutcomeNotEligible; o++ {
				landed += b.circ.Replies[o]
			}
			return entered, landed
		}},
	{"every eliminated ack is the eliminated Figure-6 outcome", true,
		func(b books) (int64, int64) {
			return b.circ.EliminatedAcks, b.circ.Replies[core.OutcomeEliminated]
		}},
	// A built circuit is undone past its timed window, where its own reply
	// lands as the undone outcome, or by the protocol (Manager.Undo), where
	// the first reply to leave an NI for that request without a circuit of
	// its own does: the owner's L1-to-L1 data or, when the owner had
	// dropped the line, the bank's L2_Reply. A Partial policy's fragments
	// that never completed are not a circuit, so neither side counts them.
	{"every undone circuit is one undone reply", true,
		func(b books) (int64, int64) {
			return b.circ.CircuitsUndone, b.circ.Replies[core.OutcomeUndone]
		}},
	// A built circuit ends carrying its own reply (the circuit outcome)
	// or undone. The audit finds no record live at quiescence, so there
	// is no third term.
	{"every built circuit is used or undone, none left live", true,
		func(b books) (int64, int64) {
			return b.circ.CircuitsBuilt, b.circ.Replies[core.OutcomeCircuit] + b.circ.CircuitsUndone
		}},
	// A core stalls from its miss's access to the cycle its L1 completes
	// the miss, and those are the L1's own access and fill cycles, so the
	// core's StallCycles and an L1 access-to-fill sum would be one
	// variable. The L1 side is instead taken when the data reply is
	// delivered: the access-latency cycle it is scheduled for, less the
	// access. It balances only if every data reply is handled in exactly
	// the cycle it was scheduled for and the core is credited to the cycle.
	{"every core stall cycle is an L1 miss waiting for its data", false,
		func(b books) (int64, int64) { return b.stalls, b.missCycles }},
	// Figure 8's dynamic energy, as power.NetworkEnergy groups it into
	// components, against every event counter charged its own unit cost
	// (power.EventCosts), in hundredths of a picojoule: every cost is a
	// whole number of them, so rounding leaves both sides exact.
	{"dynamic energy is every network event at its unit cost", false,
		func(b books) (int64, int64) {
			return centiPJ(b.dynamic), centiPJ(power.EventEnergy(b.events))
		}},
	// A flit that leaves an input VC with a buffer returns its slot to the
	// upstream counter: every buffer read, and every bypass departure
	// unless it arrived on the complete mechanism's unbuffered circuit VC,
	// the only unbuffered VC a flit can arrive on. The credit wires also
	// carry the undo tokens, each counted where a router hands it to the
	// manager. Nothing is in flight at quiescence.
	{"every buffered departure returns one credit", false,
		func(b books) (int64, int64) {
			departures := b.events.XbarTraversals
			if b.unbufferedCircuits {
				departures = b.events.BufReads
			}
			return departures + b.circ.UndoTokens, b.events.CreditsSent
		}},
	// A flit crosses a link when its NI injects it and at every hop from
	// router to router (LinkFlits), and a crossbar at every such hop and
	// when its last router ejects it (XbarTraversals): with nothing in
	// flight, every injection has its ejection.
	{"every injected flit is ejected", false,
		func(b books) (int64, int64) { return b.events.LinkFlits, b.events.XbarTraversals }},
}

// centiPJ rounds picojoules to hundredths; NaN (an event counter without
// a cost) is -1, which no energy is.
func centiPJ(pj float64) int64 {
	if math.IsNaN(pj) {
		return -1
	}
	return int64(math.Round(pj * 100))
}

// Identities names every identity an audited run balances.
func Identities() []string {
	names := make([]string, len(identities))
	for i, id := range identities {
		names[i] = id.name
	}
	return names
}

// balance checks every identity over a run's books, naming the first that
// does not hold.
func balance(b books) error {
	circuits := b.circ != nil
	if !circuits {
		b.circ = &core.Stats{}
	}
	for _, id := range identities {
		if id.circuits && !circuits {
			continue
		}
		if lhs, rhs := id.sides(b); lhs != rhs {
			return fmt.Errorf("books: %s: %d != %d", id.name, lhs, rhs)
		}
	}
	return nil
}

// Harvest returns the run's measurements, taken at the current cycle with
// the measured phase starting where BeginMeasured left it.
func (m *Machine) Harvest() *Results {
	sys, spec, now, n := m.Sys, m.spec, m.kernel.Now(), len(m.cores)
	res := &Results{Spec: spec, Cores: make([]CoreStats, 0, n)}
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
// Finish returned nil and the variant is not NoPool, files its shell for
// the next build of the same inputs; a failed, cancelled or panicked run
// leaves its shell to the GC. The machine must not be used afterwards: a
// Results harvested from it holds copies, never pointers into the shell.
// RunCtx calls it on every exit, after a failure's diagnostic dump and a
// success's Harvest have read the machine.
func (m *Machine) Release() {
	if m.Sys == nil {
		return
	}
	m.Sys.Release()
	if m.clean && !m.spec.Variant.Opts.NoPool {
		shells.Put(m.key, m.shell)
	}
}
