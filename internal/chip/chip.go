// Package chip assembles the full simulated machine — network, circuit
// manager, caches, coherence controllers, memory controllers and cores —
// and runs measured experiments on it. Every table and figure of the
// evaluation is regenerated from the Results this package produces.
package chip

import (
	"context"
	"fmt"
	"time"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	Chip     config.Chip
	Variant  config.Variant
	Workload workload.Profile

	// WarmupOps and MeasureOps are retired operations per core: the
	// warm-up fills the caches without statistics (the paper warms for
	// 200M cycles), then the measured phase runs to completion.
	WarmupOps  int64
	MeasureOps int64

	Seed uint64
	// Horizon caps the run (cycles); 0 selects a generous default.
	Horizon sim.Cycle
	// TraceCap, when positive, attaches a lifecycle tracer retaining the
	// last TraceCap events (returned in Results.Trace).
	TraceCap int
	// Audit runs every conservation and coherence audit after the run
	// (leaked circuit entries, unreturned credits, directory soundness)
	// and fails the run on any violation.
	Audit bool

	// Verify arms the online invariant oracles (internal/verify) inside
	// the cycle loop: credit and flit conservation, per-VC order, circuit
	// table legality, registry/table cross-checks, circuit leaks, the
	// single-writer coherence invariant, and a waits-for-graph deadlock
	// detector that fires before the watchdog. A violation fails the run
	// with RunError.Oracle naming the detector. Off by default: the
	// measured hot path pays nothing for the machinery.
	Verify bool
	// VerifyEvery is the oracle cadence in cycles when Verify is set
	// (0 = a default of 128). Fault-injection tests run at 1 so a
	// corruption is caught on the boundary it appears.
	VerifyEvery sim.Cycle

	// Timeout caps the run's wall-clock time (0 = none); an exceeded run
	// returns a *RunError instead of hogging its sweep worker.
	Timeout time.Duration
	// WatchdogStall overrides the forward-progress watchdog threshold in
	// cycles (0 = the package default).
	WatchdogStall sim.Cycle
	// Fault, when non-nil, arms the deterministic fault injector for
	// chaos runs; injections are reported in Results.Faults or, when the
	// corruption is caught, in RunError.Faults.
	Fault *fault.Plan

	// SampleEvery, when positive, records a metrics-registry snapshot
	// every SampleEvery cycles of the measured phase (Results.Series):
	// per-window counter deltas plus end-of-window gauge levels.
	SampleEvery sim.Cycle
	// OnSample, when non-nil, observes each recorded window as it closes,
	// with At already rebased to the measured-phase start — the seam the
	// simulation service streams live progress from. Observers run on the
	// simulation goroutine and must not block; they never affect results
	// and are excluded from Fingerprint.
	OnSample func(sim.Snapshot) `json:"-"`
	// DenseKernel disables the activity tracker, ticking every component
	// every cycle — the reference scheduling the golden determinism suite
	// cross-checks against.
	DenseKernel bool
	// NoPool disables flit/message recycling and builds the cache arrays
	// fresh, releasing nothing (see core.Options.NoPool): the reference
	// allocation behaviour the pooled hot path and the recycled arrays are
	// cross-checked against. Results are bit-identical either way.
	NoPool bool

	// RecordTrace, when set, dumps the run's per-core instruction streams
	// to this path as a replayable binary trace (internal/tracefeed). The
	// recorder is purely passive — a recorded run is bit-identical to an
	// unrecorded one — so the knob is an observer like OnSample, excluded
	// from Fingerprint (json:"-"): result caches never split on it.
	RecordTrace string `json:"-"`
}

// DefaultSpec returns a spec with sane defaults for the given chip,
// variant and workload: warm-up long enough to touch the working set a few
// times (the paper warms caches for 200M cycles before measuring).
func DefaultSpec(c config.Chip, v config.Variant, w workload.Profile) Spec {
	return Spec{
		Chip: c, Variant: v, Workload: w,
		WarmupOps:  3000,
		MeasureOps: 12000,
		Seed:       1,
	}
}

// Validate rejects a spec no run could honour — a non-positive budget, a
// malformed workload, an inconsistent variant, an empty chip — as a plain
// error, before anything is built: past this point a panic means a bug in
// the simulated machine, not bad input.
func (s *Spec) Validate() error {
	if s.MeasureOps <= 0 {
		return fmt.Errorf("chip: MeasureOps must be positive")
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("chip: %w", err)
	}
	if err := s.Variant.Opts.Validate(); err != nil {
		return fmt.Errorf("chip: variant %s: %w", s.Variant.Name, err)
	}
	if c := s.Chip; c.Width <= 0 || c.Height <= 0 || c.MCs <= 0 {
		return fmt.Errorf("chip: %dx%d mesh with %d memory controllers (all must be positive)", c.Width, c.Height, c.MCs)
	}
	return nil
}

// CoreStats summarizes one core's measured phase.
type CoreStats struct {
	Retired     int64
	Loads       int64
	Stores      int64
	Misses      int64
	StallCycles int64
	FinishedAt  sim.Cycle
}

// Results carries everything the evaluation needs from one run.
type Results struct {
	Spec Spec

	// Cycles is the measured-phase makespan: the cycle the last core
	// retired its final operation, minus the warm-up boundary.
	Cycles sim.Cycle

	Cores []CoreStats

	Msgs coherence.MsgStats
	Lat  coherence.LatencyStats
	// Circ holds the circuit-mechanism statistics (nil for baseline).
	Circ *core.Stats

	Events noc.PowerEvents
	Energy power.Energy
	// AreaSavings is the router-area delta vs the baseline router.
	AreaSavings float64

	L1Hits, L1Misses int64
	L2Hits, L2Misses int64

	// InjRate is flits per node per cycle, the network-load measure the
	// paper quotes ("less than four flits every 100 cycles").
	InjRate float64

	// SimCycles is the total simulated cycle count including warm-up —
	// the denominator for host-throughput metrics (sim_cycles/sec).
	SimCycles sim.Cycle

	// Metrics is the final metrics-registry snapshot of the run; Results'
	// scalar cache fields above are harvested from it.
	Metrics sim.Snapshot
	// Series holds the per-window snapshots recorded when
	// Spec.SampleEvery > 0, with At rebased to the measured-phase start.
	Series []sim.Snapshot

	// Trace holds the retained lifecycle events when Spec.TraceCap > 0.
	Trace []trace.Event

	// Faults logs the injected faults of a chaos run that finished
	// anyway (normally empty).
	Faults []fault.Event
}

// IPC returns retired operations per core per cycle.
func (r *Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var retired int64
	for _, c := range r.Cores {
		retired += c.Retired
	}
	return float64(retired) / float64(r.Cycles) / float64(len(r.Cores))
}

// Speedup returns baseline.Cycles / r.Cycles.
func (r *Results) Speedup(baseline *Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

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

// Run executes the spec and returns its measurements.
func Run(spec Spec) (*Results, error) { return RunCtx(context.Background(), spec) }

// RunCtx executes the spec with cancellation and failure containment: an
// invariant panic anywhere in the simulated machine is recovered into a
// structured *RunError (never re-thrown), as are watchdog deadlocks,
// horizon and wall-clock timeouts, context cancellation, and audit
// failures. A long sweep survives any single run dying.
func RunCtx(ctx context.Context, spec Spec) (res *Results, err error) {
	if verr := spec.Validate(); verr != nil {
		return nil, verr
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		kernel *sim.Kernel
		sys    *coherence.System
		tr     *trace.Buffer
		inj    *fault.Injector
	)
	phase := "setup"

	// runErr builds the structured failure for the current phase with the
	// diagnostic dump, trace tail and injected-fault log attached.
	runErr := func(msg string, panicked bool) *RunError {
		e := &RunError{
			Phase: phase, Chip: spec.Chip.Name, Variant: spec.Variant.Name,
			Workload: spec.Workload.Name, Seed: spec.Seed,
			Msg: msg, Panicked: panicked,
		}
		if kernel != nil {
			e.Cycle = kernel.Now()
		}
		if sys != nil {
			e.Diag = sys.Net.DumpState()
			if sys.Mgr != nil {
				e.Diag += sys.Mgr.DumpCircuits(e.Cycle)
			}
		}
		if tr != nil {
			e.TraceTail = tr.Events()
		}
		if inj != nil {
			e.Faults = inj.Events()
		}
		return e
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, runErr(fmt.Sprint(r), true)
		}
		// The one exit that can hold cache arrays: hand them to the next
		// run, after the diagnostic dump above has read the machine.
		if sys != nil {
			sys.Release()
		}
	}()

	m := mesh.New(spec.Chip.Width, spec.Chip.Height)
	n := m.Nodes()

	// A trace-driven workload replays a recorded run: the file supplies
	// the prefill regions and each core's exact operation sequence, and
	// the spec's phase budgets must match the recording's or the cores'
	// retirement limits would slice the stream differently. It is loaded
	// and checked before anything is built, so a bad trace costs no chip.
	var feed *tracefeed.Trace
	if spec.Workload.TracePath != "" {
		var crc uint32
		var ferr error
		feed, crc, ferr = tracefeed.Load(spec.Workload.TracePath)
		if ferr != nil {
			return nil, fmt.Errorf("chip: %w", ferr)
		}
		if spec.Workload.TraceCRC != 0 && spec.Workload.TraceCRC != crc {
			return nil, fmt.Errorf("chip: trace %s has CRC %08x, spec pinned %08x",
				spec.Workload.TracePath, crc, spec.Workload.TraceCRC)
		}
		if feed.Cores() != n {
			return nil, fmt.Errorf("chip: trace %s recorded %d cores, chip %s has %d",
				spec.Workload.TracePath, feed.Cores(), spec.Chip.Name, n)
		}
		if feed.WarmupOps != spec.WarmupOps || feed.MeasureOps != spec.MeasureOps {
			return nil, fmt.Errorf("chip: trace %s recorded %d+%d ops/core, spec asks %d+%d",
				spec.Workload.TracePath, feed.WarmupOps, feed.MeasureOps, spec.WarmupOps, spec.MeasureOps)
		}
	}

	opts := spec.Variant.Opts
	opts.NoPool = opts.NoPool || spec.NoPool
	sys = coherence.NewSystem(m, opts, spec.Chip.MCs)
	coreRegions := func(i int) []workload.Region {
		if feed != nil {
			return feed.CoreRegions(i)
		}
		return spec.Workload.Regions(i)
	}

	// Functional cache warming (the paper warms for 200M cycles): every
	// region each core touches is installed in its home L2 bank, and each
	// region's first L1Lines lines in the core's L1 (Region.L1From is not
	// consulted — see workload.Region).
	for i := 0; i < n; i++ {
		for _, reg := range coreRegions(i) {
			for l := 0; l < reg.Lines; l++ {
				tile := mesh.NodeID(-1)
				if l < reg.L1Lines {
					tile = mesh.NodeID(i)
				}
				sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
			}
		}
	}

	// A diagnostic tracer rides along whenever the caller asked for one or
	// armed the fault injector, so failures carry a bounded trace tail.
	traceCap := spec.TraceCap
	if traceCap <= 0 && spec.Fault != nil {
		traceCap = diagTraceCap
	}
	if traceCap > 0 {
		tr = trace.New(traceCap)
		sys.Net.SetTracer(tr)
		if sys.Mgr != nil {
			sys.Mgr.SetTracer(tr)
		}
	}

	if spec.Fault != nil {
		inj = fault.New(*spec.Fault)
		sys.Net.SetFaultHook(inj)
		if sys.Mgr != nil {
			sys.Mgr.SetFaultHook(inj)
		}
	}

	var recorder *tracefeed.Recorder
	if spec.RecordTrace != "" {
		recorder = tracefeed.NewRecorder(spec.Workload, n, spec.Seed, spec.WarmupOps, spec.MeasureOps)
	}

	// doneCores counts done-transitions so the end-of-phase predicate is an
	// integer compare instead of an O(cores) scan every cycle; sys.Busy()
	// (which walks the whole machine) only runs in the drain tail after the
	// last core finishes — exactly when the seed engine's short-circuited
	// allDone() reached it.
	doneCores := 0
	cores := make([]*cpu.Core, n)
	coreWakers := make([]sim.Waker, n)
	for i := 0; i < n; i++ {
		var st cpu.Stream
		if feed != nil {
			st = feed.Stream(i)
		} else {
			st = spec.Workload.StreamGeom(i, m.Width, m.Height, spec.Seed)
		}
		limit := spec.WarmupOps
		if limit <= 0 {
			limit = spec.MeasureOps
		}
		cores[i] = cpu.New(i, sys.L1s[i], st, limit)
		if recorder != nil {
			cores[i].SetRecorder(recorder)
		}
		cores[i].SetDoneSink(func() { doneCores++ })
	}

	// Registration order replicates the seed engine's tick order exactly:
	// the system (routers, NIs, per-tile L1/L2, MCs), then the cores.
	kernel = sim.NewKernel()
	kernel.SetDense(spec.DenseKernel)
	sys.Register(kernel)
	for i, c := range cores {
		coreWakers[i] = kernel.Add(c)
	}

	reg := sim.NewRegistry()
	sys.DescribeMetrics(reg)
	for _, c := range cores {
		c.Describe(reg)
	}
	if sys.Mgr != nil {
		reg.Gauge("circ/open", func() int64 { return sys.Mgr.OpenCircuits(kernel.Now()) })
	}
	reg.Gauge("kernel/active", func() int64 { return int64(kernel.ActiveCount()) })

	horizon := spec.Horizon
	if horizon == 0 {
		horizon = sim.Cycle(spec.WarmupOps+spec.MeasureOps)*220 + 1_000_000
	}
	stall := spec.WatchdogStall
	if stall <= 0 {
		stall = watchdogStall
	}
	var wallDeadline time.Time
	if spec.Timeout > 0 {
		wallDeadline = time.Now().Add(spec.Timeout)
	}

	// The oracle suite samples the machine on its own cadence, below the
	// watchdog threshold so a structural deadlock is diagnosed as a
	// waits-for cycle before the watchdog can blame generic "no progress".
	var suite *verify.Suite
	verifyEvery := spec.VerifyEvery
	if spec.Verify {
		if verifyEvery <= 0 {
			verifyEvery = 128
		}
		suite = verify.NewSuite(verify.Config{Sys: sys, ProgressStall: stall / 2})
	}

	allDone := func() bool { return doneCores == n && !sys.Busy() }

	// runPhase advances until every core finishes, with a forward-progress
	// watchdog: if no operation retires for a long stretch, the phase is
	// deadlocked and the network state dump is attached to the error. The
	// context, wall-clock deadline, and watchdog's O(cores) retired sum are
	// polled every checkEvery cycles.
	var sampler *sim.Sampler
	runPhase := func(name string) error {
		phase = name
		deadline := kernel.Now() + horizon
		lastRetired, lastProgress := int64(-1), kernel.Now()
		for kernel.Now() < deadline {
			if allDone() {
				return nil
			}
			if kernel.Now()%checkEvery == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return runErr("canceled: "+cerr.Error(), false)
				}
				if !wallDeadline.IsZero() && time.Now().After(wallDeadline) {
					return runErr(fmt.Sprintf("exceeded wall-clock timeout %v", spec.Timeout), false)
				}
				var retired int64
				for _, c := range cores {
					retired += c.Retired
				}
				if retired != lastRetired {
					lastRetired, lastProgress = retired, kernel.Now()
				} else if kernel.Now()-lastProgress > stall {
					return runErr(fmt.Sprintf("no progress for %d cycles (deadlock?)", stall), false)
				}
			}
			kernel.Step()
			if sampler != nil {
				sampler.Poll(kernel.Now())
			}
			if suite != nil && kernel.Now()%verifyEvery == 0 {
				if v := suite.Check(kernel.Now()); v != nil {
					e := runErr(v.Msg, false)
					e.Oracle = v.Oracle
					return e
				}
			}
		}
		if allDone() {
			return nil
		}
		return runErr(fmt.Sprintf("did not finish within %d cycles", horizon), false)
	}

	resetCores := func() {
		doneCores = 0
		for i, c := range cores {
			c.ResetStats(spec.MeasureOps)
			coreWakers[i].Wake()
		}
	}
	if spec.WarmupOps > 0 {
		if err := runPhase("warm-up"); err != nil {
			return nil, err
		}
		sys.ResetStats()
		resetCores()
	} else {
		resetCores()
	}

	measureStart := kernel.Now()
	if spec.SampleEvery > 0 {
		sampler = sim.NewSampler(reg, spec.SampleEvery, measureStart)
		if spec.OnSample != nil {
			sampler.OnWindow = func(snap sim.Snapshot) {
				snap.At -= measureStart
				spec.OnSample(snap)
			}
		}
	}
	if err := runPhase("measured"); err != nil {
		return nil, err
	}
	if sampler != nil {
		sampler.Flush(kernel.Now())
	}

	if suite != nil {
		phase = "audit"
		if v := suite.CheckQuiescent(kernel.Now()); v != nil {
			e := runErr(v.Msg, false)
			e.Oracle = v.Oracle
			return nil, e
		}
	}
	if spec.Audit {
		phase = "audit"
		if aerr := sys.AuditQuiescent(kernel.Now()); aerr != nil {
			return nil, runErr("post-run audit failed: "+aerr.Error(), false)
		}
	}

	res = &Results{Spec: spec}
	var lastFinish sim.Cycle
	for _, c := range cores {
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
	res.Cycles = lastFinish - measureStart
	if res.Cycles <= 0 {
		res.Cycles = kernel.Now() - measureStart
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
	res.SimCycles = kernel.Now()
	res.Metrics = reg.Snapshot(kernel.Now())
	res.L1Hits = res.Metrics.Value("l1/hits")
	res.L1Misses = res.Metrics.Value("l1/misses")
	res.L2Hits = res.Metrics.Value("l2/hits")
	res.L2Misses = res.Metrics.Value("l2/misses")
	if sampler != nil {
		res.Series = sampler.Samples()
		for i := range res.Series {
			res.Series[i].At -= measureStart
		}
	}
	if res.Cycles > 0 {
		res.InjRate = float64(res.Events.LinkFlits) / float64(res.Cycles) / float64(n)
	}
	if spec.TraceCap > 0 && tr != nil {
		res.Trace = tr.Events()
	}
	if inj != nil {
		res.Faults = inj.Events()
	}
	if recorder != nil {
		if _, werr := recorder.Trace().WriteFile(spec.RecordTrace); werr != nil {
			return nil, fmt.Errorf("chip: writing trace: %w", werr)
		}
	}
	return res, nil
}

// MustRun is Run, panicking on error (benchmarks, examples).
func MustRun(spec Spec) *Results {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}
