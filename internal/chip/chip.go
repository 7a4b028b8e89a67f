// Package chip assembles the full simulated machine — network, circuit
// manager, caches, coherence controllers, memory controllers and cores —
// into one Machine (Build), and runs measured experiments on it: RunCtx
// drives a Machine through warm-up, the measured phase and the audits.
// Every table and figure of the evaluation is regenerated from its Results.
package chip

import (
	"context"
	"fmt"
	"math"
	"time"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
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

// Validate rejects a spec no run could honour — a non-positive measured
// budget, a negative knob, a malformed workload, an inconsistent variant,
// an empty chip or one with more tiles than a directory can name — as a
// plain error, before anything is built: past this point a panic means a
// bug in the simulated machine, not bad input.
func (s *Spec) Validate() error {
	if s.MeasureOps <= 0 {
		return fmt.Errorf("chip: MeasureOps must be positive")
	}
	// Zero selects a default or turns a knob off; a negative value would
	// silently do the same under a fingerprint of its own.
	if s.WarmupOps < 0 || s.Horizon < 0 || s.TraceCap < 0 || s.VerifyEvery < 0 ||
		s.Timeout < 0 || s.WatchdogStall < 0 || s.SampleEvery < 0 {
		return fmt.Errorf("chip: WarmupOps, Horizon, TraceCap, VerifyEvery, Timeout, WatchdogStall and SampleEvery must not be negative (got %d, %d, %d, %d, %v, %d, %d)",
			s.WarmupOps, s.Horizon, s.TraceCap, s.VerifyEvery, s.Timeout, s.WatchdogStall, s.SampleEvery)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("chip: %w", err)
	}
	if err := s.Variant.Opts.Validate(); err != nil {
		return fmt.Errorf("chip: variant %s: %w", s.Variant.Name, err)
	}
	// A directory owner is an int16 tile ID (cache.Line.Owner); bounding
	// each side first keeps Width*Height from overflowing.
	if c := s.Chip; c.Width <= 0 || c.Height <= 0 || c.MCs <= 0 ||
		c.Width > math.MaxInt16 || c.Height > math.MaxInt16 || c.Width*c.Height > math.MaxInt16 {
		return fmt.Errorf("chip: %dx%d mesh with %d memory controllers (all must be positive, and a directory can name at most %d tiles)",
			c.Width, c.Height, c.MCs, math.MaxInt16)
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

// Run executes the spec and returns its measurements.
func Run(spec Spec) (*Results, error) { return RunCtx(context.Background(), spec) }

// RunCtx executes the spec with cancellation and failure containment: an
// invariant panic anywhere in the simulated machine is recovered into a
// structured *RunError (never re-thrown), as are watchdog deadlocks,
// horizon and wall-clock timeouts, context cancellation, and audit
// failures. A long sweep survives any single run dying.
func RunCtx(ctx context.Context, spec Spec) (res *Results, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Machine{spec: spec}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, m.runErr(fmt.Sprint(r), true)
		}
		// The one exit that can hold cache arrays: hand them to the next
		// run, after the diagnostic dump above has read the machine.
		m.Release()
	}()
	if err := m.build(); err != nil {
		return nil, err
	}
	if spec.WarmupOps > 0 {
		if err := m.RunPhase(ctx, "warm-up"); err != nil {
			return nil, err
		}
	}
	m.BeginMeasured()
	if err := m.RunPhase(ctx, "measured"); err != nil {
		return nil, err
	}
	if err := m.Finish(); err != nil {
		return nil, err
	}
	res = m.Harvest()
	if m.rec != nil {
		if _, err := m.rec.Trace().WriteFile(spec.RecordTrace); err != nil {
			return nil, fmt.Errorf("chip: writing trace: %w", err)
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
