package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// Options parameterise one pass.
type Options struct {
	Seed uint64
	// Seconds is how long the timed section measures.
	Seconds float64
	// Quick shrinks every input to smoke-test size; its numbers mean
	// nothing and -compare rejects them.
	Quick bool
	// Spans, when non-nil, receives the traced pass's spans.
	Spans *SpanLog
}

// setupRounds is how often a pass repeats its set-up; setup_s is the
// median, so one slow round does not decide it.
const setupRounds = 3

// minReps is the fewest timed operations a pass reports a median of.
const minReps = 3

// chipInputs is how many inputs a chip workload derives from one seed. The
// timed reps cycle through them and the simulated metrics are their mean: a
// saturated network's makespan moves by ~9% from one input to the next,
// and averaging eight brings a seed-to-seed change under 3%.
const chipInputs = 8

// spanLog is where a traced pass records: the caller's log, or one that is
// dropped with the pass.
func (o Options) spanLog() *SpanLog {
	if o.Spans != nil {
		return o.Spans
	}
	return NewSpanLog()
}

func (o Options) rounds() int {
	if o.Quick {
		return 1
	}
	return setupRounds
}

// chipLoad is one chip.RunCtx workload.
type chipLoad struct {
	name         string
	chip         func() config.Chip
	variant, app string
	// warm and meas are retired operations per core. The 64-core canneal
	// pair and the 256-core run are a third of chip.DefaultSpec's length so
	// a ten-second pass still times a dozen reps.
	warm, meas int64
	// armed runs the check rep with Audit and Verify set. Off on the
	// 256-core chip: its directory sharer vector is 64 bits wide, so both
	// the post-run audit and the coherence oracle reject any run on it.
	armed bool
}

var chipLoads = []chipLoad{
	{"light64", config.Chip64, "Complete_NoAck", "swaptions", 3000, 12000, true},
	{"packet64", config.Chip64, "Baseline", "canneal", 1000, 4000, true},
	{"circuit64", config.Chip64, "SlackDelay_1_NoAck", "canneal", 1000, 4000, true},
	{"mesh256", config.Chip256, "Complete_NoAck", "micro", 1000, 1000, false},
}

// spec builds the workload's k-th input from its names, the way rcsim does.
func (l chipLoad) spec(o Options, variant string, k int) (chip.Spec, error) {
	v, ok := config.ByName(variant)
	if !ok {
		return chip.Spec{}, fmt.Errorf("bench: unknown variant %q", variant)
	}
	w, ok := workload.ByName(l.app)
	if !ok {
		return chip.Spec{}, fmt.Errorf("bench: unknown workload profile %q", l.app)
	}
	s := chip.DefaultSpec(l.chip(), v, w)
	s.WarmupOps, s.MeasureOps, s.Seed = l.warm, l.meas, o.Seed*chipInputs+uint64(k)
	if o.Quick {
		s.WarmupOps, s.MeasureOps = 100, 300
	}
	return s, nil
}

// totalAlloc reads the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// timeOps is a pass's timed section: it runs op until o.Seconds have passed
// and at least atLeast times, and records the host-time metrics — median
// wall per operation, median simulated kilocycles per second, allocation
// per operation. op returns the simulated cycles it covered and its wall
// time in seconds; ok=false (a check failed) ends the section.
func timeOps(p *Pass, o Options, atLeast int, op func(i int) (simCycles int64, secs float64, ok bool)) (reps int, wall float64) {
	var opMS, rate []float64
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	for len(opMS) < atLeast || time.Since(start).Seconds() < o.Seconds {
		cycles, secs, ok := op(len(opMS))
		if !ok {
			return len(opMS), time.Since(start).Seconds()
		}
		opMS = append(opMS, secs*1e3)
		rate = append(rate, float64(cycles)/1e3/secs)
	}
	wall = time.Since(start).Seconds()
	alloc := totalAlloc() - alloc0
	p.setMedian("op_ms_p50", opMS)
	p.setMedian("sim_kcycles_per_s", rate)
	p.set("alloc_mb_per_op", float64(alloc)/1e6/float64(len(opMS)))
	return len(opMS), wall
}

// timedRun is one chip.RunCtx with its wall time in seconds.
func timedRun(ctx context.Context, s chip.Spec) (*chip.Results, float64, error) {
	t := time.Now()
	r, err := chip.RunCtx(ctx, s)
	return r, time.Since(t).Seconds(), err
}

// armedRep runs the workload's check rep, outside every metric: audited
// and oracle-armed, it must reproduce want. It returns the rep's wall time
// (0 when the workload cannot be armed).
func (l chipLoad) armedRep(ctx context.Context, p *Pass, s chip.Spec, want string) float64 {
	if !l.armed {
		p.note("check rep not armed: the %s directory tracks 64 sharers, so audit and oracles reject every run", s.Chip.Name)
		return 0
	}
	s.Audit, s.Verify = true, true
	r, secs, err := timedRun(ctx, s)
	p.check(err == nil, "armed rep: %v", err)
	if err != nil {
		return 0
	}
	got := digest(r)
	p.check(got == want, "armed rep digest %q, unarmed %q", got, want)
	return secs
}

// baseline runs the Baseline rep of the same chip, app and seed that the
// simulated ratios are taken against (nil for a Baseline workload).
func (l chipLoad) baseline(ctx context.Context, o Options) (*chip.Results, error) {
	if l.variant == "Baseline" {
		return nil, nil
	}
	s, err := l.spec(o, "Baseline", 0)
	if err != nil {
		return nil, err
	}
	r, err := chip.RunCtx(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("bench: %s baseline rep: %w", l.name, err)
	}
	return r, nil
}

// inputs builds the workload's specs, one per derived seed.
func (l chipLoad) inputs(o Options) ([]chip.Spec, error) {
	n := chipInputs
	if o.Quick {
		n = 2
	}
	specs := make([]chip.Spec, n)
	for k := range specs {
		var err error
		if specs[k], err = l.spec(o, l.variant, k); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

func (l chipLoad) untraced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass(l.name, o.Seed, false)

	// Set-up: build the specs from names and run one cold rep, repeated.
	// firsts keeps each input's first result: later reps of the input must
	// reproduce its digest, and the simulated metrics are their mean.
	var setups []float64
	var specs []chip.Spec
	var firsts []*chip.Results
	for i := 0; i < o.rounds(); i++ {
		t := time.Now()
		var err error
		if specs, err = l.inputs(o); err != nil {
			return nil, err
		}
		firsts = make([]*chip.Results, len(specs))
		if firsts[0], err = chip.RunCtx(ctx, specs[0]); err != nil {
			return nil, fmt.Errorf("bench: %s set-up rep: %w", l.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	p.setMedian("setup_s", setups)
	l.armedRep(ctx, p, specs[0], digest(firsts[0]))

	// Timed reps, cycling through the inputs.
	reps, wall := timeOps(p, o, max(minReps, len(specs)), func(i int) (int64, float64, bool) {
		k := i % len(specs)
		r, secs, err := timedRun(ctx, specs[k])
		p.check(err == nil, "rep %d: %v", i, err)
		if err != nil {
			return 0, 0, false
		}
		if firsts[k] == nil {
			firsts[k] = r
		}
		got, want := digest(r), digest(firsts[k])
		p.check(got == want, "rep %d digest %q, input %d first gave %q", i, got, k, want)
		return r.SimCycles, secs, true
	})
	if p.Failed > 0 {
		return p, nil
	}
	p.note("%d reps over %d inputs in %.1fs", reps, len(specs), wall)
	meanSim(firsts).into(p)
	return p, nil
}

// traced produces the workload's per-layer metrics: the same machine built
// from public constructors and stepped by hand with a clock around each
// component class, repeated for o.Seconds; its digest must equal
// chip.RunCtx's. The isolated rigs ride along.
func (l chipLoad) traced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass(l.name, o.Seed, true)
	log := o.spanLog()
	// The traced pass stays on the first input: its simulated counts are
	// then exact for the seed, and every rep is the same run.
	s, err := l.spec(o, l.variant, 0)
	if err != nil {
		return nil, err
	}

	// Untraced reference: digest and the wall time tracing is held against.
	var refS []float64
	var ref *chip.Results
	for i := 0; i < o.rounds(); i++ {
		r, secs, err := timedRun(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("bench: %s reference rep: %w", l.name, err)
		}
		ref, refS = r, append(refS, secs)
	}
	want := digest(ref)
	if armedS := l.armedRep(ctx, p, s, want); armedS > 0 {
		p.set("verify.armed_x", armedS/median(refS))
	}
	base, err := l.baseline(ctx, o)
	if err != nil {
		return nil, err
	}
	simCounts(p, ref, base)

	perCycle := map[string][]float64{}
	var setupMS, harvestMS, tracedS, accounted []float64
	start := time.Now()
	for len(tracedS) == 0 || time.Since(start).Seconds() < o.Seconds {
		t0 := time.Now()
		res, st, err := stepRun(s, log, l.name)
		secs := time.Since(t0).Seconds()
		p.check(err == nil, "hand-stepped rep: %v", err)
		if err != nil {
			return p, nil
		}
		got := digest(res)
		p.check(got == want, "hand-stepped digest %q, chip.RunCtx %q", got, want)
		tracedS = append(tracedS, secs)
		setupMS = append(setupMS, float64(st.setupNS)/1e6)
		harvestMS = append(harvestMS, float64(st.harvestNS)/1e6)
		p.set("chip.prefill_lines", float64(st.prefilled))

		cycles := float64(res.SimCycles)
		var sum float64
		for c := class(0); c < numClasses; c++ {
			ns := float64(st.timer.ns[c]) - float64(st.timer.entries[c])*clockCostNS()
			if ns < 0 {
				ns = 0
			}
			sum += ns
			name := classNames[c]
			perCycle[name+".ns_per_cycle"] = append(perCycle[name+".ns_per_cycle"], ns/cycles)
			if c >= clsRouter && c <= clsCore {
				p.set(name+".ticks_per_cycle", float64(st.timer.ticks[c])/cycles)
			}
		}
		accounted = append(accounted, pct(sum, float64(st.stepNS)))
	}
	for name, vs := range perCycle {
		p.setMedian(name, vs)
	}
	p.setMedian("chip.setup_ms", setupMS)
	p.setMedian("chip.harvest_ms", harvestMS)
	p.setMedian("trace.accounted_pct", accounted)
	p.set("trace.overhead_pct", (median(tracedS)/median(refS)-1)*100)

	if err := runRigs(ctx, p, o); err != nil {
		return nil, err
	}
	return p, nil
}
