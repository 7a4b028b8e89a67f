package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
)

// sweepLoad is sweep64: the Fig 9 sweep an rcsweep user waits for.
type sweepLoad struct{}

const sweepWorkers = 2

// sweepVariants are the sweep's columns; the last two have a paper figure.
var sweepVariants = []string{"Baseline", "Complete", "SlackDelay_1_NoAck"}

// paperSpeedupPct is Fig 9's 64-core mean speedup over baseline. It is the
// paper's full-system result on a different substrate and application set,
// and the only reference any workload here has.
var paperSpeedupPct = map[string]float64{"Complete": 4.8, "SlackDelay_1_NoAck": 6.0}

func (sweepLoad) scale(o Options) exp.Scale {
	if o.Quick {
		return exp.Scale{MeasureOps: 300, Apps: 2, Seed: o.Seed, Workers: sweepWorkers}
	}
	return exp.Scale{MeasureOps: 2000, Apps: 4, Seed: o.Seed, Workers: sweepWorkers}
}

func (sweepLoad) variants() ([]config.Variant, error) {
	var vs []config.Variant
	for _, name := range sweepVariants {
		v, ok := config.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %q", name)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// sweepOutcome is what one sweep produced, reduced to what is compared.
type sweepOutcome struct {
	digest     string
	simCycles  int64
	sim        simEndToEnd
	speedupPct map[string]float64
}

// reduce checks a sweep (no failures, every cell present, Fig 9 computes)
// and folds its cells.
func (l sweepLoad) reduce(p *Pass, s *exp.Sweep) (sweepOutcome, bool) {
	out := sweepOutcome{speedupPct: map[string]float64{}}
	p.check(len(s.Failures) == 0, "sweep failures: %s", s.FailureSummary())
	h := sha256.New()
	var cells int
	for _, v := range s.Variants {
		for _, app := range s.AppNames() {
			r, ok := s.Res[v.Name][app]
			if !ok {
				continue
			}
			cells++
			fmt.Fprintf(h, "%s/%s %s\n", v.Name, app, digest(r))
			out.simCycles += r.SimCycles
			c := simOf(r)
			out.sim.cycles += c.cycles
			out.sim.replyLat += c.replyLat
			out.sim.energyUJ += c.energyUJ
		}
	}
	want := len(s.Variants) * len(s.Apps)
	p.check(cells == want, "sweep has %d of %d cells", cells, want)
	if cells == 0 {
		return out, false
	}
	out.sim.replyLat /= float64(cells)
	out.digest = hex.EncodeToString(h.Sum(nil)[:12])
	f9, err := exp.Fig9From(s)
	p.check(err == nil, "Fig9From: %v", err)
	if err != nil {
		return out, false
	}
	for _, row := range f9.Rows {
		out.speedupPct[row.Variant] = (row.Mean - 1) * 100
	}
	return out, true
}

func (l sweepLoad) run(ctx context.Context, o Options, vs []config.Variant, pol exp.Policy) (*exp.Sweep, float64) {
	t := time.Now()
	s := exp.RunSweepCtx(ctx, config.Chip64(), vs, l.scale(o), pol)
	return s, time.Since(t).Seconds()
}

func (l sweepLoad) untraced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass("sweep64", o.Seed, false)
	vs, err := l.variants()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var first sweepOutcome
	for i := 0; i < o.rounds(); i++ {
		s, secs := l.run(ctx, o, vs, exp.Policy{})
		var ok bool
		if first, ok = l.reduce(p, s); !ok {
			return p, nil
		}
		setups = append(setups, secs)
	}
	p.setMedian("setup_s", setups)

	timeOps(p, o, minReps, func(i int) (int64, float64, bool) {
		s, secs := l.run(ctx, o, vs, exp.Policy{})
		out, ok := l.reduce(p, s)
		if !ok {
			return 0, 0, false
		}
		p.check(out.digest == first.digest, "sweep %d digest %s, first %s", i, out.digest, first.digest)
		return out.simCycles, secs, true
	})
	if p.Failed > 0 {
		return p, nil
	}
	first.sim.into(p)
	return p, nil
}

func (l sweepLoad) traced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass("sweep64", o.Seed, true)
	log := o.spanLog()
	vs, err := l.variants()
	if err != nil {
		return nil, err
	}
	var refS []float64
	var ref sweepOutcome
	for i := 0; i < o.rounds(); i++ {
		s, secs := l.run(ctx, o, vs, exp.Policy{})
		var ok bool
		if ref, ok = l.reduce(p, s); !ok {
			return p, nil
		}
		refS = append(refS, secs)
	}

	// The traced sweep swaps exp's executor for a wrapper around
	// chip.RunCtx that records one span per cell under the sweep's span.
	var cellMS, busy, tracedS []float64
	var cells int
	start := time.Now()
	for len(tracedS) == 0 || time.Since(start).Seconds() < o.Seconds {
		sweepSpan := log.begin("sweep64", "sweep", 0)
		first := log.Len()
		pol := exp.Policy{Run: func(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
			id := log.add(Span{Workload: "sweep64", Name: "cell", Parent: sweepSpan, StartNS: log.now(),
				Attr: spec.Variant.Name + "/" + spec.Workload.Name})
			defer log.end(id)
			return chip.RunCtx(ctx, spec)
		}}
		s, secs := l.run(ctx, o, vs, pol)
		sweepNS := log.end(sweepSpan)
		out, ok := l.reduce(p, s)
		if !ok {
			return p, nil
		}
		p.check(out.digest == ref.digest, "traced sweep digest %s, untraced %s", out.digest, ref.digest)
		tracedS = append(tracedS, secs)

		var sumNS int64
		cells = 0
		for _, sp := range log.snapshot(first) {
			if sp.Name == "cell" && sp.Parent == sweepSpan {
				cells++
				sumNS += sp.EndNS - sp.StartNS
				cellMS = append(cellMS, float64(sp.EndNS-sp.StartNS)/1e6)
			}
		}
		busy = append(busy, pct(float64(sumNS), float64(sweepWorkers)*float64(sweepNS)))
	}
	p.setMedian("exp.cell_ms_p50", cellMS)
	p.setMedian("exp.worker_busy_pct", busy)
	p.set("exp.cells", float64(cells))
	p.set("trace.overhead_pct", (median(tracedS)/median(refS)-1)*100)

	p.set("sim.speedup_vs_baseline_pct", ref.speedupPct["SlackDelay_1_NoAck"])
	var worst float64
	var parts []string
	for _, v := range sweepVariants[1:] {
		worst = math.Max(worst, math.Abs(ref.speedupPct[v]-paperSpeedupPct[v]))
		parts = append(parts, fmt.Sprintf("%s %+.2f%% (paper %+.1f%%)", v, ref.speedupPct[v], paperSpeedupPct[v]))
	}
	p.set("sim.paper_speedup_err_pts", worst)
	p.note("Fig 9, 64-core mean speedup: %s", strings.Join(parts, ", "))

	if err := runRigs(ctx, p, o); err != nil {
		return nil, err
	}
	return p, nil
}
