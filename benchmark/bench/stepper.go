package bench

import (
	"fmt"
	"sync"
	"time"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/chip"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
	"reactivenoc/internal/sim"
)

// class is one component class of the simulated machine, in the order
// coherence.System.Register and chip.RunCtx tick them; clsLoop is the
// stepper's own time between them (quiescence polls, done checks).
type class int

const (
	clsLoop class = iota
	clsRouter
	clsNI
	clsL1
	clsL2
	clsMC
	clsCore
	clsMgrFlush
	clsNetFlush
	numClasses
)

var classNames = [numClasses]string{
	"chip.loop", "noc.router", "noc.ni", "coherence.l1", "coherence.l2",
	"coherence.mc", "cpu.core", "core.flush", "noc.flush",
}

// windowCycles is the width of one class span in simulated cycles.
const windowCycles = 1024

// stepTimer attributes host time to the class being ticked. It reads the
// clock once per class switch, not per tick: consecutive ticks of one class
// share an interval, and the polls of sleeping components in between are
// charged to whichever class ran last.
type stepTimer struct {
	base time.Time
	cur  class
	last int64
	// ns is host time inside each class, ticks its Tick calls, entries how
	// often the timer switched into it (one clock read each).
	ns, ticks, entries [numClasses]int64
}

func (t *stepTimer) start() {
	t.base = time.Now()
	t.cur, t.last = clsLoop, 0
}

func (t *stepTimer) to(c class) {
	if c == t.cur {
		return
	}
	now := int64(time.Since(t.base))
	t.ns[t.cur] += now - t.last
	t.last = now
	t.cur = c
	t.entries[c]++
}

// clockCostNS is what one stepTimer clock read costs on this host,
// measured once when first asked; the per-class times are reported net of
// it.
var clockCostNS = sync.OnceValue(func() float64 {
	const n = 200_000
	base := time.Now()
	var sink int64
	for i := 0; i < n; i++ {
		sink += int64(time.Since(base))
	}
	_ = sink
	return float64(time.Since(base)) / n
})

// machine is the simulated chip built from the packages' public
// constructors exactly as chip.RunCtx builds it, but stepped by hand.
type machine struct {
	spec    chip.Spec
	sys     *coherence.System
	routers []*noc.Router
	nis     []*noc.NI
	cores   []*cpu.Core
	reg     *sim.Registry

	now       sim.Cycle
	done      int
	prefilled int64
}

func buildMachine(spec chip.Spec) *machine {
	m := mesh.New(spec.Chip.Width, spec.Chip.Height)
	mc := &machine{spec: spec}
	mc.sys = coherence.NewSystem(m, spec.Variant.Opts, spec.Chip.MCs)
	n := m.Nodes()
	for i := 0; i < n; i++ {
		for _, reg := range spec.Workload.Regions(i) {
			for l := 0; l < reg.Lines; l++ {
				tile := mesh.NodeID(-1)
				if l < reg.L1Lines {
					tile = mesh.NodeID(i)
				}
				mc.sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
				mc.prefilled++
			}
		}
	}
	limit := spec.WarmupOps
	if limit <= 0 {
		limit = spec.MeasureOps
	}
	mc.reg = sim.NewRegistry()
	mc.sys.DescribeMetrics(mc.reg)
	for i := 0; i < n; i++ {
		id := mesh.NodeID(i)
		mc.routers = append(mc.routers, mc.sys.Net.Router(id))
		mc.nis = append(mc.nis, mc.sys.Net.NI(id))
		c := cpu.New(i, mc.sys.L1s[i], spec.Workload.StreamGeom(i, m.Width, m.Height, spec.Seed), limit)
		c.SetDoneSink(func() { mc.done++ })
		c.Describe(mc.reg)
		mc.cores = append(mc.cores, c)
	}
	return mc
}

// step advances one cycle in the kernel's order — routers, NIs, each
// tile's L1 then L2, memory controllers, cores, then the two cycle
// epilogues — ticking a component only when it is not quiescent. By the
// sim.Component contract a quiescent component's Tick is a no-op, so this
// is the run chip.RunCtx performs, bit for bit.
func (mc *machine) step(t *stepTimer) {
	now := mc.now
	for _, r := range mc.routers {
		if !r.Quiescent() {
			t.to(clsRouter)
			r.Tick(now)
			t.ticks[clsRouter]++
		}
	}
	for _, ni := range mc.nis {
		if !ni.Quiescent() {
			t.to(clsNI)
			ni.Tick(now)
			t.ticks[clsNI]++
		}
	}
	for i, l1 := range mc.sys.L1s {
		if !l1.Quiescent() {
			t.to(clsL1)
			l1.Tick(now)
			t.ticks[clsL1]++
		}
		if l2 := mc.sys.L2s[i]; !l2.Quiescent() {
			t.to(clsL2)
			l2.Tick(now)
			t.ticks[clsL2]++
		}
	}
	for _, m := range mc.sys.MCs {
		if !m.Quiescent() {
			t.to(clsMC)
			m.Tick(now)
			t.ticks[clsMC]++
		}
	}
	for _, c := range mc.cores {
		if !c.Quiescent() {
			t.to(clsCore)
			c.Tick(now)
			t.ticks[clsCore]++
		}
	}
	if mc.sys.Mgr != nil {
		t.to(clsMgrFlush)
		mc.sys.Mgr.FlushCycle(now)
		t.ticks[clsMgrFlush]++
	}
	t.to(clsNetFlush)
	mc.sys.Net.FlushBoundary(now)
	t.ticks[clsNetFlush]++
	t.to(clsLoop)
	mc.now++
}

func (mc *machine) allDone() bool {
	return mc.done == len(mc.cores) && !mc.sys.Busy()
}

// runPhase steps until every core has retired its budget and the machine
// has drained, recording one class span per class and window under parent.
func (mc *machine) runPhase(t *stepTimer, log *SpanLog, workload string, parent int) error {
	horizon := mc.spec.Horizon
	if horizon == 0 {
		horizon = sim.Cycle(mc.spec.WarmupOps+mc.spec.MeasureOps)*220 + 1_000_000
	}
	deadline := mc.now + horizon
	winStart, winNS, winTicks, winT := mc.now, t.ns, t.ticks, log.now()
	flush := func() {
		end := log.now()
		for c := class(0); c < numClasses; c++ {
			if ns, tk := t.ns[c]-winNS[c], t.ticks[c]-winTicks[c]; ns > 0 || tk > 0 {
				log.add(Span{Workload: workload, Name: classNames[c], Parent: parent,
					StartNS: winT, EndNS: end, Cycle0: winStart, Cycle1: mc.now, SelfNS: ns, Ticks: tk})
			}
		}
		winStart, winNS, winTicks, winT = mc.now, t.ns, t.ticks, end
	}
	for mc.now < deadline {
		if mc.allDone() {
			flush()
			return nil
		}
		mc.step(t)
		if mc.now%windowCycles == 0 {
			flush()
		}
	}
	if mc.allDone() {
		flush()
		return nil
	}
	return fmt.Errorf("bench: hand-stepped %s did not finish within %d cycles", workload, horizon)
}

// stepStats is what one hand-stepped rep measured about the host.
type stepStats struct {
	setupNS, stepNS, harvestNS int64
	timer                      stepTimer
	prefilled                  int64
}

// stepRun is chip.RunCtx by hand: build, warm up, reset, measure, harvest.
// It returns a chip.Results filled the way RunCtx fills it, so the two are
// compared through one digest.
func stepRun(spec chip.Spec, log *SpanLog, workload string) (*chip.Results, *stepStats, error) {
	st := &stepStats{}
	rep := log.begin(workload, "rep", 0)
	defer log.end(rep)

	sp := log.begin(workload, "setup", rep)
	mc := buildMachine(spec)
	st.setupNS = log.end(sp)
	st.prefilled = mc.prefilled

	t := &st.timer
	stepStart := log.now()
	t.start()
	reset := func() {
		mc.done = 0
		for _, c := range mc.cores {
			c.ResetStats(spec.MeasureOps)
		}
	}
	if spec.WarmupOps > 0 {
		sp = log.begin(workload, "warm-up", rep)
		err := mc.runPhase(t, log, workload, sp)
		log.end(sp)
		if err != nil {
			return nil, nil, err
		}
		mc.sys.ResetStats()
	}
	reset()
	measureStart := mc.now
	sp = log.begin(workload, "measured", rep)
	err := mc.runPhase(t, log, workload, sp)
	log.end(sp)
	if err != nil {
		return nil, nil, err
	}
	st.stepNS = log.now() - stepStart

	sp = log.begin(workload, "harvest", rep)
	res := mc.harvest(measureStart)
	st.harvestNS = log.end(sp)
	return res, st, nil
}

// harvest fills a chip.Results from the stepped machine, field for field
// as chip.RunCtx does after its measured phase.
func (mc *machine) harvest(measureStart sim.Cycle) *chip.Results {
	res := &chip.Results{Spec: mc.spec}
	var lastFinish sim.Cycle
	for _, c := range mc.cores {
		if c.FinishedAt > lastFinish {
			lastFinish = c.FinishedAt
		}
		res.Cores = append(res.Cores, chip.CoreStats{
			Retired: c.Retired, Loads: c.Loads, Stores: c.Stores,
			Misses: c.Misses, StallCycles: c.StallCycles, FinishedAt: c.FinishedAt,
		})
	}
	res.Cycles = lastFinish - measureStart
	if res.Cycles <= 0 {
		res.Cycles = mc.now - measureStart
	}
	n := len(mc.cores)
	opts := mc.spec.Variant.Opts
	res.Msgs = mc.sys.MsgsTotal()
	res.Lat = mc.sys.LatTotal()
	if mc.sys.Mgr != nil {
		st := mc.sys.Mgr.StatsTotal()
		res.Circ = &st
	}
	res.Events = mc.sys.Net.EventsTotal()
	res.Energy = power.NetworkEnergy(&res.Events, n, opts, int64(res.Cycles))
	res.AreaSavings = power.AreaSavings(n, opts)
	res.SimCycles = mc.now
	res.Metrics = mc.reg.Snapshot(mc.now)
	res.L1Hits = res.Metrics.Value("l1/hits")
	res.L1Misses = res.Metrics.Value("l1/misses")
	res.L2Hits = res.Metrics.Value("l2/hits")
	res.L2Misses = res.Metrics.Value("l2/misses")
	if res.Cycles > 0 {
		res.InjRate = float64(res.Events.LinkFlits) / float64(res.Cycles) / float64(n)
	}
	return res
}
