// Package bench is rcbench's library: the workload and metric catalogue
// that BENCHMARK.json mirrors, the six workloads, the hand-stepped traced
// machine, the isolated rigs, and the report/compare code. It drives the
// simulator only through the packages' exported surface.
package bench

import (
	"fmt"
	"sort"
)

// Better is the direction in which a metric improves.
const (
	Lower  = "lower"
	Higher = "higher"
)

// MetricDef describes one metric. BENCHMARK.json carries Name, Unit, Better
// (and Bound for end-to-end metrics); the rest documents and drives
// -compare.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a simulated metric: a deterministic function of the seed
	// and the simulated machine, so two runs of one commit at one seed must
	// agree to the last digit and -compare treats any drift as a
	// regression of the model, not of the host.
	Exact bool `json:"exact,omitempty"`
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload on which it mainly does.
	Moves string `json:"moves,omitempty"`
}

// WorkloadDef names a workload and why it is in the benchmark.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads is the fixed workload list, in run order.
var Workloads = []WorkloadDef{
	{"light64", "Paper's light-load regime (64-core Complete_NoAck, swaptions): most routers sleep, so cores, L1 hits, stream generation and the kernel's idle scan dominate host time"},
	{"packet64", "Saturating packet-switched traffic (64-core Baseline, canneal): router pipeline, NI queues and L2 banks dominate; no circuit layer, so circuit-layer changes must not move it"},
	{"circuit64", "packet64's traffic through SlackDelay_1_NoAck circuits: reservation, bypass, undo and timed windows on the same routers; with packet64 it gives the simulated speedup"},
	{"mesh256", "Scaling point (256-core Complete_NoAck, micro): state far larger than host caches, and chip construction plus prefill a large share of every run"},
	{"sweep64", "A Fig 9 sweep as rcsweep runs it (64-core, 3 variants x 4 apps, 2 workers): many short runs where per-run set-up and allocation matter; the only workload with a paper reference"},
	{"serve16", "Two closed-loop HTTP clients on an in-process rcserved, 30% fresh and 70% repeated jobs: fingerprint, admission, cache, queue, JSON and the client's poll loop; almost no simulation"},
}

// EndToEnd is what a user of the simulator sees. Every workload reports
// every one of them. The first four are host time and memory; the last
// three are simulated (exact for a given seed).
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: Lower, Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: Lower, Bound: 0.25},
	{Name: "sim_kcycles_per_s", Unit: "kcycle/s", Better: Higher, Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: Lower, Bound: 0.03},
	{Name: "sim_cycles", Unit: "cycles", Better: Lower, Bound: 0.2, Exact: true},
	{Name: "reply_net_latency_cycles", Unit: "cycles", Better: Lower, Bound: 0.2, Exact: true},
	{Name: "net_energy_uj", Unit: "uJ", Better: Lower, Bound: 0.2, Exact: true},
}

// classLayers are the component classes the hand-stepper times, in tick
// order; each yields <name>.ns_per_cycle and <name>.ticks_per_cycle.
var classLayers = []struct{ name, moves string }{
	{"noc.router", "sim_kcycles_per_s on packet64 and mesh256; bypass path on circuit64"},
	{"noc.ni", "sim_kcycles_per_s on packet64"},
	{"coherence.l1", "sim_kcycles_per_s on packet64 (miss traffic)"},
	{"coherence.l2", "sim_kcycles_per_s on packet64 and mesh256"},
	{"coherence.mc", "none expected (<1%): a canary"},
	{"cpu.core", "sim_kcycles_per_s on light64"},
}

// PerLayer is the per-module budget: layer = module, prefix = module name.
// A metric that does not apply to a workload reads 0 there.
var PerLayer = buildPerLayer()

func buildPerLayer() []MetricDef {
	var out []MetricDef
	add := func(name, unit, better string, exact bool, moves string) {
		out = append(out, MetricDef{Name: name, Unit: unit, Better: better, Exact: exact, Moves: moves})
	}
	for _, c := range classLayers {
		add(c.name+".ns_per_cycle", "ns/cycle", Lower, false, c.moves)
		add(c.name+".ticks_per_cycle", "1/cycle", Lower, true, c.moves)
	}
	add("core.flush.ns_per_cycle", "ns/cycle", Lower, false, "sim_kcycles_per_s on circuit64; 0 on packet64")
	add("noc.flush.ns_per_cycle", "ns/cycle", Lower, false, "sim_kcycles_per_s; empty loop in the sequential engine")
	add("chip.loop.ns_per_cycle", "ns/cycle", Lower, false, "stepper self time: upper bound on what a scheduler can cost")
	add("chip.setup_ms", "ms", Lower, false, "op_ms_p50 and alloc_mb_per_op on mesh256, sweep64, serve16 misses")
	add("chip.harvest_ms", "ms", Lower, false, "op_ms_p50; negligible everywhere")
	add("chip.prefill_lines", "count", Lower, true, "chip.setup_ms")
	add("trace.overhead_pct", "%", Lower, false, "traced wall vs untraced median; not a program metric")
	add("trace.accounted_pct", "%", Higher, false, "share of the stepping wall the class times plus chip.loop explain")
	add("verify.armed_x", "ratio", Lower, false, "audited and oracle-armed rep over the median unarmed rep")

	sim := func(name, unit, better, moves string) { add(name, unit, better, true, moves) }
	sim("cpu.ipc", "1/cycle", Higher, "sim_cycles")
	sim("cpu.stall_pct", "%", Lower, "sim_cycles")
	sim("coherence.l1.miss_pct", "%", Lower, "sim_cycles")
	sim("coherence.l2.miss_pct", "%", Lower, "sim_cycles")
	sim("coherence.l2.blocked_cycles", "cycles", Lower, "sim_cycles on packet64")
	sim("coherence.mc.fetches", "count", Lower, "sim_cycles")
	sim("noc.msgs", "count", Lower, "net_energy_uj")
	sim("noc.link_flits", "count", Lower, "net_energy_uj")
	sim("noc.inj_flits_per_node_cycle", "1/cycle", Lower, "the load regime: <0.04 on light64, ~0.35 on packet64")
	sim("core.circuits_built", "count", Higher, "sim.circuit_reply_pct on circuit64")
	sim("core.reserve_fail_pct", "%", Lower, "sim.circuit_reply_pct on circuit64 (failed over attempted reservations)")
	sim("core.undone_pct", "%", Lower, "sim.circuit_reply_pct on circuit64")
	sim("core.acks_eliminated", "count", Higher, "sim_cycles on light64 and circuit64")
	sim("core.window_wait_cycles", "cycles", Lower, "reply_net_latency_cycles on circuit64")
	sim("sim.speedup_vs_baseline_pct", "%", Higher, "Fig 9: light64, circuit64, mesh256, sweep64")
	sim("sim.circuit_reply_pct", "%", Higher, "Fig 6: light64, circuit64, mesh256")
	sim("sim.energy_vs_baseline", "ratio", Lower, "Fig 8: light64, circuit64")
	sim("sim.paper_speedup_err_pts", "pct-points", Lower, "sweep64: max |mean speedup - paper 64-core| over Complete and SlackDelay_1_NoAck")

	rig := func(name, unit, better, moves string) { add(name, unit, better, false, moves) }
	rig("sim.kernel.idle_step_ns", "ns", Lower, "sim_kcycles_per_s on light64")
	rig("noc.busy_step_ns", "ns", Lower, "sim_kcycles_per_s on packet64")
	add("noc.flit_hops_per_step", "1/cycle", Higher, true, "the work behind noc.busy_step_ns")
	rig("core.manager.ns_per_call", "ns", Lower, "sim_kcycles_per_s on circuit64 only")
	add("core.manager.calls_per_reply", "count", Lower, true, "core.manager.ns_per_call")
	add("core.manager.reserve_ok_pct", "%", Higher, true, "useful reservations over attempts in the manager rig")
	rig("cache.access_ns", "ns", Lower, "sim_kcycles_per_s on light64")
	rig("workload.next_ns", "ns", Lower, "sim_kcycles_per_s on light64")
	rig("chip.fingerprint_us", "us", Lower, "op_ms_p50 on serve16")
	rig("serve.admit_hit_us", "us", Lower, "op_ms_p50 on serve16")
	rig("serve.admit_miss_us", "us", Lower, "op_ms_p50 on serve16")

	rig("exp.cell_ms_p50", "ms", Lower, "op_ms_p50 on sweep64 only")
	rig("exp.worker_busy_pct", "%", Higher, "op_ms_p50 on sweep64: cell time over workers x wall")
	add("exp.cells", "count", Lower, true, "the sweep's size")

	rig("serve.jobs_per_s", "1/s", Higher, "sim_kcycles_per_s on serve16: completed jobs over the pass's wall time")
	rig("serve.hit_ms_p50", "ms", Lower, "op_ms_p50 on serve16")
	rig("serve.miss_ms_p50", "ms", Lower, "serve.op_ms_p99 on serve16")
	rig("serve.op_ms_p99", "ms", Lower, "the tail a remote sweep waits for; set by misses and the poll back-off")
	rig("serve.polls_per_miss", "count", Lower, "serve.miss_ms_p50")
	rig("serve.cache_hit_pct", "%", Higher, "op_ms_p50 on serve16")
	rig("serve.joined_pct", "%", Higher, "submissions coalesced onto an in-flight twin")
	rig("serve.rejected_429", "count", Lower, "backpressure seen by the clients; 0 at two closed-loop clients")
	return out
}

// defsByName indexes a catalogue.
func defsByName(defs []MetricDef) map[string]MetricDef {
	m := make(map[string]MetricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

// median returns the middle of vs (mean of the two middles for even n).
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// spread is the interquartile distance as a share of the median: the
// noise figure the report prints beside every host-time median.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 4 || med == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
}

// Pass is the outcome of one workload run, untraced (end-to-end metrics)
// or traced (per-layer metrics).
type Pass struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	// Samples is the number of operations behind a metric's median or
	// percentile; Spread the interquartile share of those samples.
	Samples map[string]int     `json:"samples,omitempty"`
	Spread  map[string]float64 `json:"spread,omitempty"`
	// Attempted and Failed count operations and output checks.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	WallS     float64  `json:"wall_s"`
}

func newPass(workload string, seed uint64, traced bool) *Pass {
	return &Pass{Workload: workload, Seed: seed, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Spread: map[string]float64{}}
}

// set records a metric value.
func (p *Pass) set(name string, v float64) { p.Metrics[name] = v }

// setMedian records the median of per-operation samples with their count
// and spread.
func (p *Pass) setMedian(name string, vs []float64) {
	p.Metrics[name] = median(vs)
	p.Samples[name] = len(vs)
	p.Spread[name] = spread(vs)
}

// check counts one output check; a false ok is a failed operation.
func (p *Pass) check(ok bool, format string, args ...any) {
	p.Attempted++
	if !ok {
		p.Failed++
		p.Notes = append(p.Notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// note records a remark that is not a failure.
func (p *Pass) note(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// complete verifies the pass carries every metric of its catalogue; a
// per-layer metric that does not apply to the workload is filled with 0.
func (p *Pass) complete() error {
	if p.Traced {
		for _, d := range PerLayer {
			if _, ok := p.Metrics[d.Name]; !ok {
				p.Metrics[d.Name] = 0
			}
		}
		return p.onlyKnown(PerLayer)
	}
	for _, d := range EndToEnd {
		v, ok := p.Metrics[d.Name]
		if !ok || v == 0 {
			return fmt.Errorf("bench: %s did not produce end-to-end metric %s", p.Workload, d.Name)
		}
	}
	return p.onlyKnown(EndToEnd)
}

func (p *Pass) onlyKnown(defs []MetricDef) error {
	known := defsByName(defs)
	for name := range p.Metrics {
		if _, ok := known[name]; !ok {
			return fmt.Errorf("bench: %s produced metric %s that the catalogue does not name", p.Workload, name)
		}
	}
	return nil
}
