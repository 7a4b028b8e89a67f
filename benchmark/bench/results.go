package bench

import (
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/core"
)

// digest condenses what a run produced — makespan, total cycles, message
// mix, link flits, cache counters, circuit statistics and the latency
// means — into a string two equal runs must share. It is the benchmark's
// output check: every rep of a workload, the armed rep, the hand-stepped
// rep and a served result are compared through it.
func digest(r *chip.Results) string {
	total, reqs := r.Msgs.Totals()
	s := fmt.Sprintf("cyc=%d sim=%d msgs=%d/%d flits=%d l1=%d/%d l2=%d/%d lat=%.6f/%.6f/%.6f/%.6f",
		r.Cycles, r.SimCycles, total, reqs, r.Events.LinkFlits,
		r.L1Hits, r.L1Misses, r.L2Hits, r.L2Misses,
		r.Lat.Requests.Network.Mean(), r.Lat.Requests.Queueing.Mean(),
		r.Lat.CircuitReplies.Network.Mean(), r.Lat.OtherReplies.Network.Mean())
	if c := r.Circ; c != nil {
		s += fmt.Sprintf(" circ=%v built=%d undone=%d fail=%d/%d acks=%d wait=%d",
			c.Replies, c.CircuitsBuilt, c.CircuitsUndone,
			c.ReserveFailedStorage, c.ReserveFailedConflict, c.EliminatedAcks, c.WaitedForWindow)
	}
	return s
}

// simEndToEnd is the simulated half of the end-to-end metrics for one run.
type simEndToEnd struct {
	cycles, replyLat, energyUJ float64
}

func simOf(r *chip.Results) simEndToEnd {
	return simEndToEnd{
		cycles:   float64(r.Cycles),
		replyLat: r.Lat.CircuitReplies.Network.Mean(),
		energyUJ: r.Energy.Total() / 1e6, // picojoules
	}
}

// meanSim averages per-run simulated metrics (serve16's fixed job set).
func meanSim(rs []*chip.Results) simEndToEnd {
	var m simEndToEnd
	for _, r := range rs {
		s := simOf(r)
		m.cycles += s.cycles
		m.replyLat += s.replyLat
		m.energyUJ += s.energyUJ
	}
	n := float64(len(rs))
	return simEndToEnd{m.cycles / n, m.replyLat / n, m.energyUJ / n}
}

func (s simEndToEnd) into(p *Pass) {
	p.set("sim_cycles", s.cycles)
	p.set("reply_net_latency_cycles", s.replyLat)
	p.set("net_energy_uj", s.energyUJ)
}

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// simCounts writes the per-layer simulated counts of one run. base, when
// non-nil, is the Baseline run of the same chip, app and seed.
func simCounts(p *Pass, r, base *chip.Results) {
	var retired, stalls int64
	for _, c := range r.Cores {
		retired += c.Retired
		stalls += c.StallCycles
	}
	p.set("cpu.ipc", r.IPC())
	p.set("cpu.stall_pct", pct(float64(stalls), float64(r.Cycles)*float64(len(r.Cores))))
	p.set("coherence.l1.miss_pct", pct(float64(r.L1Misses), float64(r.L1Hits+r.L1Misses)))
	p.set("coherence.l2.miss_pct", pct(float64(r.L2Misses), float64(r.L2Hits+r.L2Misses)))
	p.set("coherence.l2.blocked_cycles", float64(r.Metrics.Value("l2/blocked_cycles")))
	p.set("coherence.mc.fetches", float64(r.Metrics.Value("mem/fetches")))
	total, _ := r.Msgs.Totals()
	p.set("noc.msgs", float64(total))
	p.set("noc.link_flits", float64(r.Events.LinkFlits))
	p.set("noc.inj_flits_per_node_cycle", r.InjRate)
	if c := r.Circ; c != nil {
		var reserved int64
		for _, n := range c.Ordinals {
			reserved += n
		}
		failed := c.ReserveFailedStorage + c.ReserveFailedConflict
		p.set("core.circuits_built", float64(c.CircuitsBuilt))
		p.set("core.reserve_fail_pct", pct(float64(failed), float64(failed+reserved)))
		p.set("core.undone_pct", pct(float64(c.CircuitsUndone), float64(c.CircuitsBuilt)))
		p.set("core.acks_eliminated", float64(c.EliminatedAcks))
		p.set("core.window_wait_cycles", float64(c.WaitedForWindow))
		p.set("sim.circuit_reply_pct", 100*c.OutcomeFraction(core.OutcomeCircuit))
	}
	if base != nil {
		p.set("sim.speedup_vs_baseline_pct", (r.Speedup(base)-1)*100)
		p.set("sim.energy_vs_baseline", r.Energy.Total()/base.Energy.Total())
	}
}
