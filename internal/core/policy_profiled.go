package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// profiledPolicy implements profiled hybrid switching (PAPERS.md:
// "Energy-Efficient On-Chip Networks through Profiled Hybrid Switching"):
// a per-flow circuit-vs-packet decision driven by the observed outcomes of
// past replies. Flows whose circuits keep failing stop paying the
// reservation cost — their requests travel as plain packets for a backoff
// period before the flow is re-admitted and re-profiled.
//
// Mechanically it is the complete mechanism — same traits, same network —
// with a filter at the first router of each reservation walk: a demoted
// flow's request drops its WantCircuit bit before anything is reserved, so
// no table entry, registry record, or undo walk ever exists for it and
// every complete-circuit oracle keeps holding for the admitted flows.
type profiledPolicy struct {
	completePolicy

	window  int // replies profiled per decision window
	pct     int // minimum circuit-ride percentage to stay admitted
	backoff int // demoted requests before re-admission

	flows map[flowKey]*flowProfile

	// Counters exported under circ/.
	circuitReqs int64
	packetReqs  int64
	demotions   int64
}

// flowKey identifies a request flow by its endpoints.
type flowKey struct {
	src, dst mesh.NodeID
}

type flowProfile struct {
	packetMode bool
	backoff    int // demoted requests remaining before re-admission
	winDone    int // replies observed this window
	winWins    int // replies that rode a circuit this window
}

// Validate checks the profiling knobs (the complete rules are shared).
func (p *profiledPolicy) Validate(o *Options) error {
	if o.ProfileWindow < 0 || o.ProfileThresholdPct < 0 || o.ProfileBackoff < 0 {
		return fmt.Errorf("core: negative profiled-hybrid parameters")
	}
	if o.ProfileThresholdPct > 100 {
		return fmt.Errorf("core: ProfileThresholdPct is a percentage (0-100)")
	}
	return nil
}

func (p *profiledPolicy) Attach(mg *Manager) {
	p.window = orDefault(mg.opts.ProfileWindow, 32)
	p.pct = orDefault(mg.opts.ProfileThresholdPct, 50)
	p.backoff = orDefault(mg.opts.ProfileBackoff, 128)
	p.flows = map[flowKey]*flowProfile{}
}

func (p *profiledPolicy) DescribeMetrics(reg *sim.Registry) {
	reg.Counter("circ/profiled_circuit_requests", &p.circuitReqs)
	reg.Counter("circ/profiled_packet_requests", &p.packetReqs)
	reg.Counter("circ/profiled_demotions", &p.demotions)
}

// Arbitrate consults the flow profile at the first router of the walk: an
// admitted flow reserves like a complete circuit; a demoted flow's request
// declines, abandoning the walk before any state exists.
func (p *profiledPolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	if w.routers == 1 && !p.admit(msg) {
		return declined
	}
	return p.completePolicy.Arbitrate(mg, id, msg, port, e, w, now)
}

// admit decides circuit vs packet for one request and advances the
// demotion backoff. The flow map is only ever indexed by key, never
// iterated, so the policy stays deterministic.
func (p *profiledPolicy) admit(msg *noc.Message) bool {
	key := flowKey{src: msg.Src, dst: msg.Dst}
	f := p.flows[key]
	if f == nil {
		f = &flowProfile{}
		p.flows[key] = f
	}
	if f.packetMode {
		p.packetReqs++
		f.backoff--
		if f.backoff <= 0 {
			// Re-admit and re-profile from a clean window.
			f.packetMode = false
			f.winDone, f.winWins = 0, 0
		}
		return false
	}
	p.circuitReqs++
	return true
}

// Observe learns from one classified reply of an admitted flow (the reply's
// endpoints are the request's swapped): when a decision window closes with
// too few circuit rides, the flow is demoted for the backoff period.
// Replies are classified in the NI phase and admit runs in the router
// phase, so a demotion first applies to the next cycle's requests.
func (p *profiledPolicy) Observe(mg *Manager, msg *noc.Message, o Outcome) {
	switch o {
	case OutcomeCircuit, OutcomeFailed, OutcomeUndone:
	default:
		return // scroungers/eliminated/not-eligible say nothing about this flow
	}
	f := p.flows[flowKey{src: msg.Dst, dst: msg.Src}]
	if f == nil || f.packetMode {
		return
	}
	f.winDone++
	if o == OutcomeCircuit {
		f.winWins++
	}
	if f.winDone >= p.window {
		if f.winWins*100 < p.pct*f.winDone {
			f.packetMode = true
			f.backoff = p.backoff
			p.demotions++
		}
		f.winDone, f.winWins = 0, 0
	}
}
