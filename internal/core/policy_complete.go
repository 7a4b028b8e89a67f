package core

import (
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// completePolicy is the paper's complete-circuit mechanism (Section 4.2,
// second alternative): all-or-nothing reservation on an unbuffered reply
// circuit VC, optionally timed/slacked/delayed/postponed (Section 4.7). It
// honours every optimization and obeys every feasible-router oracle; timed
// entries self-expire, so only untimed ones must be accounted for as leaks.
type completePolicy struct{ basePolicy }

func (completePolicy) Traits(o *Options) Traits {
	return Traits{
		Mech: MechComplete, Timed: true, Reuse: true, NoAck: true,
		ConflictChecked: true, RegistryChecked: true, LeakChecked: !o.Timed,
	}
}

func (completePolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1
	cfg.CircuitVCUnbuffered = true
	cfg.RepRouting = mesh.RouteYX
}

// Arbitrate applies the output-port rule, over the reply's predicted time
// window when timed.
func (completePolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	if !mg.opts.Timed {
		return portRule(mg, id, port, e, now)
	}
	start, end, lo, hi, ok := mg.timedWindow(id, msg, port, e.out, w, now)
	if !ok {
		return conflict
	}
	e.winStart, e.winEnd, w.injLo, w.injHi = start, end, lo, hi
	return granted
}

// timedWindow computes this router's reservation window, applying the
// variant's slack, delay search and postponement, and intersecting the
// injection constraints accumulated along the path. inUnit is the input
// unit holding the new entry (the request's output port) and outPort the
// entry's output port (the request's input port).
func (mg *Manager) timedWindow(id mesh.NodeID, msg *noc.Message, inUnit, outPort mesh.Dir, w *walk, now sim.Cycle) (s, e, lo, hi sim.Cycle, ok bool) {
	h := sim.Cycle(mg.m.Hops(id, msg.Dst))
	size := sim.Cycle(msg.ExpectedReplySize)
	if size <= 0 {
		size = 1
	}
	H := sim.Cycle(mg.m.Hops(msg.Src, msg.Dst))
	slackTot := sim.Cycle(mg.opts.SlackPerHop) * H
	delayTot := sim.Cycle(mg.opts.DelayPerHop) * H
	if delayTot > slackTot {
		delayTot = slackTot // delays must stay inside downstream slack
	}
	postTot := sim.Cycle(mg.opts.PostponePerHop) * H

	var base sim.Cycle
	if mg.opts.PostponePerHop > 0 {
		// Postponed circuits pin the reply's injection cycle at the
		// first router; every later router reserves the exact slot that
		// schedule implies, immune to request jitter.
		if !w.hasSched {
			head := now + (reqHopLatency+repHopLatency)*h + msg.ExpectedProcDelay +
				estimateOverhead + sim.Cycle(msg.Size-1)
			w.sched = head - repHopLatency*h - injectLead + postTot
			w.hasSched = true
		}
		base = w.sched + injectLead + repHopLatency*h
	} else {
		base = now + (reqHopLatency+repHopLatency)*h + msg.ExpectedProcDelay +
			estimateOverhead + sim.Cycle(msg.Size-1) + msg.AccumDelay
	}

	tb := mg.tables[id]
	maxDelta := delayTot - msg.AccumDelay
	if maxDelta < 0 {
		maxDelta = 0
	}
	for delta := sim.Cycle(0); delta <= maxDelta; delta++ {
		start := base + delta
		end := start + size - 1 + slackTot
		// Injection constraint from this router: the reply injected at
		// cycle t sees this router at t + injectLead + repHopLatency*h,
		// which must fall in [start, start+slackTot].
		cLo := start - repHopLatency*h - injectLead
		cHi := cLo + slackTot
		nLo, nHi := max(w.injLo, cLo), min(w.injHi, cHi)
		if nLo <= nHi && !tb.conflict(inUnit, outPort, start, end, now) {
			msg.AccumDelay += delta
			return start, end, nLo, nHi, true
		}
		if mg.opts.DelayPerHop == 0 {
			break // no delay search in the basic/slack-only variants
		}
	}
	return 0, 0, 0, 0, false
}
