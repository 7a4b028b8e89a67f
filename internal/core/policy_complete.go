package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// completeFamily is the shared behaviour of every all-or-nothing policy:
// the complete mechanism itself, the ideal upper bound (which overrides
// reservation and teardown) and the profiled hybrid (which filters flows
// before delegating here). One failed router fails the whole circuit.
type completeFamily struct{ basePolicy }

// Reserve installs this router's reversed entry, applying the timed-window
// machinery when enabled; any rejection fails the whole circuit.
func (completeFamily) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	mg.reserveComplete(id, msg, in, out, w, now)
}

// Confirm finalizes an all-or-nothing walk: the record is complete exactly
// when no router failed, and timed records carry the accumulated injection
// window.
func (completeFamily) Confirm(mg *Manager, ni mesh.NodeID, msg *noc.Message, rec *record, w *walk) {
	rec.complete = !msg.BuildFailed
	rec.failed = msg.BuildFailed
	rec.injectVC = mg.circuitVC()
	if rec.complete {
		mg.Stats.CircuitsBuilt++
	}
	if mg.opts.Timed && rec.complete {
		rec.timed = true
		rec.injStart, rec.injEnd = w.injLo, w.injHi
	}
}

// Inject rides the reply on its own circuit (observing timed windows and
// riding scroungers), or falls back to the shared scrounge/classify path.
func (completeFamily) Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	key := circKey{dest: msg.Dst, block: msg.Block}
	rec := mg.regs[ni][key]
	if rec == nil {
		return mg.injectFallback(ni, msg, now)
	}
	if rec.failed {
		delete(mg.regs[ni], key)
		mg.classify(msg, OutcomeFailed)
		return now
	}
	if rec.inUse {
		return now + 1 // a scrounger is riding; wait for it to clear
	}
	if rec.timed {
		if now > rec.injEnd {
			// Missed the slot (cache delays, blocked lines): undo the
			// circuit and use the normal pipeline (Section 4.7).
			delete(mg.regs[ni], key)
			mg.Stats.CircuitsUndone++
			mg.classify(msg, OutcomeUndone)
			if mg.tracer != nil {
				mg.tracer.Record(now, trace.CircuitUndone, msg.ID, ni,
					fmt.Sprintf("missed window [%d,%d]", rec.injStart, rec.injEnd))
			}
			return now
		}
		if now < rec.injStart {
			mg.Stats.WaitedForWindow++
			return rec.injStart
		}
	}
	delete(mg.regs[ni], key)
	msg.UseCircuit = true
	msg.InjectVC = rec.injectVC
	msg.CircDest = msg.Dst
	msg.CircBlock = msg.Block
	mg.classify(msg, OutcomeCircuit)
	if mg.tracer != nil {
		mg.tracer.Record(now, trace.CircuitRide, msg.ID, ni,
			fmt.Sprintf("dest=%d block=%#x", msg.Dst, msg.Block))
	}
	return now
}

// Teardown reclaims an abandoned circuit with the default credit walk;
// timed entries instead self-expire when their finish counters run out.
func (p completeFamily) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	if mg.opts.Timed {
		return
	}
	p.basePolicy.Teardown(mg, rec, now)
}

func (completeFamily) ConflictChecked() bool { return true }
func (completeFamily) RegistryChecked() bool { return true }
func (completeFamily) LeakChecked(o *Options) bool {
	return !o.Timed // timed entries self-expire; untimed must be accounted for
}

// completePolicy is the paper's complete-circuit mechanism (Section 4.2,
// second alternative): all-or-nothing reservation on an unbuffered reply
// circuit VC, optionally timed/slacked/delayed/postponed (Section 4.7).
type completePolicy struct{ completeFamily }

func (completePolicy) Name() string { return "complete" }

func (completePolicy) Validate(o *Options) error {
	if o.Mechanism != MechComplete {
		return fmt.Errorf("core: policy %q requires the complete mechanism", "complete")
	}
	if err := validateNotSpeculative(o); err != nil {
		return err
	}
	if o.MaxCircuitsPerPort <= 0 {
		return fmt.Errorf("core: complete circuits need MaxCircuitsPerPort > 0")
	}
	return validateTimed(o)
}

func (completePolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1
	cfg.CircuitVCUnbuffered = true
	cfg.RepRouting = mesh.RouteYX
}

// ---------------------------------------------------------------------------
// Reservation machinery shared by the complete family
// ---------------------------------------------------------------------------

func (mg *Manager) reserveComplete(id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	if msg.BuildFailed {
		return // a failed all-or-nothing circuit reserves nothing further
	}
	tb := mg.tables[id]
	cvc := mg.circuitVC()

	winStart, winEnd := sim.Cycle(0), noWindow
	injLo, injHi := w.injLo, w.injHi
	if mg.opts.Timed {
		var ok bool
		winStart, winEnd, injLo, injHi, ok = mg.timedWindow(id, msg, out, in, w, now)
		if !ok {
			mg.failCircuit(id, msg, in, now, &mg.Stats.ReserveFailedConflict)
			return
		}
	} else if tb.conflict(out, in, winStart, winEnd, now) {
		mg.failCircuit(id, msg, in, now, &mg.Stats.ReserveFailedConflict)
		return
	}

	outVC := cvc
	e := entry{
		built: true, dest: msg.Src, block: msg.Block,
		out: in, outVC: outVC, vc: cvc,
		winStart: winStart, winEnd: winEnd,
	}
	ins, ord := tb.insert(out, e, mg.opts.MaxCircuitsPerPort, now)
	if ins == nil {
		mg.failCircuit(id, msg, in, now, &mg.Stats.ReserveFailedStorage)
		return
	}
	if mg.fault != nil {
		if ins.timed() {
			if end, ok := mg.fault.TruncateWindow(id, ins.winStart, ins.winEnd, now); ok {
				ins.winEnd = end
			}
		}
		if mg.fault.FlipBuiltBit(id, now) {
			ins.built = false
		}
	}
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
	w.injLo, w.injHi = injLo, injHi
	w.lastReserved = true
	if mg.tracer != nil {
		note := fmt.Sprintf("in=%v out=%v", out, in)
		if mg.opts.Timed {
			note += fmt.Sprintf(" window=[%d,%d]", winStart, winEnd)
		}
		mg.tracer.Record(now, trace.Reserve, msg.ID, id, note)
	}
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
	H := sim.Cycle(mg.pathHops(msg))
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
		nLo, nHi := maxCycle(w.injLo, cLo), minCycle(w.injHi, cHi)
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

// failCircuit marks an all-or-nothing reservation failed and tears down the
// prefix reserved so far. Non-timed prefixes are undone with credits
// walking toward the circuit destination; timed prefixes self-expire when
// their finish counters run out.
func (mg *Manager) failCircuit(id mesh.NodeID, msg *noc.Message, in mesh.Dir, now sim.Cycle, counter *int64) {
	msg.BuildFailed = true
	*counter++
	if mg.opts.Timed || in == mesh.Local {
		return
	}
	tok := &noc.UndoToken{Dest: msg.Src, Block: msg.Block}
	mg.net.Router(id).SendUndoCredit(in, tok, now)
}
