// Package fault implements a deterministic, seedable fault injector for
// chaos-testing the simulator's corruption detectors. An Injector plugs
// into the network fabric as a noc.FaultHook and into the circuit manager
// as a core.FaultHook; each armed Plan corrupts a bounded number of
// hardware events of one class, and every injection is logged so tests can
// assert that the audits, the watchdog, or a contained invariant panic
// caught it — and that nothing escaped silently into the results.
package fault

import (
	"fmt"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// Class enumerates the injectable corruption classes.
type Class uint8

const (
	// FlipBuiltBit clears the built (B) bit of a freshly installed circuit
	// entry: the NI registry still advertises the circuit, so the reply
	// arrives expecting a reservation the router no longer has.
	FlipBuiltBit Class = iota
	// DropUndoToken swallows a circuit-undo token mid-walk, stranding the
	// rest of the teardown and leaking the downstream entries.
	DropUndoToken
	// TruncateWindow collapses a timed entry's reservation window so it
	// expires before the scheduled reply can arrive.
	TruncateWindow
	// WithholdCredit suppresses one buffer-credit return, permanently
	// shrinking an upstream credit counter.
	WithholdCredit
	// StallLink freezes one flit on a link; FIFO delivery stalls every
	// later flit behind it, starving the consumers downstream.
	StallLink
	// ReorderReply holds a NoAck data reply in its L1's input queue, so
	// that a message its bank sent the L1 afterwards is taken first.
	ReorderReply

	// NumClasses bounds the enumeration.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case FlipBuiltBit:
		return "flip-built-bit"
	case DropUndoToken:
		return "drop-undo-token"
	case TruncateWindow:
		return "truncate-window"
	case WithholdCredit:
		return "withhold-credit"
	case StallLink:
		return "stall-link"
	case ReorderReply:
		return "reorder-reply"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Plan configures the faults one run injects. The zero value of every
// field is the permissive default: fire immediately, once, anywhere.
type Plan struct {
	// Class selects the corruption to inject.
	Class Class
	// Seed varies which eligible hardware event fires for a fixed spec:
	// a non-zero seed skips a seed-derived number of eligible events
	// first (0 = fire on the first eligible event).
	Seed uint64
	// After arms the injector: no fault fires before this cycle.
	After sim.Cycle
	// Count caps the number of injections (<= 0 means one).
	Count int
	// OnRouter restricts injection to router id OnRouter-1 (0 = any).
	OnRouter int
	// Stall is the extra wire delay of StallLink faults in cycles
	// (<= 0 means effectively forever).
	Stall sim.Cycle
}

// Event logs one injected fault.
type Event struct {
	Class  Class
	Router mesh.NodeID
	Cycle  sim.Cycle
	Detail string
}

// String renders the event for failure reports.
func (e Event) String() string {
	return fmt.Sprintf("cycle %d router %d: %s (%s)", e.Cycle, e.Router, e.Class, e.Detail)
}

// Injector deterministically corrupts hardware events per its Plan. It
// implements noc.FaultHook, core.FaultHook and coherence.FaultHook; wire
// it with Network.SetFaultHook, Manager.SetFaultHook and
// System.SetFaultHook.
type Injector struct {
	plan   Plan
	left   int
	skip   int
	events []Event
}

var (
	_ noc.FaultHook       = (*Injector)(nil)
	_ core.FaultHook      = (*Injector)(nil)
	_ coherence.FaultHook = (*Injector)(nil)
)

// New builds an injector for the plan.
func New(p Plan) *Injector {
	if p.Count <= 0 {
		p.Count = 1
	}
	j := &Injector{plan: p, left: p.Count}
	// A non-zero seed picks which of the eligible events fire by skipping
	// a small deterministic prefix of them.
	if p.Seed != 0 {
		j.skip = int(sim.NewRNG(p.Seed).Uint64() % 4)
	}
	return j
}

// Events returns the log of injected faults, in injection order.
func (j *Injector) Events() []Event { return j.events }

// fire decides whether an eligible event of the given class at the given
// router corrupts, logging it when it does.
func (j *Injector) fire(class Class, router mesh.NodeID, now sim.Cycle, detail string) bool {
	if class != j.plan.Class || j.left <= 0 || now < j.plan.After {
		return false
	}
	if j.plan.OnRouter > 0 && int(router) != j.plan.OnRouter-1 {
		return false
	}
	if j.skip > 0 {
		j.skip--
		return false
	}
	j.left--
	j.events = append(j.events, Event{Class: class, Router: router, Cycle: now, Detail: detail})
	return true
}

// DropUndo implements noc.FaultHook.
func (j *Injector) DropUndo(id mesh.NodeID, tok *noc.UndoToken, now sim.Cycle) bool {
	return j.fire(DropUndoToken, id, now,
		fmt.Sprintf("undo token for circuit (%d,%#x) dropped", tok.Dest, tok.Block))
}

// WithholdCredit implements noc.FaultHook.
func (j *Injector) WithholdCredit(id mesh.NodeID, in mesh.Dir, now sim.Cycle) bool {
	return j.fire(WithholdCredit, id, now,
		fmt.Sprintf("credit through input %v withheld", in))
}

// StallFlit implements noc.FaultHook.
func (j *Injector) StallFlit(id mesh.NodeID, out mesh.Dir, now sim.Cycle) sim.Cycle {
	if !j.fire(StallLink, id, now, fmt.Sprintf("flit on output %v stalled", out)) {
		return 0
	}
	stall := j.plan.Stall
	if stall <= 0 {
		stall = 1 << 40 // effectively forever
	}
	return stall
}

// FlipBuiltBit implements core.FaultHook.
func (j *Injector) FlipBuiltBit(id mesh.NodeID, now sim.Cycle) bool {
	return j.fire(FlipBuiltBit, id, now, "built bit of fresh entry cleared")
}

// TruncateWindow implements core.FaultHook.
func (j *Injector) TruncateWindow(id mesh.NodeID, start, end, now sim.Cycle) (sim.Cycle, bool) {
	if !j.fire(TruncateWindow, id, now,
		fmt.Sprintf("window [%d,%d] truncated to end at %d", start, end, now)) {
		return 0, false
	}
	return now, true // the entry expires before its reply can arrive
}

// replyHold is a ReorderReply fault's extra queueing: long enough for the
// bank to send the held reply's L1 something else meanwhile.
const replyHold = 2000

// DelayReply implements coherence.FaultHook.
func (j *Injector) DelayReply(tile mesh.NodeID, now sim.Cycle) sim.Cycle {
	if !j.fire(ReorderReply, tile, now, "NoAck data reply held in the L1 queue") {
		return 0
	}
	return replyHold
}
