package noc

import (
	"fmt"

	"reactivenoc/internal/sim"
)

// linkDelay is the number of cycles after the sending cycle at which a flit
// becomes visible at the receiving router: one cycle on the wire (Table 4:
// 1-cycle links) plus the receiving register. Together with the 4-stage
// pipeline this yields the paper's 5 cycles/hop for buffered traffic and
// 2 cycles/hop for circuit traffic (1 cycle in the router + the link).
const linkDelay = 2

// Link is a unidirectional flit pipeline between a router output port and
// the neighbouring input port (or an NI). At most one flit enters per cycle.
type Link struct {
	q ring[linkSlot]
	// lastSend guards the one-flit-per-cycle physical constraint.
	lastSend sim.Cycle
	hasSent  bool
	// wake revives the receiving component when a flit enters the wire, so
	// the activity-tracked kernel ticks it while anything is in flight.
	wake func()
	// lanes > 1 divides the wire into equal-width SDM lanes: a flit on a
	// 1/lanes-width lane serializes over lanes cycles, so its traversal
	// stretches by lanes-1 cycles and the lane refuses a new flit until the
	// previous one has fully left the sender (laneNext).
	lanes    int
	laneNext []sim.Cycle
}

// SetWake installs the receiver's wake callback (nil clears it).
func (l *Link) SetWake(fn func()) { l.wake = fn }

// SetLanes divides the link into n equal-width lanes (n <= 1 leaves it
// undivided). Flits carry their lane in Flit.Lane; senders must check
// LaneFree before driving a divided link.
func (l *Link) SetLanes(n int) {
	if n <= 1 {
		l.lanes, l.laneNext = 0, nil
		return
	}
	l.lanes = n
	l.laneNext = make([]sim.Cycle, n)
}

// LaneFree reports whether the given lane can accept a flit at cycle now.
// Undivided links are always free — the one-flit-per-cycle rule is enforced
// by Send itself.
func (l *Link) LaneFree(lane int, now sim.Cycle) bool {
	if l.lanes <= 1 {
		return true
	}
	return l.laneNext[lane] <= now
}

type linkSlot struct {
	f       *Flit
	readyAt sim.Cycle
}

// Send puts f on the wire during cycle now. It panics if the link is driven
// twice in one cycle, which would indicate an allocator bug.
func (l *Link) Send(f *Flit, now sim.Cycle) { l.SendDelayed(f, now, 0) }

// SendDelayed puts f on the wire with extra cycles of traversal delay on
// top of the link latency — the fault injector's link-stall seam. Recv pops
// in FIFO order, so a delayed flit also holds back everything sent after it.
func (l *Link) SendDelayed(f *Flit, now sim.Cycle, extra sim.Cycle) {
	if l.hasSent && l.lastSend == now {
		panic(fmt.Sprintf("noc: link driven twice in cycle %d", now))
	}
	l.hasSent = true
	l.lastSend = now
	if l.lanes > 1 {
		if f.Lane < 0 || f.Lane >= l.lanes {
			panic(fmt.Sprintf("noc: flit on lane %d of a %d-lane link", f.Lane, l.lanes))
		}
		if l.laneNext[f.Lane] > now {
			panic(fmt.Sprintf("noc: lane %d driven at cycle %d while busy until %d",
				f.Lane, now, l.laneNext[f.Lane]))
		}
		l.laneNext[f.Lane] = now + sim.Cycle(l.lanes)
		// The 1/lanes-width lane needs lanes cycles to serialize the flit;
		// the first sub-flit spends linkDelay on the wire, the last arrives
		// lanes-1 cycles later.
		extra += sim.Cycle(l.lanes - 1)
	}
	l.q.Push(linkSlot{f: f, readyAt: now + linkDelay + extra})
	if l.wake != nil {
		l.wake()
	}
}

// Recv returns the flit that completes traversal at cycle now, or nil.
func (l *Link) Recv(now sim.Cycle) *Flit {
	if l.q.Len() == 0 || l.q.Front().readyAt > now {
		return nil
	}
	return l.q.Pop().f
}

// Busy reports whether any flit is still in flight.
func (l *Link) Busy() bool { return l.q.Len() > 0 }

// CreditLink carries flow-control credits (and piggybacked circuit-undo
// tokens) in the direction opposite to its paired flit link. Credits have
// the same wire latency as flits.
type CreditLink struct {
	q    ring[creditSlot]
	wake func()
}

// SetWake installs the receiver's wake callback (nil clears it).
func (l *CreditLink) SetWake(fn func()) { l.wake = fn }

type creditSlot struct {
	c       Credit
	readyAt sim.Cycle
}

// Send puts credit c on the wire during cycle now. Multiple credits may
// share a cycle: a buffer credit and a piggybacked undo, or undo tokens for
// distinct circuits, travel on dedicated sideband wires.
func (l *CreditLink) Send(c Credit, now sim.Cycle) {
	l.q.Push(creditSlot{c: c, readyAt: now + linkDelay})
	if l.wake != nil {
		l.wake()
	}
}

// Recv pops the next credit arriving at or before cycle now. Receivers loop
// until ok is false; the pop-one shape keeps the drain allocation-free
// (the old batch API built a fresh []Credit per cycle per port).
func (l *CreditLink) Recv(now sim.Cycle) (Credit, bool) {
	if l.q.Len() == 0 || l.q.Front().readyAt > now {
		return Credit{}, false
	}
	return l.q.Pop().c, true
}

// Busy reports whether any credit is still in flight.
func (l *CreditLink) Busy() bool { return l.q.Len() > 0 }
