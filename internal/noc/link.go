package noc

import (
	"fmt"

	"reactivenoc/internal/recycle"
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
	wake sim.Waker
	// lanes > 1 divides the wire into equal-width SDM lanes: a flit on a
	// 1/lanes-width lane serializes over lanes cycles, so its traversal
	// stretches by lanes-1 cycles and the lane refuses a new flit until the
	// previous one has fully left the sender (laneNext).
	lanes    int
	laneNext []sim.Cycle
	// rx, when set, is the receiving router's inbound mask and bit this
	// wire's bit in it, held set exactly while a flit is in flight.
	rx  *uint16
	bit uint16
}

// init rebuilds l in place, over a zero link or one a finished run left,
// as an empty wire of the given lanes: only the pipeline's slots and the
// lane array's memory carry over.
func (l *Link) init(lanes int) {
	*l = Link{q: l.q.emptied(), laneNext: l.laneNext}
	l.SetLanes(lanes)
}

// SetLanes divides the link into n equal-width lanes (n <= 1 leaves it
// undivided). Flits carry their lane in Flit.Lane; senders must check
// LaneFree before driving a divided link.
func (l *Link) SetLanes(n int) {
	if n <= 1 {
		l.lanes, l.laneNext = 0, nil
		return
	}
	l.lanes = n
	l.laneNext = recycle.Zeroed(l.laneNext, n)
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
	if l.rx != nil {
		*l.rx |= l.bit
	}
	l.wake.Wake()
}

// Recv returns the flit that completes traversal at cycle now, or nil.
func (l *Link) Recv(now sim.Cycle) *Flit {
	if l.q.Len() == 0 || l.q.Front().readyAt > now {
		return nil
	}
	f := l.q.Pop().f
	if l.rx != nil && l.q.Len() == 0 {
		*l.rx &^= l.bit
	}
	return f
}

// Busy reports whether any flit is still in flight.
func (l *Link) Busy() bool { return l.q.Len() > 0 }

// CreditLink is the credit wire opposite a flit link. Buffer credits do not
// ride it: they land at the cycle boundary (Network.FlushBoundary). What
// remains on the wire is the circuit-undo tokens the paper sends as
// credits, with the same latency as flits.
type CreditLink struct {
	q    ring[undoSlot]
	wake sim.Waker // as Link.wake
	rx   *uint16   // as Link.rx
	bit  uint16
}

// undoSlot holds its token by value, so an undo allocates nothing.
type undoSlot struct {
	tok     UndoToken
	readyAt sim.Cycle
}

// init rebuilds l in place as an empty wire, keeping only its slots.
func (l *CreditLink) init() { *l = CreditLink{q: l.q.emptied()} }

// Send puts tok on the wire during cycle now. Undo tokens for distinct
// circuits may share a cycle: they travel on dedicated sideband wires.
func (l *CreditLink) Send(tok UndoToken, now sim.Cycle) {
	l.q.Push(undoSlot{tok: tok, readyAt: now + linkDelay})
	if l.rx != nil {
		*l.rx |= l.bit
	}
	l.wake.Wake()
}

// Recv pops the next token arriving at or before cycle now; ok is false
// when there is none. Receivers loop until it is.
func (l *CreditLink) Recv(now sim.Cycle) (tok UndoToken, ok bool) {
	if l.q.Len() == 0 || l.q.Front().readyAt > now {
		return tok, false
	}
	tok = l.q.Pop().tok
	if l.rx != nil && l.q.Len() == 0 {
		*l.rx &^= l.bit
	}
	return tok, true
}
