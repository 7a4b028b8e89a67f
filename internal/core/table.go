package core

import (
	"math"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// noVC is an outVC (and a walk's prevVC) with no VC reserved on the next
// link: a fragmented gap, or the NI past the path's end. A reserved VC is
// never 0, since noc.NetConfig.Validate keeps a packet VC below the
// circuit VCs (TestReservedVCsAreNeverZero), so noVC is the only value
// that means "none".
const noVC = -1

// noWindow marks a non-timed reservation, which holds its ports from
// construction until use or teardown.
const noWindow = sim.Cycle(math.MaxInt64)

// entry is one circuit reservation at a router input unit: the Figure-3
// fields (built bit B, destination identifier, cache-line address, output
// port) plus the reserved VCs and, for timed circuits, the window counters.
type entry struct {
	built bool
	dest  mesh.NodeID
	block uint64
	out   mesh.Dir
	// outVC is the virtual channel the reply occupies on the next link
	// (the VC reserved at the next reply-path router); noVC marks a
	// fragmented gap where the reply must re-enter the normal pipeline.
	outVC int
	// vc is the VC reserved at this input port (fragmented circuits).
	vc int
	// winStart/winEnd bound the flit arrival cycles of a timed
	// reservation; winEnd == noWindow means untimed.
	winStart, winEnd sim.Cycle
	// lane is the SDM lane the circuit holds on the output link (0 for
	// policies that do not divide links: the window rule arbitrates there).
	lane int
	// inUse is the message currently riding this entry.
	inUse *noc.Message
}

func (e *entry) timed() bool { return e.winEnd != noWindow }

// expired reports whether a timed entry's finish counter has run out; the
// slot self-invalidates and can be reclaimed without an undo walk.
func (e *entry) expired(now sim.Cycle) bool {
	return e.built && e.timed() && now > e.winEnd && e.inUse == nil
}

func (e *entry) active(now sim.Cycle) bool {
	return e.built && !e.expired(now)
}

// overlaps reports whether the [s, t] window collides with the entry's.
func (e *entry) overlaps(s, t sim.Cycle) bool {
	return s <= e.winEnd && e.winStart <= t
}

// table holds the circuit storage of one router: a bounded entry list per
// input port (five slots per input for complete circuits, one per reserved
// VC for fragmented, unbounded for ideal).
type table struct {
	inputs [mesh.NumDirs][]*entry
}

// empty frees every slot in place. The entry objects stay: a free slot is
// one insert reuses, and insert fills the first free slot, so a recycled
// table's spare slots serve exactly the inserts a new table would append.
func (t *table) empty() {
	for _, slots := range t.inputs {
		for _, e := range slots {
			*e = entry{}
		}
	}
}

// activeCount returns the number of live reservations at input port d.
func (t *table) activeCount(d mesh.Dir, now sim.Cycle) int {
	n := 0
	for _, e := range t.inputs[d] {
		if e.active(now) {
			n++
		}
	}
	return n
}

// find returns the active entry at input d for circuit (dest, block).
func (t *table) find(d mesh.Dir, dest mesh.NodeID, block uint64, now sim.Cycle) *entry {
	for _, e := range t.inputs[d] {
		if e.active(now) && e.dest == dest && e.block == block {
			return e
		}
	}
	return nil
}

// conflict reports whether an active reservation on a *different* input
// port holds the same output port with an overlapping window — the paper's
// complete-circuit construction rule.
func (t *table) conflict(d mesh.Dir, out mesh.Dir, s, tEnd sim.Cycle, now sim.Cycle) bool {
	for in := mesh.Dir(0); in < mesh.NumDirs; in++ {
		if in == d {
			continue
		}
		for _, e := range t.inputs[in] {
			if e.active(now) && e.out == out && e.overlaps(s, tEnd) {
				return true
			}
		}
	}
	return false
}

// insert stores a reservation at input d, reclaiming freed or expired
// slots. cap <= 0 means unbounded (ideal). It returns the stored entry and
// its ordinal (how many active circuits that input now holds), or nil when
// the storage is full. Taking e by value lets a reclaimed slot's object be
// overwritten in place, so steady-state reservation allocates nothing.
func (t *table) insert(d mesh.Dir, e entry, capacity int, now sim.Cycle) (*entry, int) {
	slots := t.inputs[d]
	for i, old := range slots {
		if !old.built || old.expired(now) {
			*slots[i] = e
			return slots[i], t.activeCount(d, now)
		}
	}
	if capacity > 0 && len(slots) >= capacity {
		return nil, 0
	}
	ne := new(entry)
	*ne = e
	t.inputs[d] = append(slots, ne)
	return ne, t.activeCount(d, now)
}

// freeVC returns a reserved-VC index at input d that no active entry holds,
// for fragmented circuits with circuit VCs [firstVC, firstVC+n). It returns
// -1 when all are reserved.
func (t *table) freeVC(d mesh.Dir, firstVC, n int, now sim.Cycle) int {
	for vc := firstVC; vc < firstVC+n; vc++ {
		taken := false
		for _, e := range t.inputs[d] {
			if e.active(now) && e.vc == vc {
				taken = true
				break
			}
		}
		if !taken {
			return vc
		}
	}
	return -1
}

// freeLane returns the lowest circuit lane (1..lanes-1; lane 0 is the
// reserved packet lane) that no active entry in the whole table holds on
// output port out, or -1 when every circuit lane of that link is claimed.
// The scan covers all inputs because the lanes belong to the physical
// output link, not to any input unit.
func (t *table) freeLane(out mesh.Dir, lanes int, now sim.Cycle) int {
	for lane := 1; lane < lanes; lane++ {
		taken := false
		for in := mesh.Dir(0); in < mesh.NumDirs && !taken; in++ {
			for _, e := range t.inputs[in] {
				if e.active(now) && e.out == out && e.lane == lane {
					taken = true
					break
				}
			}
		}
		if !taken {
			return lane
		}
	}
	return -1
}

// clear removes the active entry for (dest, block) at input d, returning it.
func (t *table) clear(d mesh.Dir, dest mesh.NodeID, block uint64, now sim.Cycle) *entry {
	if e := t.find(d, dest, block, now); e != nil {
		e.built = false
		e.inUse = nil
		return e
	}
	return nil
}
