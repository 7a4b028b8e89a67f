package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// This file holds the circuit-mechanism invariant oracles of the opt-in
// verification suite (internal/verify). Each check is legal at any cycle
// boundary and read-only; the quiescent-only leak audit lives in audit.go.

// CheckTables verifies the legality of every router's circuit table:
// no input port holds more than MaxCircuitsPerPort live reservations, and
// — for policies obeying the complete construction rule, which forbids it
// — no two reservations from different input ports share an output port
// with overlapping time windows (untimed entries hold their port for an
// unbounded window, so any pair sharing an output is a conflict).
func (mg *Manager) CheckTables(now sim.Cycle) error {
	if mg.traits.Lanes > 0 {
		if err := mg.checkLanes(mg.traits.Lanes, now); err != nil {
			return err
		}
	}
	for id, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			if cap := mg.capacity; cap > 0 {
				if n := tb.activeCount(d, now); n > cap {
					return fmt.Errorf("router %d input %v holds %d live circuits, cap %d", id, d, n, cap)
				}
			}
			if !mg.traits.ConflictChecked {
				continue
			}
			for _, e := range tb.inputs[d] {
				if !e.active(now) {
					continue
				}
				for d2 := d + 1; d2 < mesh.NumDirs; d2++ {
					for _, e2 := range tb.inputs[d2] {
						if e2.active(now) && e2.out == e.out && e.overlaps(e2.winStart, e2.winEnd) {
							return fmt.Errorf(
								"router %d output %v double-booked: circuit (%d,%#x) from %v window [%d,%d] overlaps circuit (%d,%#x) from %v window [%d,%d]",
								id, e.out, e.dest, e.block, d, e.winStart, e.winEnd,
								e2.dest, e2.block, d2, e2.winStart, e2.winEnd)
						}
					}
				}
			}
		}
	}
	return nil
}

// checkLanes is the lane-conservation oracle for SDM-style policies: every
// live reservation must hold a circuit lane (1..lanes-1; lane 0 is the
// reserved packet lane), and no two live reservations at one router may
// hold the same lane of the same output link — the spatial analogue of the
// complete mechanism's window-conflict rule, which policies with the Lanes
// trait replace.
func (mg *Manager) checkLanes(lanes int, now sim.Cycle) error {
	for id, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for i, e := range tb.inputs[d] {
				if !e.active(now) {
					continue
				}
				if e.lane < 1 || e.lane >= lanes {
					return fmt.Errorf(
						"router %d input %v circuit (%d,%#x) holds lane %d outside the circuit lanes 1..%d",
						id, d, e.dest, e.block, e.lane, lanes-1)
				}
				for d2 := d; d2 < mesh.NumDirs; d2++ {
					others := tb.inputs[d2]
					lo := 0
					if d2 == d {
						lo = i + 1
					}
					for _, e2 := range others[lo:] {
						if e2.active(now) && e2.out == e.out && e2.lane == e.lane {
							return fmt.Errorf(
								"router %d output %v lane %d double-booked: circuit (%d,%#x) from %v and circuit (%d,%#x) from %v",
								id, e.out, e.lane, e.dest, e.block, d, e2.dest, e2.block, d2)
						}
					}
				}
			}
		}
	}
	return nil
}

// CheckRegistry cross-checks every NI circuit registry against the router
// tables it summarizes: a record advertising a complete circuit must have
// a built entry at every router of the reply's YX path, and for timed
// circuits each entry's window must still cover the latest arrival the
// record promises the reply (injection at injEnd reaches the router at
// hop distance h at injEnd + injectLead + repHopLatency*h). A flipped
// built bit or a truncated window breaks the promise at one router while
// the NI still plans to use the circuit — exactly the divergence this
// oracle exists to catch before the reply does.
func (mg *Manager) CheckRegistry(now sim.Cycle) error {
	if !mg.traits.RegistryChecked {
		return nil // fragmented paths have legal gaps; ideal/probe differ structurally
	}
	for _, regs := range mg.regs {
		for key, rec := range regs {
			if !rec.complete || rec.failed || rec.src == key.dest {
				continue
			}
			if rec.timed && now > rec.injEnd {
				continue // missed window; the registry undoes it at injection
			}
			var err error
			mg.replyPath(rec.src, key.dest, func(i int, node mesh.NodeID, in mesh.Dir) bool {
				var present bool
				for _, e := range mg.tables[node].inputs[in] {
					if e.dest != key.dest || e.block != key.block || !e.built {
						continue
					}
					present = true
					if !e.timed() ||
						e.winEnd >= rec.injEnd+injectLead+repHopLatency*sim.Cycle(i) {
						return true
					}
				}
				state := "no built entry"
				if present {
					state = "entry window expires before the promised reply arrival"
				}
				err = fmt.Errorf(
					"NI %d advertises complete circuit (%d,%#x) but router %d input %v has %s (hop %d of %d)",
					rec.src, key.dest, key.block, node, in, state, i, mg.m.Hops(rec.src, key.dest))
				return false
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckLeaks detects orphaned reservations while the run is still hot:
// an untimed complete-circuit entry that is built, unclaimed, and matched
// by no registry record, no in-flight circuit rider, and no teardown token
// still walking the wires will never be used or reclaimed — a dropped undo
// token manifests here within one check interval instead of surviving to
// the end-of-run audit. Timed entries self-expire and fragmented/ideal
// teardown differs structurally, so the oracle is scoped to untimed
// complete circuits.
func (mg *Manager) CheckLeaks(now sim.Cycle) error {
	if !mg.traits.LeakChecked {
		return nil
	}
	covered := map[circKey]bool{}
	for _, regs := range mg.regs {
		for key := range regs {
			covered[key] = true
		}
	}
	add := func(dest mesh.NodeID, block uint64) {
		covered[circKey{dest: dest, block: block}] = true
	}
	mg.net.CircuitTraffic(add, add)
	for id, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range tb.inputs[d] {
				if !e.built || e.timed() || e.inUse != nil {
					continue
				}
				if !covered[circKey{dest: e.dest, block: e.block}] {
					return fmt.Errorf(
						"router %d input %v holds circuit (%d,%#x) that no registry record, rider, or teardown token accounts for (leaked)",
						id, d, e.dest, e.block)
				}
			}
		}
	}
	return nil
}
