package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// idealPolicy is the unimplementable upper bound (Section 4.8): every
// reservation succeeds regardless of conflicts, collisions resolve with
// buffering, and teardown clears the whole path instantly. It shares the
// complete family's record/injection behaviour but opts out of the
// feasible-router oracles — its tables legally violate the construction
// rules the complete mechanism obeys.
type idealPolicy struct{ completeFamily }

func (idealPolicy) Name() string { return "ideal" }

func (idealPolicy) Validate(o *Options) error {
	if o.Mechanism != MechIdeal {
		return fmt.Errorf("core: policy %q requires the ideal mechanism", "ideal")
	}
	if err := validateNotSpeculative(o); err != nil {
		return err
	}
	if o.Timed || o.Reuse {
		return fmt.Errorf("core: ideal reservation has no timing or reuse")
	}
	return validateTimed(o)
}

func (idealPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1 // keeps its buffer: ideal is not area-reduced
	cfg.RepRouting = mesh.RouteYX
}

// Reserve always succeeds: conflicts are ignored and storage is unbounded.
func (idealPolicy) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	e := entry{
		built: true, dest: msg.Src, block: msg.Block,
		out: in, outVC: mg.circuitVC(), vc: mg.circuitVC(),
		winStart: 0, winEnd: noWindow,
	}
	_, ord := mg.tables[id].insert(out, e, 0, now)
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
	w.lastReserved = true
}

// Teardown clears the whole path instantly — the upper-bound model does
// not charge teardown cost.
func (idealPolicy) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	mg.clearPath(rec.src, rec.key.dest, rec.key.block, now)
}

func (idealPolicy) BypassBuffered() bool      { return true }
func (idealPolicy) ConflictChecked() bool     { return false }
func (idealPolicy) RegistryChecked() bool     { return false }
func (idealPolicy) LeakChecked(*Options) bool { return false }
