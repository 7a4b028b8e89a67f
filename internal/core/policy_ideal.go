package core

import (
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// idealPolicy is the unimplementable upper bound (Section 4.8): every
// reservation succeeds regardless of conflicts, storage is unbounded,
// collisions resolve with buffering, and teardown clears the whole path
// instantly. It has no timing or reuse, and stays out of the
// feasible-router oracles — its tables legally violate the construction
// rules the complete mechanism obeys.
type idealPolicy struct{ basePolicy }

func (idealPolicy) Traits(*Options) Traits {
	return Traits{Mech: MechIdeal, NoAck: true, Unbounded: true}
}

func (idealPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1 // keeps its buffer: ideal is not area-reduced
	cfg.RepRouting = mesh.RouteYX
}

// Arbitrate always grants: conflicts are ignored.
func (idealPolicy) Arbitrate(*Manager, mesh.NodeID, *noc.Message, mesh.Dir, *entry, *walk, sim.Cycle) verdict {
	return granted
}

// Teardown clears every entry along the circuit's YX path instantly — the
// upper-bound model does not charge teardown cost.
func (idealPolicy) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	path := mg.m.Path(mesh.RouteYX, rec.src, rec.key.dest)
	for i, node := range path {
		in := mesh.Local
		if i > 0 {
			in = dirBetween(mg.m, node, path[i-1])
		}
		if mg.tables[node].clear(in, rec.key.dest, rec.key.block, now) != nil {
			mg.net.Events().CircuitWrites++
		}
	}
}
