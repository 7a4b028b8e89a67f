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

func (idealPolicy) Traits(Options) Traits {
	return Traits{NoAck: true, Unbounded: true}
}

func (idealPolicy) NetConfig(cfg noc.NetConfig, _ Options) noc.NetConfig {
	cfg.ReplyCircuitVCs = 1 // keeps its buffer: ideal is not area-reduced
	cfg.RepRouting = mesh.RouteYX
	return cfg
}

// Arbitrate always grants: conflicts are ignored.
func (idealPolicy) Arbitrate(*Manager, mesh.NodeID, *noc.Message, mesh.Dir, *entry, *walk, sim.Cycle) verdict {
	return granted
}
