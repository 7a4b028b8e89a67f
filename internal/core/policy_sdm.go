package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// sdmPolicy implements spatial-division multiplexing (PAPERS.md: Zaeemi &
// Modarressi, "Ultra Low-Power SDM-based Circuit-Switching for NoCs"): every
// mesh link splits into SDMLanes equal-width lanes, lane 0 stays reserved
// for packet traffic, and each circuit claims one of the remaining lanes
// end-to-end instead of arbitrating the full-width link by time window. Up
// to SDMLanes-1 circuits coexist on one physical channel with no window
// conflicts; the price is serialization — a flit on a 1/L-width lane takes
// L-1 extra cycles per hop, for circuits and packets alike.
//
// The reservation is all-or-nothing like the complete mechanism, and so are
// its undo walk and teardown, but the circuit VC keeps its buffer:
// lane-paced circuit flits legally wait in the bypass queue, bounded by the
// VC's credits.
type sdmPolicy struct{ basePolicy }

// Traits: lanes replace time windows, so Timed does not apply; and Section
// 4.6 removes the L1_DATA_ACK only when the reply is guaranteed to ride a
// non-blocking circuit, while lane-paced flits wait legally — a later
// forward can overtake the reply, and the directory's ack handshake is what
// closes that race — so NoAck is off too. Entries from different inputs may
// share an output port on different lanes: the lane-conservation oracle
// (armed by Lanes) replaces the window-conflict rule.
func (sdmPolicy) Traits(o *Options) Traits {
	return Traits{
		Mech: MechComplete, Reuse: true, Lanes: orDefault(o.SDMLanes, 4),
		RegistryChecked: true, LeakChecked: true,
	}
}

func (sdmPolicy) Validate(o *Options) error {
	if o.SDMLanes != 0 && (o.SDMLanes < 2 || o.SDMLanes > 8) {
		return fmt.Errorf("core: sdm needs 2..8 lanes (got %d)", o.SDMLanes)
	}
	return nil
}

// NetConfig keeps the complete variants' single circuit VC but leaves it
// buffered — lane-paced flits wait in the bypass queue under credit flow
// control — and divides every mesh link into the configured lane count.
func (p sdmPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1
	cfg.RepRouting = mesh.RouteYX
	cfg.LinkLanes = p.Traits(o).Lanes
}

// Arbitrate claims a free circuit lane on the reply's output link (the port
// the request entered through). Lane exhaustion — every circuit lane of
// that link already claimed — fails the whole circuit, like a window
// conflict under the complete mechanism.
func (sdmPolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	e.lane = mg.tables[id].freeLane(e.out, mg.traits.Lanes, now)
	if e.lane < 0 {
		return conflict
	}
	return granted
}
