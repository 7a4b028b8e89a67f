package core

import (
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// fragmentedPolicy keeps partial reservations (Section 4.2, first
// alternative): a router that cannot reserve leaves a gap, the reply rides
// whatever fragments exist and re-enters the normal pipeline at each gap.
// It adds a third, buffered reply VC pair reserved for circuits. Fragments
// support neither timing nor reuse, and cannot guarantee the delivery order
// NoAck needs; their legal gaps keep the feasible-router oracles off.
type fragmentedPolicy struct{ basePolicy }

func (fragmentedPolicy) Traits(Options) Traits {
	return Traits{Partial: true}
}

func (fragmentedPolicy) NetConfig(cfg noc.NetConfig, _ Options) noc.NetConfig {
	cfg.VCsPerVN[noc.VNReply] = 3
	cfg.ReplyCircuitVCs = 2
	cfg.RepRouting = mesh.RouteYX
	return cfg
}

// Arbitrate grabs any free reserved VC at this hop.
func (fragmentedPolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	return reservedVC(mg, id, port, e, w, mg.net.Config().ReplyCircuitVCs, now)
}

// reservedVC claims one of the first n reserved reply VCs for the candidate
// and chains it to the VC reserved at the previous hop. The fragmented
// policy hands out all of them, dynamic-vc an adaptive per-router n.
func reservedVC(mg *Manager, id mesh.NodeID, port mesh.Dir, e *entry, w *walk, n int, now sim.Cycle) verdict {
	vc := mg.tables[id].freeVC(port, mg.circuitVC(), n, now)
	if vc < 0 {
		return noStorage
	}
	e.vc, e.outVC = vc, w.prevVC
	return granted
}
