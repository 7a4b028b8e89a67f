package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/recycle"
	"reactivenoc/internal/sim"
)

// dynVCPolicy implements load-adaptive VC partitioning (PAPERS.md: Onsori
// & Safaei): the fragmented mechanism with a per-router *adaptive* count
// of reply VCs usable for reservations. The router hardware provisions
// dynVCMax reserved VCs, but each router only hands out its current limit;
// a window of dynVCWindow reservation attempts with failures grows the
// limit toward dynVCMax, a clean window shrinks it toward dynVCMin,
// returning buffer bandwidth to ordinary packet traffic under light
// circuit load.
type dynVCPolicy struct {
	fragmentedPolicy

	// Per-router adaptation state, indexed by NodeID.
	limit    []int
	attempts []int
	fails    []int

	grows   int64
	shrinks int64
}

// The partition's bounds and adaptation window.
const (
	dynVCMin    = 1
	dynVCMax    = 3
	dynVCWindow = 16
)

// Validate keeps one table entry per reserved VC (the fragmented rules are
// shared).
func (p *dynVCPolicy) Validate(o Options) error {
	if o.MaxCircuitsPerPort < dynVCMax {
		return fmt.Errorf("core: dynamic-vc needs MaxCircuitsPerPort >= %d (one entry per reserved VC)", dynVCMax)
	}
	return nil
}

// NetConfig provisions the maximum partition in hardware; the policy's
// per-router limit decides how much of it is usable each window.
func (p *dynVCPolicy) NetConfig(cfg noc.NetConfig, _ Options) noc.NetConfig {
	cfg.VCsPerVN[noc.VNReply] = 1 + dynVCMax
	cfg.ReplyCircuitVCs = dynVCMax
	cfg.RepRouting = mesh.RouteYX
	return cfg
}

func (p *dynVCPolicy) Attach(mg *Manager) {
	n := mg.m.Nodes()
	*p = dynVCPolicy{
		limit:    recycle.Slice(p.limit, n),
		attempts: recycle.Zeroed(p.attempts, n),
		fails:    recycle.Zeroed(p.fails, n),
	}
	for i := range p.limit {
		p.limit[i] = dynVCMin
	}
}

func (p *dynVCPolicy) DescribeMetrics(reg *sim.Registry) {
	reg.Counter("circ/dynvc_grows", &p.grows)
	reg.Counter("circ/dynvc_shrinks", &p.shrinks)
}

// Arbitrate is the fragmented per-hop reservation restricted to this
// router's current VC limit, feeding the adaptation window. (A granted VC
// always finds an entry: Validate keeps MaxCircuitsPerPort >= dynVCMax.)
func (p *dynVCPolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	p.attempts[id]++
	v := reservedVC(mg, id, port, e, w, p.limit[id], now)
	if v != granted {
		p.fails[id]++
	}
	p.adapt(id)
	return v
}

// adapt closes a router's observation window: any failure grows the
// usable partition (up to dynVCMax), a clean window shrinks it (down to
// dynVCMin).
func (p *dynVCPolicy) adapt(id mesh.NodeID) {
	if p.attempts[id] < dynVCWindow {
		return
	}
	if p.fails[id] > 0 {
		if p.limit[id] < dynVCMax {
			p.limit[id]++
			p.grows++
		}
	} else if p.limit[id] > dynVCMin {
		p.limit[id]--
		p.shrinks++
	}
	p.attempts[id], p.fails[id] = 0, 0
}
