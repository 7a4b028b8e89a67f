package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// dynVCPolicy implements load-adaptive VC partitioning (PAPERS.md: Onsori
// & Safaei): the fragmented mechanism with a per-router *adaptive* count
// of reply VCs usable for reservations. The router hardware provisions
// DynVCMax reserved VCs, but each router only hands out its current limit;
// a window with reservation failures grows the limit toward DynVCMax, a
// clean window shrinks it toward DynVCMin, returning buffer bandwidth to
// ordinary packet traffic under light circuit load.
type dynVCPolicy struct {
	fragmentedPolicy

	min, max, window int

	// Per-router adaptation state, indexed by NodeID.
	limit    []int
	attempts []int
	fails    []int

	grows   int64
	shrinks int64
}

// Validate checks the partition knobs (the fragmented rules are shared).
func (p *dynVCPolicy) Validate(o *Options) error {
	if o.DynVCMin < 0 || o.DynVCMax < 0 || o.DynVCWindow < 0 {
		return fmt.Errorf("core: negative dynamic-vc parameters")
	}
	min, max := orDefault(o.DynVCMin, 1), dynVCMax(o)
	if min > max {
		return fmt.Errorf("core: dynamic-vc needs DynVCMin <= DynVCMax")
	}
	if max > 6 {
		return fmt.Errorf("core: dynamic-vc supports at most 6 reserved reply VCs")
	}
	if o.MaxCircuitsPerPort < max {
		return fmt.Errorf("core: dynamic-vc needs MaxCircuitsPerPort >= DynVCMax (one entry per reserved VC)")
	}
	return nil
}

// dynVCMax is the partition the hardware provisions.
func dynVCMax(o *Options) int { return orDefault(o.DynVCMax, 3) }

// NetConfig provisions the maximum partition in hardware; the policy's
// per-router limit decides how much of it is usable each window.
func (p *dynVCPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	max := dynVCMax(o)
	cfg.VCsPerVN[noc.VNReply] = 1 + max
	cfg.ReplyCircuitVCs = max
	cfg.RepRouting = mesh.RouteYX
}

func (p *dynVCPolicy) Attach(mg *Manager) {
	p.min = orDefault(mg.opts.DynVCMin, 1)
	p.max = dynVCMax(&mg.opts)
	p.window = orDefault(mg.opts.DynVCWindow, 16)
	n := mg.m.Nodes()
	p.limit = make([]int, n)
	for i := range p.limit {
		p.limit[i] = p.min
	}
	p.attempts = make([]int, n)
	p.fails = make([]int, n)
}

func (p *dynVCPolicy) DescribeMetrics(reg *sim.Registry) {
	reg.Counter("circ/dynvc_grows", &p.grows)
	reg.Counter("circ/dynvc_shrinks", &p.shrinks)
}

// Arbitrate is the fragmented per-hop reservation restricted to this
// router's current VC limit, feeding the adaptation window. (A granted VC
// always finds an entry: Validate keeps MaxCircuitsPerPort >= DynVCMax.)
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
// usable partition (up to max), a clean window shrinks it (down to min).
func (p *dynVCPolicy) adapt(id mesh.NodeID) {
	if p.attempts[id] < p.window {
		return
	}
	if p.fails[id] > 0 {
		if p.limit[id] < p.max {
			p.limit[id]++
			p.grows++
		}
	} else if p.limit[id] > p.min {
		p.limit[id]--
		p.shrinks++
	}
	p.attempts[id], p.fails[id] = 0, 0
}
