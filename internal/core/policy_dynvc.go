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

func (p *dynVCPolicy) Name() string { return "dynamic-vc" }

func (p *dynVCPolicy) Validate(o *Options) error {
	if o.Mechanism != MechFragmented {
		return fmt.Errorf("core: policy %q partitions the fragmented mechanism's VCs (set MechFragmented)", "dynamic-vc")
	}
	if err := (fragmentedPolicy{}).Validate(o); err != nil {
		return err
	}
	if o.DynVCMin < 0 || o.DynVCMax < 0 || o.DynVCWindow < 0 {
		return fmt.Errorf("core: negative dynamic-vc parameters")
	}
	min, max := orDefault(o.DynVCMin, 1), orDefault(o.DynVCMax, 3)
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

// NetConfig provisions the maximum partition in hardware; the policy's
// per-router limit decides how much of it is usable each window.
func (p *dynVCPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	max := orDefault(o.DynVCMax, 3)
	cfg.VCsPerVN[noc.VNReply] = 1 + max
	cfg.ReplyCircuitVCs = max
	cfg.RepRouting = mesh.RouteYX
}

func (p *dynVCPolicy) Attach(mg *Manager) {
	p.min = orDefault(mg.opts.DynVCMin, 1)
	p.max = orDefault(mg.opts.DynVCMax, 3)
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

// Reserve is the fragmented per-hop reservation restricted to this
// router's current VC limit, feeding the adaptation window.
func (p *dynVCPolicy) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	p.attempts[id]++
	if !mg.reserveFragmentedVC(id, msg, in, out, w, p.limit[id], now) {
		p.fails[id]++
	}
	p.adapt(id)
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
