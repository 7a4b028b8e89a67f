package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
)

// AuditQuiescent verifies the network's conservation invariants at a
// quiescent point: every buffer empty, every credit returned, every output
// VC released, no latched or speculative state left behind. A non-nil
// error means simulator state was corrupted or leaked during the run.
func (n *Network) AuditQuiescent() error {
	if !n.Quiescent() {
		return fmt.Errorf("noc: audit requires a quiescent network")
	}
	for _, r := range n.routers {
		if err := r.audit(); err != nil {
			return err
		}
	}
	for _, ni := range n.nis {
		for vn := 0; vn < NumVNs; vn++ {
			for vc, cr := range ni.credits[vn] {
				if n.cfg.VCBuffered(vn, vc) && int(cr) != n.cfg.BufDepth {
					return fmt.Errorf("noc: NI %d holds %d/%d credits for vn%d vc%d",
						ni.id, cr, n.cfg.BufDepth, vn, vc)
				}
			}
		}
	}
	return nil
}

// DumpState renders every non-idle structure in the network — buffered
// flits, latched bypasses, held output VCs, queued NI messages — for stall
// diagnostics.
func (n *Network) DumpState() string {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	for _, r := range n.routers {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for i := 0; i < r.byQ[d].Len(); i++ {
				e := r.byQ[d].At(i)
				add("router %d in %v: bypass flit msg=%d seq=%d out=%v\n",
					r.id, d, e.f.Msg.ID, e.f.Seq, e.out)
			}
			for s, sl := range r.slots {
				i := int(d)*r.nslots + s
				if v := r.vcs[i]; v.n > 0 {
					f := r.front(i)
					add("router %d in %v vn%d vc%d: %d flits, front msg=%d seq=%d state=%d route=%v\n",
						r.id, d, sl.vn, sl.vc, v.n, f.Msg.ID, f.Seq, v.state, v.route)
				}
			}
			for s, sl := range r.slots {
				if o := r.outs[int(d)*r.nslots+s]; o.owned {
					add("router %d out %v vn%d vc%d: owned by in=%v vc%d, credits=%d\n",
						r.id, d, sl.vn, sl.vc, o.in, r.slots[o.inSlot].vc, o.credits)
				}
			}
		}
	}
	for _, ni := range n.nis {
		if q := ni.QueueLen(); q > 0 {
			add("NI %d: %d messages queued/draining\n", ni.id, q)
		}
	}
	if len(b) == 0 {
		return "network idle\n"
	}
	return string(b)
}

// audit checks one router's invariants.
func (r *Router) audit() error {
	for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
		if r.byQ[d].Len() != 0 {
			return fmt.Errorf("noc: router %d port %v retains %d bypass flits", r.id, d, r.byQ[d].Len())
		}
		for s, sl := range r.slots {
			if v := r.vcs[int(d)*r.nslots+s]; v.n != 0 {
				return fmt.Errorf("noc: router %d port %v vn%d vc%d retains %d flits",
					r.id, d, sl.vn, sl.vc, v.n)
			} else if v.spec {
				return fmt.Errorf("noc: router %d port %v vn%d vc%d retains a speculative route",
					r.id, d, sl.vn, sl.vc)
			} else if v.state != vcIdle {
				return fmt.Errorf("noc: router %d port %v vn%d vc%d stuck in state %d",
					r.id, d, sl.vn, sl.vc, v.state)
			}
			o := r.outs[int(d)*r.nslots+s]
			if o.owned {
				return fmt.Errorf("noc: router %d output %v vn%d vc%d still owned",
					r.id, d, sl.vn, sl.vc)
			}
			if d != mesh.Local && r.unbuffered&(1<<s) == 0 &&
				int(o.credits) != r.depth {
				return fmt.Errorf("noc: router %d output %v vn%d vc%d holds %d/%d credits",
					r.id, d, sl.vn, sl.vc, o.credits, r.depth)
			}
		}
	}
	if r.waitVA != [mesh.NumDirs]uint16{} || r.ready != [mesh.NumDirs]uint16{} {
		return fmt.Errorf("noc: router %d allocator masks %v/%v name VCs at quiescence", r.id, r.waitVA, r.ready)
	}
	return nil
}
