package noc

import (
	"fmt"
	"strings"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// This file holds the network-layer invariant oracles of the opt-in
// verification suite (internal/verify). Unlike the quiescent audits in
// audit.go, every check here is legal mid-run, at any cycle boundary: the
// conservation sums count in-flight state (link pipelines, queued credits,
// bypass latches) alongside the resting state, so the invariant holds even
// while traffic is streaming. All methods are read-only.

// CheckCreditConservation verifies the credit-flow invariant on every
// link: for each buffered virtual channel, the sender's credit counter,
// the flits in flight on the wire, the flits resting in the downstream
// buffer (or latched in its bypass queue), and the credits queued for the
// sender's counter at the cycle boundary must sum to exactly BufDepth. A
// withheld or duplicated credit breaks the sum immediately and permanently.
func (n *Network) CheckCreditConservation() error {
	returning := map[*int32]int{}
	for _, c := range n.credits.prev {
		returning[c]++
	}
	for _, c := range n.credits.cur {
		returning[c]++
	}
	for _, r := range n.routers {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			if d == mesh.Local || r.downCredit[d] == nil {
				continue
			}
			nb, ok := n.cfg.Mesh.Neighbor(r.id, d)
			if !ok {
				continue
			}
			dr, in := n.routers[nb], d.Opposite()
			for vn := 0; vn < NumVNs; vn++ {
				for vc := 0; vc < n.cfg.VCsPerVN[vn]; vc++ {
					if !n.cfg.VCBuffered(vn, vc) {
						continue
					}
					o := &r.outs[r.vcAt(d, vn, vc)]
					sender := int(o.credits)
					sum := sender +
						linkFlitCount(r.outLink[d], vn, vc) +
						int(dr.vcs[dr.vcAt(in, vn, vc)].n) +
						byQHeldCredits(dr, in, vn, vc) +
						returning[&o.credits]
					if sum != n.cfg.BufDepth {
						return fmt.Errorf(
							"router %d -> %d (%v) vn%d vc%d: credits account for %d slots, want %d (sender=%d wire=%d buffered=%d latched=%d returning=%d)",
							r.id, nb, d, vn, vc, sum, n.cfg.BufDepth,
							sender, linkFlitCount(r.outLink[d], vn, vc),
							dr.vcs[dr.vcAt(in, vn, vc)].n, byQHeldCredits(dr, in, vn, vc),
							returning[&o.credits])
					}
				}
			}
		}
	}
	// The NI -> router local hop runs the same protocol with the NI as the
	// credit-tracking sender.
	for i, ni := range n.nis {
		r := n.routers[i]
		for vn := 0; vn < NumVNs; vn++ {
			for vc := 0; vc < n.cfg.VCsPerVN[vn]; vc++ {
				if !n.cfg.VCBuffered(vn, vc) {
					continue
				}
				buffered := int(r.vcs[r.vcAt(mesh.Local, vn, vc)].n)
				cr := &ni.credits[vn][vc]
				sum := int(*cr) +
					linkFlitCount(ni.toRouter, vn, vc) +
					buffered +
					byQHeldCredits(r, mesh.Local, vn, vc) +
					returning[cr]
				if sum != n.cfg.BufDepth {
					return fmt.Errorf(
						"NI %d -> router vn%d vc%d: credits account for %d slots, want %d (NI=%d wire=%d buffered=%d latched=%d returning=%d)",
						ni.id, vn, vc, sum, n.cfg.BufDepth,
						*cr, linkFlitCount(ni.toRouter, vn, vc),
						buffered, byQHeldCredits(r, mesh.Local, vn, vc),
						returning[cr])
				}
			}
		}
	}
	return nil
}

func linkFlitCount(l *Link, vn, vc int) int {
	c := 0
	for i := 0; i < l.q.Len(); i++ {
		if f := l.q.At(i).f; f.Msg.VN == vn && f.VC == vc {
			c++
		}
	}
	return c
}

// byQHeldCredits counts bypass-latched flits still holding an upstream
// buffer slot: a flit parked in the bypass queue returns its arrival-VC
// credit only when it leaves, so until then the slot is accounted here.
func byQHeldCredits(r *Router, in mesh.Dir, vn, vc int) int {
	c := 0
	for i := 0; i < r.byQ[in].Len(); i++ {
		if e := r.byQ[in].At(i); e.vn == vn && e.arrVC == vc {
			c++
		}
	}
	return c
}

// CheckFlitConservation verifies end-to-end flit conservation: every flit
// an NI injected and no NI has ejected yet must be resting in exactly one
// place — a VC buffer, a bypass latch, or a link pipeline. A flit dropped
// (or duplicated) anywhere in the fabric breaks the balance.
func (n *Network) CheckFlitConservation() error {
	var injected, ejected, inFlight int64
	for _, ni := range n.nis {
		injected += ni.injected
		ejected += ni.ejected
		inFlight += int64(ni.toRouter.q.Len())
	}
	for _, r := range n.routers {
		for i := range r.vcs {
			inFlight += int64(r.vcs[i].n)
		}
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			inFlight += int64(r.byQ[d].Len())
			if l := r.outLink[d]; l != nil {
				inFlight += int64(l.q.Len())
			}
		}
	}
	if want := injected - ejected; inFlight != want {
		return fmt.Errorf("flit conservation: %d injected - %d ejected = %d outstanding, but %d found in the fabric",
			injected, ejected, want, inFlight)
	}
	return nil
}

// CheckVCOrder verifies wormhole well-formedness inside every VC buffer:
// flits of one message are contiguous and sequence-ordered, and a new
// message may start only after the previous one's tail — the in-network
// half of the per-VC in-order-delivery invariant (the NI's checkSequence
// asserts the ejection half).
func (n *Network) CheckVCOrder() error {
	for _, r := range n.routers {
		for i := range r.vcs {
			d, sl := mesh.Dir(i/r.nslots), r.slots[i%r.nslots]
			for k := 1; k < int(r.vcs[i].n); k++ {
				prev, cur := r.flitAt(i, k-1), r.flitAt(i, k)
				if cur.Msg == prev.Msg {
					if cur.Seq != prev.Seq+1 {
						return fmt.Errorf("router %d %v vn%d vc%d: msg %d flit %d queued behind flit %d (sequence broken)",
							r.id, d, sl.vn, sl.vc, cur.Msg.ID, cur.Seq, prev.Seq)
					}
				} else if !prev.Tail || !cur.Head {
					return fmt.Errorf("router %d %v vn%d vc%d: msg %d interleaves msg %d mid-message (wormhole violated)",
						r.id, d, sl.vn, sl.vc, cur.Msg.ID, prev.Msg.ID)
				}
			}
		}
	}
	return nil
}

// FlitMovement returns the monotonic count of injection and ejection
// events across every NI — the progress signal the livelock detector
// watches. Any flit entering or leaving the network advances it.
func (n *Network) FlitMovement() int64 {
	var t int64
	for _, ni := range n.nis {
		t += ni.injected + ni.ejected
	}
	return t
}

// CircuitTraffic reports every circuit-related item currently in flight:
// ride is called with the (dest, block) key of each circuit-riding message
// found anywhere in the fabric (NI queues, drain slots, link pipelines, VC
// buffers, bypass latches) — and of each circuit-*building* request still
// traversing, whose reservations exist at the routers behind it before any
// registry record does — and undo with the key of each teardown token
// still travelling on a credit wire. The circuit manager's leak oracle
// uses this to separate "entry awaiting its in-flight reply, request tail,
// or teardown" from "entry nothing will ever claim".
func (n *Network) CircuitTraffic(ride, undo func(dest mesh.NodeID, block uint64)) {
	msg := func(m *Message) {
		if m == nil {
			return
		}
		if m.UseCircuit {
			ride(m.CircDest, m.CircBlock)
		}
		if m.WantCircuit || m.SetupProbe {
			ride(m.Src, m.Block)
		}
	}
	flit := func(f *Flit) {
		if f != nil {
			msg(f.Msg)
		}
	}
	for _, ni := range n.nis {
		for vn := range ni.queues {
			for i := 0; i < ni.queues[vn].Len(); i++ {
				msg(ni.queues[vn].At(i))
			}
			msg(ni.open[vn].msg)
		}
		for i := 0; i < ni.toRouter.q.Len(); i++ {
			flit(ni.toRouter.q.At(i).f)
		}
	}
	for _, r := range n.routers {
		for i := range r.vcs {
			for k := 0; k < int(r.vcs[i].n); k++ {
				flit(r.flitAt(i, k))
			}
		}
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for i := 0; i < r.byQ[d].Len(); i++ {
				flit(r.byQ[d].At(i).f)
			}
			if c := r.upCredit[d]; c != nil {
				for i := 0; i < c.q.Len(); i++ {
					tok := c.q.At(i).tok
					undo(tok.Dest, tok.Block)
				}
			}
			if l := r.outLink[d]; l != nil {
				for i := 0; i < l.q.Len(); i++ {
					flit(l.q.At(i).f)
				}
			}
		}
	}
}

// wfNode identifies one input VC in the waits-for graph.
type wfNode struct {
	router mesh.NodeID
	in     mesh.Dir
	vn, vc int
}

func (w wfNode) String() string {
	return fmt.Sprintf("router %d %v vn%d vc%d", w.router, w.in, w.vn, w.vc)
}

// WaitsFor builds the channel waits-for graph — which blocked input VCs
// wait on which resource holders — and searches it for a cycle. A VC in
// VC-allocation waits on the current owners of its requested output port's
// VCs; an active VC out of downstream credits waits on the downstream
// input VC holding those slots. It returns a rendered cycle and true, or a
// description of the most-starved blocked channels and false when the
// graph is acyclic (a stalled chain, not a deadlock).
func (n *Network) WaitsFor(now sim.Cycle) (string, bool) {
	edges := map[wfNode][]wfNode{}
	oldest := map[wfNode]sim.Cycle{}
	for _, r := range n.routers {
		for i := range r.vcs {
			v, f := &r.vcs[i], r.front(i)
			if f == nil || v.state == vcIdle {
				continue
			}
			sl := r.slots[i%r.nslots]
			vn, outVC := sl.vn, int(v.outVC)
			node := wfNode{router: r.id, in: mesh.Dir(i / r.nslots), vn: vn, vc: sl.vc}
			oldest[node] = f.arrivedAt
			if r.outLink[v.route] == nil {
				continue
			}
			switch v.state {
			case vcWaitVA:
				for ov := 0; ov < n.cfg.AllocatableVCs(vn); ov++ {
					if o := r.outs[r.vcAt(v.route, vn, ov)]; o.owned {
						edges[node] = append(edges[node],
							wfNode{router: r.id, in: o.in, vn: vn, vc: r.slots[o.inSlot].vc})
					}
				}
			case vcActive:
				if v.route != mesh.Local && n.cfg.VCBuffered(vn, outVC) &&
					r.outs[r.vcAt(v.route, vn, outVC)].credits <= 0 {
					if nb, ok := n.cfg.Mesh.Neighbor(r.id, v.route); ok {
						edges[node] = append(edges[node],
							wfNode{router: nb, in: v.route.Opposite(), vn: vn, vc: outVC})
					}
				}
			}
		}
	}

	// Iterative DFS with tri-state marks; a back edge closes a cycle.
	const (
		unseen = 0
		onPath = 1
		done   = 2
	)
	mark := map[wfNode]int{}
	var path []wfNode
	var dfs func(u wfNode) []wfNode
	dfs = func(u wfNode) []wfNode {
		mark[u] = onPath
		path = append(path, u)
		for _, v := range edges[u] {
			switch mark[v] {
			case onPath:
				for i, x := range path {
					if x == v {
						return path[i:]
					}
				}
			case unseen:
				if cyc := dfs(v); cyc != nil {
					return cyc
				}
			}
		}
		mark[u] = done
		path = path[:len(path)-1]
		return nil
	}
	for u := range edges {
		if mark[u] == unseen {
			if cyc := dfs(u); cyc != nil {
				var b strings.Builder
				b.WriteString("waits-for cycle: ")
				for i, x := range cyc {
					if i > 0 {
						b.WriteString(" -> ")
					}
					b.WriteString(x.String())
				}
				b.WriteString(" -> ")
				b.WriteString(cyc[0].String())
				return b.String(), true
			}
		}
	}

	// Acyclic: report the most-starved blocked channels instead.
	var worst wfNode
	worstAge := sim.Cycle(-1)
	for node, at := range oldest {
		if age := now - at; age > worstAge {
			worst, worstAge = node, age
		}
	}
	if worstAge < 0 {
		return "no blocked channels", false
	}
	return fmt.Sprintf("no waits-for cycle; most-starved channel: %s (head flit waiting %d cycles)",
		worst, worstAge), false
}
