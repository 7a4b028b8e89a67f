package noc

import (
	"fmt"
	"math/bits"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/recycle"
	"reactivenoc/internal/sim"
)

// vcState is the input-VC state machine of a wormhole router: a VC is idle,
// has a routed head flit waiting for VC allocation, or is actively streaming
// a message through an allocated output VC.
type vcState uint8

const (
	vcIdle vcState = iota
	vcWaitVA
	vcActive
)

// inVC is the per-virtual-channel state at an input unit: global state (G),
// route (R) and output VC (O) — the fields of Figure 2 — plus the head and
// length of the VC's buffer in the router's flit store. In the speculative
// comparator, spec marks a message crossing the VC speculatively: its body
// flits follow route and outVC, the ones its head grabbed, and the tail
// clears it. A VC carries one message from head to tail, so one route per
// VC suffices.
type inVC struct {
	state        vcState
	spec         bool
	route        mesh.Dir
	outVC        uint8
	cand         uint8 // output VC requested in VA phase 1, read by phase 2
	head, n      uint8
	vaEligibleAt sim.Cycle
	saEligibleAt sim.Cycle
	pushedAt     sim.Cycle // arrival cycle of the newest buffered flit
}

// outputVC is the per-virtual-channel state at an output unit: the input VC
// holding it (fields I of Figure 2) and the downstream buffer's credits.
type outputVC struct {
	owned   bool
	in      mesh.Dir
	inSlot  uint8
	credits int32
}

// bypassEntry latches a flit crossing the router in a single cycle: on a
// reactive circuit, or speculatively in the comparator router. It departs
// in the arrival cycle unless the variant allows it to wait (fragmented and
// ideal circuits keep buffers; speculative flits hold their allocated VC).
type bypassEntry struct {
	f     *Flit
	vn    int
	out   mesh.Dir
	outVC int
	arrVC int // VC the flit arrived on, for the credit return
	spec  bool
}

// grant is one switch-allocator decision for an output port, executed by
// switch traversal in the following cycle.
type grant struct {
	in   mesh.Dir
	slot uint8
}

type vcSlot struct{ vn, vc int }

// flitWires masks the inbound bits of the input flit links; the bits above
// are the undo-token wires from downstream.
const flitWires = 1<<mesh.NumDirs - 1

// Router is the 4-stage wormhole router of Table 4/Figure 2, optionally
// extended with the Reactive Circuits hooks of Figure 3.
//
// Its VC state is flat: every per-VC array is indexed by port*nslots + slot,
// where slot enumerates (vn, vc) pairs request VCs first. Per-port masks
// over slots name the VCs each allocator stage must visit, and the inbound
// mask names the wires with something in flight, so a tick touches only
// live state and Quiescent is a few word compares.
type Router struct {
	// The words every tick and every Quiescent poll read come first, so
	// they share a cache line.
	//
	// Quiescence state. inbound bit d is set while input link d carries a
	// flit, bit NumDirs+d while output d's credit wire carries an undo
	// token: the wires set their bit on Send and clear it when drained.
	inbound  uint16
	latched  uint8 // input ports with a non-empty bypass queue
	granted  uint8 // output ports with a grant for the next cycle
	buffered int   // flits in VC buffers
	grants   [mesh.NumDirs]grant

	waitVA [mesh.NumDirs]uint16 // per input port: routed heads awaiting VA
	ready  [mesh.NumDirs]uint16 // per input port: active VCs holding a flit

	nslots     int
	depth      int
	unbuffered uint16 // slots without buffer storage
	slotBase   [NumVNs]int
	slots      []vcSlot   // static enumeration of (vn, vc) pairs
	vcs        []inVC     // input VCs
	store      []*Flit    // VC buffers, depth entries per input VC
	outs       []outputVC // output VCs
	// creditTo is, per input VC, the upstream counter its buffer credits
	// return to: the upstream router's outputVC.credits or the NI's.
	creditTo []*int32
	credits  *creditQueue

	// Wires; absent ports (mesh edges) have nil links, and the Local
	// ports have no credit wire: no undo token walks into an NI.
	inLink     [mesh.NumDirs]*Link       // flits from the upstream router or NI
	upCredit   [mesh.NumDirs]*CreditLink // undo tokens we send upstream
	outLink    [mesh.NumDirs]*Link       // flits to the downstream router or NI
	downCredit [mesh.NumDirs]*CreditLink // undo tokens arriving from downstream

	id      mesh.NodeID
	cfg     *NetConfig
	handler CircuitHandler
	ev      *PowerEvents
	fault   FaultHook

	// Round-robin arbiter pointers.
	saInPtr  [mesh.NumDirs]int // per input port, over its VCs
	saOutPtr [mesh.NumDirs]int // per output port, over input ports
	byPtr    int               // over input ports, for bypass priority

	// flitsOut counts flits sent per output port, for utilization maps.
	flitsOut [mesh.NumDirs]int64

	byQ [mesh.NumDirs]ring[bypassEntry]

	// undo holds the token recvUndo is handling: the hooks take it by
	// pointer, and a pointer to a local would escape, one allocation per
	// token.
	undo UndoToken
}

// FlitsOut returns the number of flits this router sent through output
// port d over the run (Local = ejections to the NI).
func (r *Router) FlitsOut(d mesh.Dir) int64 { return r.flitsOut[d] }

// init builds r in place, over a zero router or one a finished run left:
// the rebuild names every field it sets and zeroes the rest — arbiter
// pointers, masks, the fault hook, counters — so only the per-VC arrays'
// memory and the bypass queues' slots carry over.
func (r *Router) init(id mesh.NodeID, cfg *NetConfig, handler CircuitHandler, ev *PowerEvents, credits *creditQueue) {
	for d := range r.byQ {
		r.byQ[d] = r.byQ[d].emptied()
	}
	*r = Router{
		id: id, cfg: cfg, handler: handler, ev: ev, credits: credits, depth: cfg.BufDepth,
		slots: r.slots[:0], vcs: r.vcs, store: r.store, outs: r.outs, creditTo: r.creditTo,
		byQ: r.byQ,
	}
	for vn := 0; vn < NumVNs; vn++ {
		r.slotBase[vn] = len(r.slots)
		for vc := 0; vc < cfg.VCsPerVN[vn]; vc++ {
			if !cfg.VCBuffered(vn, vc) {
				r.unbuffered |= 1 << len(r.slots)
			}
			r.slots = append(r.slots, vcSlot{vn: vn, vc: vc})
		}
	}
	r.nslots = len(r.slots)
	n := int(mesh.NumDirs) * r.nslots
	r.vcs = recycle.Zeroed(r.vcs, n)
	r.store = recycle.Zeroed(r.store, n*r.depth)
	r.outs = recycle.Zeroed(r.outs, n)
	r.creditTo = recycle.Zeroed(r.creditTo, n)
	for i := range r.outs {
		if r.unbuffered&(1<<(i%r.nslots)) == 0 {
			r.outs[i].credits = int32(r.depth)
		}
	}
}

// ID returns the router's node id.
func (r *Router) ID() mesh.NodeID { return r.id }

// addInput wires input port d: the flit link reports in-flight traffic in
// the router's inbound mask, and the credits of input VC slot s return to
// upstream(s).
func (r *Router) addInput(d mesh.Dir, link *Link, credit *CreditLink, upstream func(s int) *int32) {
	r.inLink[d], r.upCredit[d] = link, credit
	link.rx, link.bit = &r.inbound, 1<<d
	for s := 0; s < r.nslots; s++ {
		r.creditTo[int(d)*r.nslots+s] = upstream(s)
	}
}

// addOutput wires output port d; the credit wire (absent at Local) reports
// in-flight undo tokens in the router's inbound mask.
func (r *Router) addOutput(d mesh.Dir, link *Link, credit *CreditLink) {
	r.outLink[d], r.downCredit[d] = link, credit
	if credit != nil {
		credit.rx, credit.bit = &r.inbound, 1<<(mesh.NumDirs+d)
	}
}

// slot returns the slot index of (vn, vc).
func (r *Router) slot(vn, vc int) int { return r.slotBase[vn] + vc }

// vcAt returns the index of input VC (vn, vc) at port d, or of output VC
// (vn, vc) at output port d, in the flat per-VC arrays.
func (r *Router) vcAt(d mesh.Dir, vn, vc int) int { return int(d)*r.nslots + r.slotBase[vn] + vc }

// flitAt returns the k-th flit (0 = front) buffered in input VC i.
func (r *Router) flitAt(i, k int) *Flit {
	return r.store[i*r.depth+(int(r.vcs[i].head)+k)%r.depth]
}

// front returns the flit at the head of input VC i, or nil.
func (r *Router) front(i int) *Flit {
	if r.vcs[i].n == 0 {
		return nil
	}
	return r.store[i*r.depth+int(r.vcs[i].head)]
}

func (r *Router) push(i int, f *Flit) {
	v := &r.vcs[i]
	k := int(v.head) + int(v.n)
	if k >= r.depth {
		k -= r.depth
	}
	r.store[i*r.depth+k] = f
	v.n++
	r.buffered++
}

func (r *Router) pop(i int) *Flit {
	v := &r.vcs[i]
	at := i*r.depth + int(v.head)
	f := r.store[at]
	r.store[at] = nil
	if v.head++; int(v.head) == r.depth {
		v.head = 0
	}
	v.n--
	r.buffered--
	return f
}

// latch queues a flit for single-cycle traversal from input port d.
func (r *Router) latch(d mesh.Dir, e bypassEntry) {
	r.byQ[d].Push(e)
	r.latched |= 1 << d
}

// SendUndoCredit emits a circuit-undo token on the credit wire of input
// port in, toward the circuit destination. The Reactive Circuits layer uses
// it to start teardown walks ("we send the data of the circuit to be undone
// towards the circuit destination using credits").
func (r *Router) SendUndoCredit(in mesh.Dir, tok UndoToken, now sim.Cycle) {
	if r.upCredit[in] == nil {
		return // the walk ends at an NI boundary
	}
	r.upCredit[in].Send(tok, now)
	r.ev.CreditsSent++
}

// Tick advances the router one cycle. Stage order inside a cycle: undo
// and flit reception, switch traversal (executing last cycle's grants, with
// circuit flits taking priority), VC allocation, then switch allocation for
// the next cycle.
func (r *Router) Tick(now sim.Cycle) {
	if r.inbound&^flitWires != 0 {
		r.recvUndo(now)
	}
	if r.inbound&flitWires != 0 {
		r.recvFlits(now)
	}
	if r.latched|r.granted != 0 {
		r.stage3ST(now)
	}
	if r.buffered != 0 {
		r.stage2VA(now)
		r.stage3SAAlloc(now)
	}
}

// recvUndo drains arriving circuit-undo tokens: each clears its circuit
// here and walks on toward the circuit destination.
func (r *Router) recvUndo(now sim.Cycle) {
	for m := r.inbound >> mesh.NumDirs; m != 0; m &= m - 1 {
		d := mesh.Dir(bits.TrailingZeros16(m))
		for tok, ok := r.downCredit[d].Recv(now); ok; tok, ok = r.downCredit[d].Recv(now) {
			r.undo = tok
			if r.handler == nil || r.fault != nil && r.fault.DropUndo(r.id, &r.undo, now) {
				continue // no circuit layer, or an injected fault: the walk ends here
			}
			if fwd, ok := r.handler.OnUndo(r.id, &r.undo, d, now); ok && fwd != mesh.Local {
				r.SendUndoCredit(fwd, r.undo, now)
			}
		}
	}
}

// recvFlits performs stage 1 (routing and input buffering) plus the
// Figure-3 circuit check at the input units.
func (r *Router) recvFlits(now sim.Cycle) {
	for m := r.inbound & flitWires; m != 0; m &= m - 1 {
		d := mesh.Dir(bits.TrailingZeros16(m))
		f := r.inLink[d].Recv(now)
		if f == nil {
			continue
		}
		f.arrivedAt = now
		if r.handler != nil && f.Msg.VN == VNReply {
			r.ev.CircuitChecks++
			if out, outVC, ok := r.handler.Bypass(r.id, f, d, now); ok {
				r.latch(d, bypassEntry{f: f, vn: VNReply, out: out, outVC: outVC, arrVC: f.VC})
				continue
			}
		}
		if r.cfg.Speculative && r.trySpeculate(d, f, now) {
			continue
		}
		vn := f.Msg.VN
		s := r.slot(vn, f.VC)
		if r.unbuffered&(1<<s) != 0 {
			panic(fmt.Sprintf("noc: router %d: flit of msg %d arrived on unbuffered vc%d without a circuit", r.id, f.Msg.ID, f.VC))
		}
		i := int(d)*r.nslots + s
		v := &r.vcs[i]
		if int(v.n) >= r.depth {
			panic(fmt.Sprintf("noc: router %d: buffer overflow at %v vn%d vc%d (credit protocol violated)", r.id, d, vn, f.VC))
		}
		r.push(i, f)
		v.pushedAt = now
		r.ev.BufWrites++
		if v.state == vcActive {
			r.ready[d] |= 1 << s
		} else if f.Head && v.n == 1 && v.state == vcIdle {
			r.startMessage(d, s, f, 1, now)
		}
	}
}

// trySpeculate attempts the single-cycle comparator path: a head flit
// whose input VC is idle grabs a free output VC and crosses the router
// this cycle with lowest crossbar priority; its body flits follow through
// the route it leaves on the input VC. On any missing resource the flit
// takes the normal pipeline.
func (r *Router) trySpeculate(d mesh.Dir, f *Flit, now sim.Cycle) bool {
	msg := f.Msg
	v := &r.vcs[r.vcAt(d, msg.VN, f.VC)]
	if v.spec { // body/tail of a speculating message
		v.spec = !f.Tail
		r.latch(d, bypassEntry{f: f, vn: msg.VN, out: v.route, outVC: int(v.outVC), arrVC: f.VC, spec: true})
		return true
	}
	if !f.Head {
		return false
	}
	if v.state != vcIdle || v.n > 0 {
		return false // older flits queued: keep FIFO order
	}
	out := r.cfg.Mesh.NextDir(r.cfg.Routing(msg.VN), r.id, msg.Dst)
	if r.outLink[out] == nil {
		return false
	}
	for ov := 0; ov < r.cfg.AllocatableVCs(msg.VN); ov++ {
		o := &r.outs[r.vcAt(out, msg.VN, ov)]
		if o.owned || (out != mesh.Local && o.credits <= 0) {
			continue
		}
		o.owned, o.in, o.inSlot = true, d, uint8(r.slot(msg.VN, f.VC))
		v.spec, v.route, v.outVC = !f.Tail, out, uint8(ov)
		r.latch(d, bypassEntry{f: f, vn: msg.VN, out: out, outVC: ov, arrVC: f.VC, spec: true})
		return true
	}
	return false
}

// startMessage performs route computation for the head flit now at the
// front of input VC slot s of port d; VC allocation becomes eligible after
// rcDelay cycles.
func (r *Router) startMessage(d mesh.Dir, s int, head *Flit, rcDelay sim.Cycle, now sim.Cycle) {
	v := &r.vcs[int(d)*r.nslots+s]
	v.state = vcWaitVA
	v.vaEligibleAt = now + rcDelay
	v.route = r.cfg.Mesh.NextDir(r.cfg.Routing(head.Msg.VN), r.id, head.Msg.Dst)
	r.waitVA[d] |= 1 << s
}

// stage3ST executes switch traversal: circuit flits first (they have
// crossbar priority), then the switch allocations granted last cycle.
func (r *Router) stage3ST(now sim.Cycle) {
	var usedIn, usedOut uint8

	// Circuit flits cross first (crossbar priority); in the speculative
	// comparator the bypass queue instead holds speculating flits, which
	// get the *lowest* priority and run after the grants.
	if r.latched != 0 && !r.cfg.Speculative {
		r.runBypass(&usedIn, &usedOut, now)
	}

	// Granted buffered flits. A grant whose crossbar input or output was
	// claimed by a circuit this cycle is cancelled and retried.
	granted := r.granted
	r.granted = 0
	for ; granted != 0; granted &= granted - 1 {
		d := mesh.Dir(bits.TrailingZeros8(granted))
		g := r.grants[d]
		if usedIn&(1<<g.in) != 0 || usedOut&(1<<d) != 0 {
			r.ev.Retries++
			continue
		}
		s := int(g.slot)
		if r.ready[g.in]&(1<<s) == 0 {
			continue // stale grant
		}
		i := int(g.in)*r.nslots + s
		v := &r.vcs[i]
		vn := r.slots[s].vn
		os := r.slot(vn, int(v.outVC))
		o := &r.outs[int(d)*r.nslots+os]
		buffered := d != mesh.Local && r.unbuffered&(1<<os) == 0
		if buffered && o.credits <= 0 {
			continue // credit consumed since allocation; retry
		}
		if !r.outLink[d].LaneFree(0, now) {
			r.ev.Retries++
			continue // packet lane still serializing; retry
		}
		f := r.pop(i)
		r.ev.BufReads++
		f.VC = int(v.outVC)
		f.Lane = 0 // granted traffic rides the reserved packet lane
		r.sendFlit(d, f, now)
		if buffered {
			o.credits--
		}
		r.returnCredit(g.in, s, now)
		usedIn |= 1 << g.in
		usedOut |= 1 << d
		if f.Tail {
			o.owned = false
			v.state = vcIdle
			r.ready[g.in] &^= 1 << s
			if next := r.front(i); next != nil {
				if !next.Head {
					panic(fmt.Sprintf("noc: router %d: non-head flit of msg %d queued behind a tail", r.id, next.Msg.ID))
				}
				// The revealed head occupies the route-compute stage
				// next cycle and may try allocation the cycle after.
				r.startMessage(g.in, s, next, 2, now)
			}
		} else if v.n == 0 {
			r.ready[g.in] &^= 1 << s
		}
	}

	if r.latched != 0 && r.cfg.Speculative {
		r.runBypass(&usedIn, &usedOut, now)
	}
}

// runBypass forwards the head of each input port's bypass queue through
// the crossbar, arbitrated round-robin. Circuit flits must never stall in
// the complete variants (invariant panic); fragmented, ideal and
// speculative flits may wait.
func (r *Router) runBypass(usedIn, usedOut *uint8, now sim.Cycle) {
	var outUser [mesh.NumDirs]*Flit
	for i := 0; i < int(mesh.NumDirs); i++ {
		d := mesh.Dir((r.byPtr + i) % int(mesh.NumDirs))
		if r.latched&(1<<d) == 0 || *usedIn&(1<<d) != 0 {
			continue
		}
		q := &r.byQ[d]
		e := q.Front()
		stall := *usedOut&(1<<e.out) != 0
		if r.outLink[e.out] == nil {
			panic(fmt.Sprintf("noc: router %d circuit points at missing port %v", r.id, e.out))
		}
		o := &r.outs[r.vcAt(e.out, e.vn, e.outVC)]
		needCredit := e.out != mesh.Local && r.unbuffered&(1<<r.slot(e.vn, e.outVC)) == 0
		if !stall && needCredit && o.credits <= 0 {
			stall = true
		}
		// On lane-divided links the circuit's lane (stamped on the flit by
		// the handler's Bypass) must have finished serializing its previous
		// flit before the next may enter the wire.
		if !stall && !r.outLink[e.out].LaneFree(e.f.Lane, now) {
			stall = true
		}
		if stall {
			if !e.spec && (r.handler == nil || !r.handler.BypassBuffered()) {
				var other *Message
				if outUser[e.out] != nil {
					other = outUser[e.out].Msg
				}
				panic(fmt.Sprintf("noc: router %d cycle %d: complete-circuit flit %d of msg %+v blocked at %v out %v (holder: %+v)",
					r.id, now, e.f.Seq, *e.f.Msg, d, e.out, other))
			}
			continue
		}
		if q.Pop(); q.Len() == 0 {
			r.latched &^= 1 << d
		}
		*usedIn |= 1 << d
		*usedOut |= 1 << e.out
		outUser[e.out] = e.f
		e.f.VC = e.outVC
		e.f.OnCircuit = !e.spec
		r.sendFlit(e.out, e.f, now)
		if needCredit {
			o.credits--
		}
		// The flit left the input stage: return the slot it occupied
		// upstream (unless it rode the unbuffered circuit VC).
		if as := r.slot(e.vn, e.arrVC); r.unbuffered&(1<<as) == 0 {
			r.returnCredit(d, as, now)
		}
		if e.f.Tail {
			if e.spec {
				o.owned = false
			} else if r.handler != nil {
				r.handler.Release(r.id, e.f, d, now)
			}
		}
	}
	r.byPtr = (r.byPtr + 1) % int(mesh.NumDirs)
}

// stage2VA runs the two-phase VC allocator: requests, then grants in
// (input port, slot) order. Circuit reservation happens "in parallel with
// VC allocation" via OnRequestVA — the switching policy's Reserve hook
// fires here, and its table write becomes visible to the next cycle's
// bypass checks, never this one's.
func (r *Router) stage2VA(now sim.Cycle) {
	if r.waitVA == [mesh.NumDirs]uint16{} {
		return
	}
	var reqs [mesh.NumDirs][mesh.NumDirs]uint16 // [out][in] requesting slots
	var reqIns [mesh.NumDirs]uint8              // per output: requesting input ports
	var reqOuts uint8                           // outputs with a request

	// Phase 1: each routed head requests the free allocatable output VC
	// with the most credits.
	for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
		for m := r.waitVA[d]; m != 0; m &= m - 1 {
			s := bits.TrailingZeros16(m)
			v := &r.vcs[int(d)*r.nslots+s]
			if v.vaEligibleAt > now {
				continue
			}
			if r.outLink[v.route] == nil {
				panic(fmt.Sprintf("noc: router %d: route %v has no port", r.id, v.route))
			}
			vn := r.slots[s].vn
			outs := r.outs[r.vcAt(v.route, vn, 0):]
			cand, best := -1, int32(-1)
			for ov := 0; ov < r.cfg.AllocatableVCs(vn); ov++ {
				if outs[ov].owned {
					continue
				}
				cr := outs[ov].credits
				if v.route == mesh.Local {
					cr = int32(r.depth) // ejection always sinks
				}
				if cr > best {
					best, cand = cr, ov
				}
			}
			if cand < 0 {
				continue
			}
			v.cand = uint8(cand)
			reqs[v.route][d] |= 1 << s
			reqIns[v.route] |= 1 << d
			reqOuts |= 1 << v.route
		}
	}

	// Phase 2: per output port, grant contenders in (input port, slot)
	// order; at most one grant per output VC per cycle.
	for ; reqOuts != 0; reqOuts &= reqOuts - 1 {
		o := mesh.Dir(bits.TrailingZeros8(reqOuts))
		var taken uint16 // output VC slots granted this cycle
		for ins := reqIns[o]; ins != 0; ins &= ins - 1 {
			d := mesh.Dir(bits.TrailingZeros8(ins))
			for m := reqs[o][d]; m != 0; m &= m - 1 {
				r.grantVC(o, d, bits.TrailingZeros16(m), &taken, now)
			}
		}
	}
}

// grantVC hands input VC slot s of port d the output VC of port o it
// requested, unless another request took it first.
func (r *Router) grantVC(o, d mesh.Dir, s int, taken *uint16, now sim.Cycle) {
	i := int(d)*r.nslots + s
	v := &r.vcs[i]
	os := r.slot(r.slots[s].vn, int(v.cand))
	out := &r.outs[int(o)*r.nslots+os]
	if *taken&(1<<os) != 0 || out.owned {
		return
	}
	*taken |= 1 << os
	v.state = vcActive
	v.outVC = v.cand
	v.saEligibleAt = now + 1
	r.waitVA[d] &^= 1 << s
	r.ready[d] |= 1 << s
	out.owned, out.in, out.inSlot = true, d, uint8(s)
	r.ev.VAActivity++
	// Circuit-reserving messages (requests in the paper's mechanism, setup
	// probes in the Déjà-Vu comparator) build their reservation in
	// parallel with VC allocation.
	if r.handler != nil {
		if f := r.front(i); f.Msg.WantCircuit {
			r.handler.OnRequestVA(r.id, f.Msg, d, o, now)
		}
	}
}

// stage3SAAlloc runs the two-phase switch allocator, producing the grants
// that switch traversal executes next cycle.
func (r *Router) stage3SAAlloc(now sim.Cycle) {
	var outReq [mesh.NumDirs]uint8 // per output: input ports whose winner wants it
	var winner [mesh.NumDirs]uint8 // per input port: its phase-1 winning slot

	for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
		var req uint16
		for m := r.ready[d]; m != 0; m &= m - 1 {
			s := bits.TrailingZeros16(m)
			i := int(d)*r.nslots + s
			v := &r.vcs[i]
			if v.route != mesh.Local {
				os := r.slot(r.slots[s].vn, int(v.outVC))
				if r.unbuffered&(1<<os) == 0 && r.outs[int(v.route)*r.nslots+os].credits <= 0 {
					continue
				}
			}
			// The grant executes next cycle; skip outputs whose packet
			// lane will still be serializing then.
			if r.cfg.LinkLanes > 1 && !r.outLink[v.route].LaneFree(0, now+1) {
				continue
			}
			// The front flit must have arrived before this cycle: it
			// arrived now only if it is the one flit pushed now.
			if v.saEligibleAt > now || (v.pushedAt == now && v.n == 1) {
				continue
			}
			req |= 1 << s
		}
		if req == 0 {
			continue
		}
		s := arbitrate(uint64(req), r.nslots, &r.saInPtr[d])
		winner[d] = uint8(s)
		outReq[r.vcs[int(d)*r.nslots+s].route] |= 1 << d
	}

	for o := mesh.Dir(0); o < mesh.NumDirs; o++ {
		if outReq[o] == 0 {
			continue
		}
		in := mesh.Dir(arbitrate(uint64(outReq[o]), int(mesh.NumDirs), &r.saOutPtr[o]))
		r.grants[o] = grant{in: in, slot: winner[in]}
		r.granted |= 1 << o
		r.ev.SAActivity++
	}
}

// arbitrate is the round-robin arbiter behind the paper's "round-robin
// 2-phase VC/switch allocators": over the n-bit request mask req it grants
// the first set bit at or after *ptr, wrapping around, and advances *ptr
// past the winner. It returns -1 when nothing is requested; a pointer at or
// beyond n restarts at 0.
func arbitrate(req uint64, n int, ptr *int) int {
	if n == 0 {
		return -1
	}
	if *ptr >= n {
		*ptr = 0
	}
	if req == 0 {
		return -1
	}
	// Rotating right by the pointer puts the bits at or after it lowest.
	idx := (bits.TrailingZeros64(bits.RotateLeft64(req, -*ptr)) + *ptr) & 63
	if *ptr = idx + 1; *ptr == n {
		*ptr = 0
	}
	return idx
}

// sendFlit puts f on output port out's link and counts the traversal,
// honouring an armed link-stall fault.
func (r *Router) sendFlit(out mesh.Dir, f *Flit, now sim.Cycle) {
	var extra sim.Cycle
	if r.fault != nil {
		extra = r.fault.StallFlit(r.id, out, now)
	}
	r.outLink[out].SendDelayed(f, now, extra)
	r.flitsOut[out]++
	r.ev.XbarTraversals++
	if out != mesh.Local {
		r.ev.LinkFlits++
	}
}

// returnCredit returns the buffer slot of input VC slot s of port in to
// its upstream counter, which the network increments at the cycle
// boundary, honouring an armed credit-withholding fault.
func (r *Router) returnCredit(in mesh.Dir, s int, now sim.Cycle) {
	if r.fault != nil && r.fault.WithholdCredit(r.id, in, now) {
		return // injected fault: the slot is never returned upstream
	}
	r.credits.cur = append(r.credits.cur, r.creditTo[int(in)*r.nslots+s])
	r.ev.CreditsSent++
}

// Quiescent reports whether the router's next Tick is a pure no-op: no
// flit buffered or latched, nothing in flight on an input link, no undo
// token in flight from a downstream neighbour, and no pending switch grant.
// Input links and downstream credit wires are part of the check because
// Tick drains both; their senders invoke this router's Waker at send time,
// so a sleeping router is revived before traffic reaches it. Buffer
// credits are not: they land in the counters at the cycle boundary without
// a tick.
func (r *Router) Quiescent() bool {
	return r.inbound == 0 && r.buffered == 0 && r.latched == 0 && r.granted == 0
}
