package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/recycle"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Receiver consumes messages fully delivered at a network interface.
type Receiver func(m *Message, now sim.Cycle)

// NI is a tile's network interface: it serializes outgoing messages into
// flits, arbitrates injection between the two virtual networks, tracks the
// credits of its router's local input port, and reassembles arrivals.
// Messages whose source and destination tile coincide never enter the
// network and are delivered locally after one cycle.
type NI struct {
	id   mesh.NodeID
	cfg  *NetConfig
	ev   *PowerEvents
	pool *pools

	toRouter   *Link
	fromRouter *Link

	queues [NumVNs]ring[*Message]
	open   [NumVNs]openMsg
	// credits counts the free slots of the router's local input VCs; the
	// router's credits land in it at the cycle boundary.
	credits [NumVNs][]int32
	vnPtr   int

	local ring[localDelivery]

	hook   NIHook
	recv   Receiver
	tracer *trace.Buffer
	wake   sim.Waker

	// expectSeq validates wormhole integrity on ejection: flits of each
	// message must arrive in sequence order with none missing.
	expectSeq map[*Message]int

	// injected/ejected count flits this NI has put on and taken off the
	// network, feeding the verification suite's conservation and progress
	// oracles. Local (Src == Dst) deliveries never become flits and are
	// not counted.
	injected int64
	ejected  int64
}

// openMsg is the message currently serializing into flits on a virtual
// network. Flits are drawn from the network's free-list one per cycle as
// they inject, rather than pre-expanded into a []*Flit per message.
type openMsg struct {
	msg  *Message
	next int
	vc   int
}

type localDelivery struct {
	msg *Message
	at  sim.Cycle
}

// init builds ni in place, over a zero NI or one a finished run left: its
// queues' slots, credit counters and sequence map carry over, emptied, and
// every other field comes back zero. Network.Init wires its links.
func (ni *NI) init(id mesh.NodeID, cfg *NetConfig, ev *PowerEvents, hook NIHook, pool *pools) {
	for vn := range ni.queues {
		ni.queues[vn] = ni.queues[vn].emptied()
	}
	clear(ni.expectSeq)
	*ni = NI{
		id: id, cfg: cfg, ev: ev, hook: hook, pool: pool,
		queues: ni.queues, credits: ni.credits, local: ni.local.emptied(),
		expectSeq: ni.expectSeq,
	}
	for vn := 0; vn < NumVNs; vn++ {
		ni.credits[vn] = recycle.Zeroed(ni.credits[vn], cfg.VCsPerVN[vn])
		for vc := range ni.credits[vn] {
			if cfg.VCBuffered(vn, vc) {
				ni.credits[vn][vc] = int32(cfg.BufDepth)
			}
		}
	}
}

// ID returns the tile id this NI serves.
func (ni *NI) ID() mesh.NodeID { return ni.id }

// SetReceiver installs the delivery callback (the tile's controllers).
func (ni *NI) SetReceiver(r Receiver) { ni.recv = r }

// SetWaker installs the NI's kernel waker; Send and SendFront self-wake so
// an activity-tracked NI resumes injecting when it is handed a message.
func (ni *NI) SetWaker(w sim.Waker) { ni.wake = w }

// Quiescent reports whether the NI's next Tick is a pure no-op: nothing
// queued, draining, or pending local delivery, and nothing in flight on the
// ejection wire from its router.
func (ni *NI) Quiescent() bool {
	return ni.QueueLen() == 0 && !ni.fromRouter.Busy()
}

// Send enqueues m for injection at cycle now.
func (ni *NI) Send(m *Message, now sim.Cycle) {
	if m.Size <= 0 {
		panic(fmt.Sprintf("noc: message %d has size %d", m.ID, m.Size))
	}
	if m.VN < 0 || m.VN >= NumVNs {
		panic(fmt.Sprintf("noc: message %d has VN %d", m.ID, m.VN))
	}
	m.EnqueuedAt = now
	ni.wake.Wake()
	if ni.tracer != nil {
		ni.tracer.Record(now, trace.Enqueue, m.ID, ni.id,
			fmt.Sprintf("type=%d %d->%d size=%d", m.Type, m.Src, m.Dst, m.Size))
	}
	if m.Src == m.Dst {
		// Local exchange between the L1 and the co-located L2 bank: it
		// never traverses the network (Table 1 counts only network
		// messages) but still costs a cycle through the tile wiring.
		m.LocalHop = true
		m.InjectedAt = now
		ni.local.Push(localDelivery{msg: m, at: now + 1})
		return
	}
	ni.queues[m.VN].Push(m)
}

// SendFront enqueues m ahead of everything waiting in its virtual network —
// used by setup probes that must precede the reply they announce.
func (ni *NI) SendFront(m *Message, now sim.Cycle) {
	if m.Src == m.Dst {
		ni.Send(m, now)
		return
	}
	m.EnqueuedAt = now
	ni.wake.Wake()
	ni.queues[m.VN].PushFront(m)
}

// ReplyIdle reports whether the reply virtual network has nothing queued or
// draining at this NI — a reply enqueued now will start injecting within
// two cycles. The coherence layer eliminates an acknowledgement only then.
func (ni *NI) ReplyIdle() bool {
	return ni.queues[VNReply].Len() == 0 && ni.open[VNReply].msg == nil
}

// QueueLen returns the number of messages waiting or draining at this NI.
func (ni *NI) QueueLen() int {
	n := ni.local.Len()
	for vn := 0; vn < NumVNs; vn++ {
		n += ni.queues[vn].Len()
		if ni.open[vn].msg != nil {
			n++
		}
	}
	return n
}

// Tick advances the NI one cycle: ejection, local deliveries, then at
// most one injected flit.
func (ni *NI) Tick(now sim.Cycle) {
	if f := ni.fromRouter.Recv(now); f != nil {
		ni.ejected++
		ni.checkSequence(f)
		if f.Tail {
			ni.deliverTail(f, now)
		}
		// The flit's journey ends here; nothing downstream of the NI may
		// hold it (DESIGN.md §4.10), so it returns to the free-list.
		ni.pool.putFlit(f)
	}

	for ni.local.Len() > 0 && ni.local.Front().at <= now {
		m := ni.local.Pop().msg
		m.DeliveredAt = now
		if ni.recv != nil {
			ni.recv(m, now)
		}
	}

	ni.inject(now)
}

// checkSequence asserts wormhole integrity: the flits of every message
// arrive in order with none missing — any routing or VC-discipline bug
// surfaces here instead of as silent data corruption.
func (ni *NI) checkSequence(f *Flit) {
	if ni.expectSeq == nil {
		ni.expectSeq = map[*Message]int{}
	}
	want := ni.expectSeq[f.Msg]
	if f.Seq != want {
		panic(fmt.Sprintf("noc: NI %d: msg %d flit %d arrived, expected %d (wormhole violated)",
			ni.id, f.Msg.ID, f.Seq, want))
	}
	if f.Tail {
		delete(ni.expectSeq, f.Msg)
	} else {
		ni.expectSeq[f.Msg] = want + 1
	}
}

// deliverTail finalizes a fully arrived message.
func (ni *NI) deliverTail(f *Flit, now sim.Cycle) {
	m := f.Msg
	m.DeliveredAt = now
	if ni.tracer != nil {
		ni.tracer.Record(now, trace.Deliver, m.ID, ni.id,
			fmt.Sprintf("net=%d queue=%d", m.DeliveredAt-m.InjectedAt, m.InjectedAt-m.EnqueuedAt))
	}
	deliver := true
	if ni.hook != nil {
		deliver = ni.hook.OnDeliver(ni.id, m, now)
	}
	if deliver && ni.recv != nil {
		ni.recv(m, now)
	}
}

// inject sends at most one flit. A reply streaming onto a reactive circuit
// has absolute priority and is never interleaved with other traffic: the
// reserved time window covers exactly one flit per cycle, so the burst must
// stay contiguous. Otherwise the virtual networks round-robin.
func (ni *NI) inject(now sim.Cycle) {
	for vn := 0; vn < NumVNs; vn++ {
		if o := &ni.open[vn]; o.msg != nil && o.msg.UseCircuit {
			ni.tryInjectVN(vn, now)
			return
		}
	}
	for i := 0; i < NumVNs; i++ {
		vn := (ni.vnPtr + i) % NumVNs
		if ni.tryInjectVN(vn, now) {
			ni.vnPtr = (vn + 1) % NumVNs
			return
		}
	}
}

func (ni *NI) tryInjectVN(vn int, now sim.Cycle) bool {
	o := &ni.open[vn]
	if o.msg == nil {
		q := &ni.queues[vn]
		if q.Len() == 0 {
			return false
		}
		// The hook is consulted every cycle until injection starts; it
		// commits its decision (circuit ride, scrounge, classification)
		// only in the call whose returned cycle allows injection now.
		// Normally only the queue head is considered (FIFO); with
		// AllowQueueOvertake later messages may pass a held-back head.
		scan := 1
		if ni.cfg.AllowQueueOvertake {
			scan = q.Len()
			if scan > 8 {
				scan = 8
			}
		}
		pick := -1
		for i := 0; i < scan; i++ {
			m := q.At(i)
			if ni.hook != nil {
				if notBefore := ni.hook.OnInject(ni.id, m, now); now < notBefore {
					continue // still waiting (e.g. for its setup probe)
				}
			}
			pick = i
			break
		}
		if pick < 0 {
			return false
		}
		m := q.At(pick)
		vc := ni.pickVC(vn, m)
		if vc < 0 {
			return false
		}
		q.RemoveAt(pick)
		*o = openMsg{msg: m, vc: vc}
	}
	// Credit for the next flit (unbuffered circuit VCs need none).
	if ni.cfg.VCBuffered(vn, o.vc) {
		if ni.credits[vn][o.vc] <= 0 {
			return false
		}
		ni.credits[vn][o.vc]--
	}
	f := ni.pool.getFlit()
	f.Msg = o.msg
	f.Seq = o.next
	f.Head = o.next == 0
	f.Tail = o.next == o.msg.Size-1
	f.VC = o.vc
	if f.Head {
		o.msg.InjectedAt = now
		if ni.tracer != nil {
			note := fmt.Sprintf("vc=%d", o.vc)
			if o.msg.UseCircuit {
				note += " on-circuit"
			}
			ni.tracer.Record(now, trace.Inject, o.msg.ID, ni.id, note)
		}
	}
	ni.toRouter.Send(f, now)
	ni.injected++
	ni.ev.LinkFlits++
	o.next++
	if o.next == o.msg.Size {
		*o = openMsg{}
	}
	return true
}

// pickVC chooses the injection VC: a forced circuit VC (the switching
// policy's Inject hook sets Message.InjectVC when the reply rides a
// reservation), or the allocatable VC with the most credits.
func (ni *NI) pickVC(vn int, m *Message) int {
	if m.InjectVC > 0 {
		if m.InjectVC >= ni.cfg.VCsPerVN[vn] {
			panic(fmt.Sprintf("noc: message %d forces invalid vc%d", m.ID, m.InjectVC))
		}
		if ni.cfg.VCBuffered(vn, m.InjectVC) && ni.credits[vn][m.InjectVC] <= 0 {
			return -1
		}
		return m.InjectVC
	}
	best, bestCr := -1, int32(0)
	for vc := 0; vc < ni.cfg.AllocatableVCs(vn); vc++ {
		if cr := ni.credits[vn][vc]; cr > bestCr {
			best, bestCr = vc, cr
		}
	}
	return best
}
