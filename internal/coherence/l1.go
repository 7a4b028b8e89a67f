package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// L1 line states (MESI; I is simply "not present").
const (
	l1S uint8 = 1
	l1E uint8 = 2
	l1M uint8 = 3
)

// L1Ctrl is a tile's private L1 cache controller. The core is in-order and
// blocking: at most one outstanding data miss.
type L1Ctrl struct {
	sys *System
	id  mesh.NodeID
	c   *cache.Cache
	q   procQueue

	// txn points at txnBuf while a miss is outstanding (at most one: the
	// core is blocking), so starting a miss never allocates.
	txn    *l1Txn
	txnBuf l1Txn
	// wb is the write-back buffer: evicted E/M lines awaiting L2_WB_ACK.
	// Forwards and invalidations are served from it, so data is never
	// lost to a replacement race.
	wb map[cache.Addr]uint8

	// onDone resumes the core when the outstanding miss completes.
	onDone func(now sim.Cycle)

	wake sim.Waker
}

type l1Txn struct {
	addr   cache.Addr
	write  bool
	waitWB bool // the target line is draining through the wb buffer
}

func newL1(sys *System, id mesh.NodeID) *L1Ctrl {
	return &L1Ctrl{sys: sys, id: id, c: sys.l1Arrays.Cache(int(id)), wb: map[cache.Addr]uint8{}}
}

// Cache exposes the underlying array (stats, tests).
func (l *L1Ctrl) Cache() *cache.Cache { return l.c }

// SetMissHandler installs the core's resume callback.
func (l *L1Ctrl) SetMissHandler(fn func(now sim.Cycle)) { l.onDone = fn }

// Pending reports whether a miss is outstanding.
func (l *L1Ctrl) Pending() bool { return l.txn != nil }

// Access performs a load (write=false) or store (write=true). It returns
// true on a hit; on a miss the controller issues the coherence transaction
// and later invokes the miss handler. At most one access may be outstanding.
func (l *L1Ctrl) Access(a cache.Addr, write bool, now sim.Cycle) bool {
	if l.txn != nil {
		panic(fmt.Sprintf("coherence: L1 %d access while a miss is outstanding", l.id))
	}
	addr := l.c.Config().Block(a)
	if line, ok := l.c.Lookup(addr); ok {
		if !write || line.State != l1S {
			if write {
				line.State = l1M
			}
			return true
		}
		// Write to a shared line: upgrade through a GetX miss.
	}
	l.txnBuf = l1Txn{addr: addr, write: write}
	l.txn = &l.txnBuf
	if _, pending := l.wb[addr]; pending {
		l.txn.waitWB = true // reissue after the write-back drains
		return false
	}
	l.issue(now)
	return false
}

func (l *L1Ctrl) issue(now sim.Cycle) {
	t := MsgGetS
	if l.txn.write {
		t = MsgGetX
	}
	l.sys.send(t, l.id, l.sys.HomeBank(l.txn.addr), l.txn.addr,
		Payload{Requestor: int(l.id), Write: l.txn.write}, now)
}

func (l *L1Ctrl) deliver(msg *noc.Message, now sim.Cycle) {
	l.wake.Wake()
	l.q.push(now+L1HitLatency, msg)
}

// Quiescent reports whether the next Tick is a pure no-op: Tick only
// drains the access-latency queue, so an empty queue suffices even while a
// miss or write-back is outstanding — those resolve through deliver, which
// wakes the controller.
func (l *L1Ctrl) Quiescent() bool { return l.q.empty() }

// Tick processes messages whose L1 access latency has elapsed. The L1
// never retains a message past handle, so every one retires to the
// network's free-list here.
func (l *L1Ctrl) Tick(now sim.Cycle) {
	for _, msg := range l.q.due(now) {
		l.handle(msg, now)
		l.sys.Net.FreeMessage(msg)
	}
}

func (l *L1Ctrl) handle(msg *noc.Message, now sim.Cycle) {
	addr := cache.Addr(msg.Block)
	pl := UnpackPayload(msg.Payload)
	switch MsgType(msg.Type) {
	case MsgL2Reply:
		l.completeMiss(addr, pl, now)
		if !pl.NoAck {
			l.sys.send(MsgDataAck, l.id, l.sys.HomeBank(addr), addr, Payload{}, now)
		}
	case MsgL1ToL1:
		l.completeMiss(addr, pl, now)
		l.sys.send(MsgDataAck, l.id, l.sys.HomeBank(addr), addr,
			Payload{Dirty: pl.Dirty, OwnerKept: pl.OwnerKept}, now)
	case MsgWBAck:
		if _, ok := l.wb[addr]; !ok {
			panic(fmt.Sprintf("coherence: L1 %d WBAck for unknown write-back %#x", l.id, addr))
		}
		delete(l.wb, addr)
		if l.txn != nil && l.txn.waitWB && l.txn.addr == addr {
			l.txn.waitWB = false
			l.issue(now)
		}
	case MsgFwd:
		l.handleFwd(addr, pl, now)
	case MsgInv:
		l.handleInv(addr, now)
	default:
		panic(fmt.Sprintf("coherence: L1 %d cannot handle %v", l.id, MsgType(msg.Type)))
	}
}

// completeMiss fills the line and resumes the core.
func (l *L1Ctrl) completeMiss(addr cache.Addr, pl Payload, now sim.Cycle) {
	if l.txn == nil || l.txn.addr != addr {
		panic(fmt.Sprintf("coherence: L1 %d data reply for %#x without transaction", l.id, addr))
	}
	state := l1S
	switch {
	case l.txn.write:
		state = l1M
	case pl.Exclusive:
		state = l1E
	}
	l.fill(addr, state, now)
	l.txn = nil
	if l.onDone != nil {
		l.onDone(now)
	}
}

// fill installs a line, writing back any dirty victim through the wb buffer.
func (l *L1Ctrl) fill(addr cache.Addr, state uint8, now sim.Cycle) {
	if line, ok := l.c.Peek(addr); ok {
		line.State = state // upgrade in place
		return
	}
	v := l.c.Victim(addr)
	if v == nil {
		panic(fmt.Sprintf("coherence: L1 %d has no victim for %#x", l.id, addr))
	}
	// Only modified lines carry data back (Table 3's L1 replacement);
	// clean lines are dropped silently — a later forward that finds
	// nothing is answered with Fwd_Miss and served by the bank.
	if v.Valid && v.State == l1M {
		vaddr := l.c.AddrOf(v, addr)
		if _, dup := l.wb[vaddr]; dup {
			panic(fmt.Sprintf("coherence: L1 %d double write-back of %#x", l.id, vaddr))
		}
		l.wb[vaddr] = v.State
		l.sys.send(MsgWBData, l.id, l.sys.HomeBank(vaddr), vaddr, Payload{}, now)
	}
	l.c.Fill(v, addr, state)
}

// handleFwd serves a forward: this L1 owns the line (possibly in its
// write-back buffer) and sends it directly to the requestor. A forwarded
// GetX migrates ownership; a forwarded GetS downgrades this L1 to shared.
func (l *L1Ctrl) handleFwd(addr cache.Addr, pl Payload, now sim.Cycle) {
	reply := Payload{
		Requestor:     pl.Requestor,
		Write:         pl.Write,
		CircuitUndone: pl.CircuitUndone,
	}
	if line, ok := l.c.Peek(addr); ok {
		if line.State == l1S {
			panic(fmt.Sprintf("coherence: L1 %d forwarded for a shared line %#x", l.id, addr))
		}
		reply.Dirty = line.State == l1M
		if pl.Write {
			l.c.Invalidate(addr)
		} else {
			line.State = l1S
			reply.OwnerKept = true
		}
	} else if st, ok := l.wb[addr]; ok {
		reply.Dirty = st == l1M // serve from the wb buffer; entry stays until acked
	} else {
		// The clean copy was silently replaced: tell the bank to serve
		// the request from its own (still valid) data.
		l.sys.send(MsgFwdMiss, l.id, l.sys.HomeBank(addr), addr, reply, now)
		return
	}
	l.sys.send(MsgL1ToL1, l.id, mesh.NodeID(pl.Requestor), addr, reply, now)
}

// handleInv invalidates a copy. Owners being recalled return their data;
// stale-sharer invalidations (the line was silently replaced) are simply
// acknowledged.
func (l *L1Ctrl) handleInv(addr cache.Addr, now sim.Cycle) {
	home := l.sys.HomeBank(addr)
	if line, ok := l.c.Peek(addr); ok {
		dirty := line.State == l1M
		l.c.Invalidate(addr)
		if dirty {
			l.sys.send(MsgInvAckData, l.id, home, addr, Payload{Dirty: true}, now)
		} else {
			l.sys.send(MsgInvAck, l.id, home, addr, Payload{}, now)
		}
		return
	}
	if st, ok := l.wb[addr]; ok {
		if st == l1M {
			l.sys.send(MsgInvAckData, l.id, home, addr, Payload{Dirty: true}, now)
		} else {
			l.sys.send(MsgInvAck, l.id, home, addr, Payload{}, now)
		}
		return
	}
	l.sys.send(MsgInvAck, l.id, home, addr, Payload{}, now)
}

func (l *L1Ctrl) busy() bool {
	return l.txn != nil || len(l.wb) > 0 || !l.q.empty()
}
