package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// L2 line states (the directory is the line's Owner and Cache.Dir set).
const (
	l2Clean uint8 = 1
	l2Dirty uint8 = 2
)

// l2Phase tracks where a blocked line's transaction stands.
type l2Phase uint8

const (
	phEvict     l2Phase = iota + 1 // recalling/invalidating the victim's L1 copies
	phFetch                        // waiting for memory data
	phInvGather                    // collecting invalidation acks for a write
	phFwd                          // waiting for the migrated owner's data ack
	phAwaitAck                     // waiting for the requestor's data ack
)

// l2Txn is one in-flight transaction; it blocks its line (and, while
// evicting, the victim's line) until completion — later requests for the
// line wait in FIFO order, the behaviour whose cost the NoAck optimization
// reduces.
type l2Txn struct {
	addr        cache.Addr
	phase       l2Phase
	req         *noc.Message // original GetS/GetX being served
	pendingAcks int
	victim      *cache.Line
	victimAddr  cache.Addr
	victimValid bool
	dirtyEvict  bool
}

// L2Ctrl is one bank of the shared, inclusive L2 with its directory slice.
type L2Ctrl struct {
	sys *System
	id  mesh.NodeID
	c   *cache.Cache
	q   procQueue

	txns    map[cache.Addr]*l2Txn
	waiting map[cache.Addr][]*noc.Message
	// free recycles transaction records: a deterministic LIFO list like
	// the network's (noc/pool.go), so reuse follows simulation order.
	free []*l2Txn

	// BlockedCycles accumulates (transactions × cycles) of line blocking,
	// an observability hook for the NoAck effect.
	BlockedCycles int64

	wake sim.Waker
}

func newL2(sys *System, id mesh.NodeID) *L2Ctrl {
	return &L2Ctrl{
		sys: sys, id: id, c: sys.l2Arrays.Cache(int(id)),
		txns:    map[cache.Addr]*l2Txn{},
		waiting: map[cache.Addr][]*noc.Message{},
	}
}

// open blocks t.addr behind a record holding t, recycled from the free
// list when one is there.
func (l *L2Ctrl) open(t l2Txn) *l2Txn {
	var p *l2Txn
	if n := len(l.free); n > 0 {
		p, l.free = l.free[n-1], l.free[:n-1]
	} else {
		p = new(l2Txn)
	}
	*p = t
	l.txns[t.addr] = p
	return p
}

// retire recycles t once its last txns key is deleted; with pooling
// disabled (Options.NoPool) every record stays fresh.
func (l *L2Ctrl) retire(t *l2Txn) {
	if l.sys.Opts.NoPool {
		return
	}
	*t = l2Txn{}
	l.free = append(l.free, t)
}

// Cache exposes the underlying array.
func (l *L2Ctrl) Cache() *cache.Cache { return l.c }

func (l *L2Ctrl) deliver(msg *noc.Message, now sim.Cycle) {
	l.wake.Wake()
	l.q.push(now+L2HitLatency, msg)
}

// Quiescent reports whether the next Tick is a pure no-op. Open
// transactions keep the bank awake: Tick accrues BlockedCycles for each of
// them every cycle.
func (l *L2Ctrl) Quiescent() bool { return l.q.empty() && len(l.txns) == 0 }

// Tick processes due messages and accounts blocked-line time. A message
// handle reports as consumed retires to the network's free-list; requests
// stay alive inside the transaction that serves them (txns, waiting, or a
// requeue) and retire when that transaction completes.
func (l *L2Ctrl) Tick(now sim.Cycle) {
	for _, msg := range l.q.due(now) {
		if l.handle(msg, now) {
			l.sys.Net.FreeMessage(msg)
		}
	}
	l.BlockedCycles += int64(len(l.txns))
}

// handle processes one due message and reports whether the bank is done
// with it (true = caller frees). GetS/GetX hand ownership to serve;
// blocked requests park in the waiting queue.
func (l *L2Ctrl) handle(msg *noc.Message, now sim.Cycle) bool {
	addr := cache.Addr(msg.Block)
	switch MsgType(msg.Type) {
	case MsgGetS, MsgGetX, MsgWBData:
		if _, blocked := l.txns[addr]; blocked {
			l.waiting[addr] = append(l.waiting[addr], msg)
			return false
		}
		if MsgType(msg.Type) == MsgWBData {
			l.handleWB(msg, addr, now)
			return true
		}
		l.serve(msg, addr, now)
		return false
	case MsgDataAck:
		l.handleDataAck(msg, addr, now)
	case MsgInvAck, MsgInvAckData:
		l.handleInvAck(msg, addr, now)
	case MsgMemData:
		l.handleMemData(addr, now)
	case MsgFwdMiss:
		l.handleFwdMiss(addr, now)
	case MsgMemAck:
		// Write-back confirmed; nothing pends on it.
	default:
		panic(fmt.Sprintf("coherence: L2 %d cannot handle %v", l.id, MsgType(msg.Type)))
	}
	return true
}

// serve processes a GetS/GetX against an unblocked line.
func (l *L2Ctrl) serve(msg *noc.Message, addr cache.Addr, now sim.Cycle) {
	pl := UnpackPayload(msg.Payload)
	requestor := mesh.NodeID(pl.Requestor)
	write := MsgType(msg.Type) == MsgGetX

	line, hit := l.c.Lookup(addr)
	if !hit {
		l.startFetch(msg, addr, now)
		return
	}

	if line.Owner == int16(requestor) {
		// The requestor silently replaced its clean exclusive copy and
		// wants the line back: the stale ownership is its own.
		line.Owner = -1
	}
	if line.Owner >= 0 {
		// An L1 owns the line exclusively: forward the request; the
		// requestor's circuit (built toward this bank) will never carry
		// data, so undo it (Section 4.4).
		owner := mesh.NodeID(line.Owner)
		undone := false
		if l.sys.Mgr != nil {
			undone = l.sys.Mgr.Undo(l.id, requestor, uint64(addr), now)
		}
		l.sys.send(MsgFwd, l.id, owner, addr,
			Payload{Requestor: pl.Requestor, Write: write, CircuitUndone: undone}, now)
		line.Busy = true
		l.open(l2Txn{addr: addr, phase: phFwd, req: msg})
		return
	}

	if write {
		if n := l.invalidate(line, addr, requestor, now); n > 0 {
			line.Busy = true
			l.open(l2Txn{addr: addr, phase: phInvGather, req: msg, pendingAcks: n})
			return
		}
		l.grantData(msg, line, addr, true, now)
		return
	}

	// GetS: a line with no copies is granted exclusively (the E state);
	// otherwise the requestor joins the sharers.
	if l.c.Dir(line).Empty() {
		l.grantData(msg, line, addr, true, now)
		return
	}
	l.grantData(msg, line, addr, false, now)
}

// grantData sends the L2 data reply, updates the directory, and either
// blocks the line until the L1_DATA_ACK or — when the reply is guaranteed
// to ride a complete circuit — eliminates the ack and unblocks at once.
func (l *L2Ctrl) grantData(req *noc.Message, line *cache.Line, addr cache.Addr, exclusive bool, now sim.Cycle) {
	pl := UnpackPayload(req.Payload)
	requestor := mesh.NodeID(pl.Requestor)
	write := MsgType(req.Type) == MsgGetX

	if write || exclusive {
		line.Owner = int16(requestor)
		l.c.Dir(line).Clear()
	} else {
		l.c.Dir(line).Add(int(requestor))
	}

	noAck := l.sys.canEliminateAck(l.id, requestor, addr, now)
	l.sys.send(MsgL2Reply, l.id, requestor, addr,
		Payload{Requestor: pl.Requestor, Write: write, Exclusive: exclusive || write, NoAck: noAck}, now)
	if noAck {
		l.sys.Mgr.NoteEliminatedAck(l.id, now)
		// The paper counts eliminated messages at zero latency.
		l.sys.Lat.OtherReplies.Add(0, 0)
		line.Busy = false
		l.unblock(addr, now)
		// No ack will come back for req: the request retires here.
		l.sys.Net.FreeMessage(req)
		return
	}
	line.Busy = true
	l.open(l2Txn{addr: addr, phase: phAwaitAck, req: req})
}

func (l *L2Ctrl) handleDataAck(msg *noc.Message, addr cache.Addr, now sim.Cycle) {
	txn := l.txns[addr]
	if txn == nil {
		panic(fmt.Sprintf("coherence: L2 %d data ack for idle line %#x", l.id, addr))
	}
	switch txn.phase {
	case phFwd:
		pl := UnpackPayload(txn.req.Payload)
		ack := UnpackPayload(msg.Payload)
		line, ok := l.c.Peek(addr)
		if !ok {
			panic(fmt.Sprintf("coherence: L2 %d lost line %#x mid-forward", l.id, addr))
		}
		if MsgType(txn.req.Type) == MsgGetX {
			// Ownership migrated to the requestor.
			line.Owner = int16(pl.Requestor)
			l.c.Dir(line).Clear()
		} else {
			// The forwarded GetS shared the line; the old owner may
			// have kept a downgraded copy.
			dir := l.c.Dir(line)
			dir.Clear()
			dir.Add(pl.Requestor)
			if ack.OwnerKept && line.Owner >= 0 {
				dir.Add(int(line.Owner))
			}
			line.Owner = -1
			if ack.Dirty {
				line.State = l2Dirty
			}
		}
		line.Busy = false
	case phAwaitAck:
		if line, ok := l.c.Peek(addr); ok {
			line.Busy = false
		}
	default:
		panic(fmt.Sprintf("coherence: L2 %d data ack in phase %d", l.id, txn.phase))
	}
	l.unblock(addr, now)
	// The ack closes the transaction; the original request retires.
	l.sys.Net.FreeMessage(txn.req)
	l.retire(txn)
}

func (l *L2Ctrl) handleInvAck(msg *noc.Message, addr cache.Addr, now sim.Cycle) {
	txn := l.txns[addr]
	if txn == nil {
		panic(fmt.Sprintf("coherence: L2 %d inv ack for idle line %#x", l.id, addr))
	}
	if MsgType(msg.Type) == MsgInvAckData {
		txn.dirtyEvict = true
	}
	txn.pendingAcks--
	if txn.pendingAcks > 0 {
		return
	}
	switch txn.phase {
	case phInvGather:
		line, ok := l.c.Peek(addr)
		if !ok {
			panic(fmt.Sprintf("coherence: L2 %d lost line %#x mid-invalidation", l.id, addr))
		}
		if txn.dirtyEvict {
			line.State = l2Dirty // a recalled M copy refreshed the bank
		}
		l.c.Dir(line).Clear()
		req := txn.req
		delete(l.txns, addr) // grantData re-blocks as needed
		l.retire(txn)
		l.grantData(req, line, addr, true, now)
	case phEvict:
		l.finishEvict(txn, now)
	default:
		panic(fmt.Sprintf("coherence: L2 %d inv ack in phase %d", l.id, txn.phase))
	}
}

// handleWB absorbs an L1 write-back. Stale write-backs (the line migrated
// or was evicted while the data was in flight) are acknowledged and
// dropped: the current owner's copy is newer.
func (l *L2Ctrl) handleWB(msg *noc.Message, addr cache.Addr, now sim.Cycle) {
	if line, ok := l.c.Peek(addr); ok && line.Owner == int16(msg.Src) {
		line.Owner = -1
		line.State = l2Dirty
	}
	l.sys.send(MsgWBAck, l.id, msg.Src, addr, Payload{}, now)
}

// startFetch begins an L2 miss: evict a victim (recalling L1 copies),
// write it back if dirty, and fetch the line from memory.
func (l *L2Ctrl) startFetch(req *noc.Message, addr cache.Addr, now sim.Cycle) {
	victim := l.c.Victim(addr)
	if victim == nil {
		// Every way is pinned by in-flight transactions; retry shortly.
		l.q.push(now+L2HitLatency, req)
		return
	}
	txn := l.open(l2Txn{addr: addr, phase: phFetch, req: req, victim: victim})
	victim.Busy = true

	if victim.Valid {
		txn.victimValid = true
		txn.victimAddr = l.c.AddrOf(victim, addr)
		txn.dirtyEvict = victim.State == l2Dirty
		l.txns[txn.victimAddr] = txn

		// Inclusive L2: recall or invalidate the L1 copies first
		// (Table 3's "Invalidation (write or L2 replacement)").
		if n := l.invalidate(victim, txn.victimAddr, -1, now); n > 0 {
			txn.phase, txn.pendingAcks = phEvict, n
			return
		}
		l.finishEvict(txn, now)
		return
	}
	l.sendFetch(txn, now)
}

// finishEvict writes dirty victim data to memory and proceeds to the fetch.
func (l *L2Ctrl) finishEvict(txn *l2Txn, now sim.Cycle) {
	if txn.dirtyEvict {
		l.sys.send(MsgMemWB, l.id, l.sys.HomeMC(txn.victimAddr), txn.victimAddr, Payload{}, now)
	}
	txn.victim.Valid = false
	l.c.Dir(txn.victim).Clear()
	txn.victim.Owner = -1
	delete(l.txns, txn.victimAddr)
	l.drainWaiting(txn.victimAddr, now)
	txn.phase = phFetch
	l.sendFetch(txn, now)
}

// invalidate sends an Inv for addr to every L1 copy of line but skip's —
// the owner's, else each sharer's in ascending tile order — and returns
// how many it sent: the acks to gather.
func (l *L2Ctrl) invalidate(line *cache.Line, addr cache.Addr, skip mesh.NodeID, now sim.Cycle) int {
	if line.Owner >= 0 {
		l.sys.send(MsgInv, l.id, mesh.NodeID(line.Owner), addr, Payload{}, now)
		return 1
	}
	n := 0
	l.c.Dir(line).Each(func(t int) {
		if t != int(skip) {
			l.sys.send(MsgInv, l.id, mesh.NodeID(t), addr, Payload{}, now)
			n++
		}
	})
	return n
}

func (l *L2Ctrl) sendFetch(txn *l2Txn, now sim.Cycle) {
	l.sys.send(MsgMemFetch, l.id, l.sys.HomeMC(txn.addr), txn.addr, Payload{}, now)
}

func (l *L2Ctrl) handleMemData(addr cache.Addr, now sim.Cycle) {
	txn := l.txns[addr]
	if txn == nil || txn.phase != phFetch {
		panic(fmt.Sprintf("coherence: L2 %d memory data for idle line %#x", l.id, addr))
	}
	req, line := txn.req, txn.victim
	l.c.Fill(line, addr, l2Clean)
	line.Busy = true
	delete(l.txns, addr) // grantData re-blocks as needed
	l.retire(txn)
	// A freshly fetched line has no copies: both GetS and GetX are
	// granted exclusively.
	l.grantData(req, line, addr, true, now)
}

// handleFwdMiss serves a forwarded request whose owner had silently
// dropped its clean copy: the bank's data is still valid, so it answers
// directly. The requestor's circuit was already undone at forward time.
func (l *L2Ctrl) handleFwdMiss(addr cache.Addr, now sim.Cycle) {
	txn := l.txns[addr]
	if txn == nil || txn.phase != phFwd {
		panic(fmt.Sprintf("coherence: L2 %d Fwd_Miss for idle line %#x", l.id, addr))
	}
	line, ok := l.c.Peek(addr)
	if !ok {
		panic(fmt.Sprintf("coherence: L2 %d lost line %#x mid-forward", l.id, addr))
	}
	line.Owner = -1
	req := txn.req
	delete(l.txns, addr) // grantData re-blocks as needed
	l.retire(txn)
	l.grantData(req, line, addr, true, now)
}

// unblock releases a line and reprocesses requests that queued behind the
// transaction.
func (l *L2Ctrl) unblock(addr cache.Addr, now sim.Cycle) {
	delete(l.txns, addr)
	l.drainWaiting(addr, now)
}

func (l *L2Ctrl) drainWaiting(addr cache.Addr, now sim.Cycle) {
	queued := l.waiting[addr]
	if len(queued) == 0 {
		return
	}
	delete(l.waiting, addr)
	for _, m := range queued {
		l.q.push(now+1, m)
	}
}

func (l *L2Ctrl) busy() bool {
	if len(l.txns) > 0 || !l.q.empty() {
		return true
	}
	for _, w := range l.waiting {
		if len(w) > 0 {
			return true
		}
	}
	return false
}
