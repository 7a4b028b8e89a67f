package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// MemCtrl models one of the memory controllers on the chip edges: a fixed
// 160-cycle service latency (Table 2), fetches answered with line data and
// write-backs with an acknowledgement — both circuit-eligible MEMORY
// replies.
type MemCtrl struct {
	sys *System
	id  mesh.NodeID
	q   procQueue

	// Fetches and WriteBacks count serviced operations.
	Fetches, WriteBacks int64

	wake sim.Waker
}

// init builds m in place over a zero or recycled controller; only its
// queue's slots carry over.
func (m *MemCtrl) init(sys *System, id mesh.NodeID) {
	*m = MemCtrl{sys: sys, id: id, q: m.q.emptied()}
}

// ID returns the tile hosting this controller.
func (m *MemCtrl) ID() mesh.NodeID { return m.id }

// deliver queues msg behind the memory latency and wakes the controller
// when it is due (or early, past the kernel wheel's reach).
func (m *MemCtrl) deliver(msg *noc.Message, now sim.Cycle) {
	m.q.push(now+MemLatency, msg)
	m.wake.WakeAt(now + MemLatency)
}

// Quiescent reports whether no request is waiting out its memory latency.
func (m *MemCtrl) Quiescent() bool { return m.q.empty() }

// Tick answers requests whose memory latency has elapsed, then sleeps
// until the next one is due.
func (m *MemCtrl) Tick(now sim.Cycle) {
	for _, msg := range m.q.due(now) {
		addr := cache.Addr(msg.Block)
		switch MsgType(msg.Type) {
		case MsgMemFetch:
			m.Fetches++
			m.sys.send(MsgMemData, m.id, msg.Src, addr, Payload{}, now)
		case MsgMemWB:
			m.WriteBacks++
			m.sys.send(MsgMemAck, m.id, msg.Src, addr, Payload{}, now)
		default:
			panic(fmt.Sprintf("coherence: MC %d cannot handle %v", m.id, MsgType(msg.Type)))
		}
		m.sys.Net.FreeMessage(msg)
	}
	m.q.sleep(m.wake)
}

func (m *MemCtrl) busy() bool { return !m.q.empty() }
