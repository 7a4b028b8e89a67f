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

func newMC(sys *System, id mesh.NodeID) *MemCtrl {
	return &MemCtrl{sys: sys, id: id}
}

// ID returns the tile hosting this controller.
func (m *MemCtrl) ID() mesh.NodeID { return m.id }

func (m *MemCtrl) deliver(msg *noc.Message, now sim.Cycle) {
	m.wake.Wake()
	m.q.push(now+MemLatency, msg)
}

// Quiescent reports whether no request is waiting out its memory latency.
func (m *MemCtrl) Quiescent() bool { return m.q.empty() }

// Tick answers requests whose memory latency has elapsed.
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
}

func (m *MemCtrl) busy() bool { return !m.q.empty() }
