package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Network assembles the full mesh: one router and one NI per tile, with
// paired flit and credit links on every adjacency. It implements
// sim.Ticker; ticking the network advances every router and NI one cycle.
type Network struct {
	cfg     NetConfig
	routers []*Router
	nis     []*NI
	ev      PowerEvents
	msgID   uint64
	pool    pools
}

// NewNetwork builds the network. handler and hook may be nil (baseline).
func NewNetwork(cfg NetConfig, handler CircuitHandler, hook NIHook) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Speculative && handler != nil {
		panic("noc: speculative routers and reactive circuits are alternative designs; pick one")
	}
	n := &Network{cfg: cfg}
	n.pool.disabled = cfg.NoPool
	m := cfg.Mesh
	n.routers = make([]*Router, m.Nodes())
	n.nis = make([]*NI, m.Nodes())
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		n.routers[id] = newRouter(id, &n.cfg, handler, &n.ev)
		n.nis[id] = newNI(id, &n.cfg, &n.ev, hook, &n.pool)
	}

	// Wire the local ports: NI -> router (injection) and router -> NI
	// (ejection), plus the credit wire for the router's local input.
	for id := range n.routers {
		r, ni := n.routers[id], n.nis[id]
		inj, injCr := &Link{}, &CreditLink{}
		ej := &Link{}
		ni.toRouter = inj
		ni.creditIn = injCr
		ni.fromRouter = ej
		r.addInput(mesh.Local, inj, injCr)
		r.addOutput(mesh.Local, ej, nil)
	}

	// Wire inter-router links: for every adjacency a->b create a flit
	// link (a's output, b's input) and its reverse credit wire.
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		for d := mesh.North; d <= mesh.West; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			flits, credits := &Link{}, &CreditLink{}
			// SDM divides only the mesh wires; the NI injection/ejection
			// links wired above stay full-width.
			flits.SetLanes(cfg.LinkLanes)
			n.routers[id].addOutput(d, flits, credits)
			n.routers[nb].addInput(d.Opposite(), flits, credits)
		}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() *NetConfig { return &n.cfg }

// SetTracer attaches a lifecycle tracer to every NI (nil detaches).
func (n *Network) SetTracer(t *trace.Buffer) {
	for _, ni := range n.nis {
		ni.tracer = t
	}
}

// Router returns the router at node id.
func (n *Network) Router(id mesh.NodeID) *Router { return n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id mesh.NodeID) *NI { return n.nis[id] }

// Events returns the accumulated power-event counters.
func (n *Network) Events() *PowerEvents { return &n.ev }

// EventsTotal returns a copy of Events(); rcbench's harvest calls it.
func (n *Network) EventsTotal() PowerEvents { return n.ev }

// ResetEvents zeroes the power-event counters.
func (n *Network) ResetEvents() { n.ev = PowerEvents{} }

// NextMsgID hands out unique message identifiers (1, 2, 3, ...).
func (n *Network) NextMsgID() uint64 {
	n.msgID++
	return n.msgID
}

// FlushBoundary is a no-op kept because rcbench's hand-stepper still calls it.
func (n *Network) FlushBoundary(sim.Cycle) {}

// Register adds every router and NI to k as individually activity-tracked
// components, in the exact order Tick visits them (routers by id, then NIs
// by id), and wires each link's wake callback to its receiving component.
// A network registered this way must not also be ticked monolithically.
func (n *Network) Register(k *sim.Kernel) {
	for _, r := range n.routers {
		w := k.Add(r)
		for d := range r.in {
			if p := r.in[d]; p != nil && p.link != nil {
				p.link.SetWake(w.Wake) // flits arriving from upstream / the NI
			}
		}
		for d := range r.out {
			if op := r.out[d]; op != nil && op.credit != nil {
				op.credit.SetWake(w.Wake) // credits arriving from downstream
			}
		}
	}
	for _, ni := range n.nis {
		w := k.Add(ni)
		ni.SetWaker(w)
		ni.fromRouter.SetWake(w.Wake)
		ni.creditIn.SetWake(w.Wake)
	}
}

// DescribeMetrics registers the network's counters with reg, including the
// free-list effectiveness gauges.
func (n *Network) DescribeMetrics(reg *sim.Registry) {
	n.ev.Describe(reg)
	reg.Counter("noc/pool_flit_allocs", &n.pool.FlitAllocs)
	reg.Counter("noc/pool_flit_reuses", &n.pool.FlitReuses)
	reg.Counter("noc/pool_msg_allocs", &n.pool.MsgAllocs)
	reg.Counter("noc/pool_msg_reuses", &n.pool.MsgReuses)
}

// Tick advances every router and NI one cycle.
func (n *Network) Tick(now sim.Cycle) {
	for _, r := range n.routers {
		r.Tick(now)
	}
	for _, ni := range n.nis {
		ni.Tick(now)
	}
}

// Quiescent reports whether no message is queued, buffered, or in flight
// anywhere in the network.
func (n *Network) Quiescent() bool {
	for _, ni := range n.nis {
		if ni.QueueLen() > 0 || ni.toRouter.Busy() || ni.fromRouter.Busy() {
			return false
		}
	}
	for _, r := range n.routers {
		if r.busy() {
			return false
		}
	}
	return true
}

// Send is a convenience for tests and examples: it assigns an id and
// enqueues m at its source NI.
func (n *Network) Send(m *Message, now sim.Cycle) {
	if !n.cfg.Mesh.Contains(m.Src) || !n.cfg.Mesh.Contains(m.Dst) {
		panic(fmt.Sprintf("noc: message endpoints %d->%d outside mesh", m.Src, m.Dst))
	}
	if m.ID == 0 {
		m.ID = n.NextMsgID()
	}
	n.nis[m.Src].Send(m, now)
}
