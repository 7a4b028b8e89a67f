package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/recycle"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Network assembles the full mesh: one router and one NI per tile, with
// paired flit and credit links on every adjacency. Register adds it to a
// kernel.
type Network struct {
	cfg     NetConfig
	routers []*Router
	nis     []*NI
	// links holds every flit wire: each NI's injection and ejection link,
	// then one link per directed adjacency; undo holds the adjacency's
	// credit wire. Each wire is its own allocation, as before wires were
	// recycled, so their layout in memory is what it was.
	links   []*Link
	undo    []*CreditLink
	ev      PowerEvents
	msgID   uint64
	pool    pools
	credits creditQueue
	// flush is FlushBoundary bound to n, the epilogue Register adds: made
	// once per Network and kept by every rebuild, since n outlives it.
	flush func(sim.Cycle)
}

// creditQueue holds the buffer credits in flight as pointers to the
// counters they increment: cur those returned this cycle, prev those
// returned last cycle. A credit only adds one to a counter, so it needs
// neither a message on a wire nor a tick of the router it returns to.
type creditQueue struct{ cur, prev []*int32 }

// NewNetwork builds the network. handler and hook may be nil (baseline).
func NewNetwork(cfg NetConfig, handler CircuitHandler, hook NIHook) *Network {
	return new(Network).Init(cfg, handler, hook)
}

// Init builds the network in n and returns n. n is either zero or a
// network a finished run left (chip's recycled machine shells, DESIGN.md
// §4.11): the rebuild names every field it sets, so the message counter,
// power events and everything a run armed (tracer, fault hook) come back
// zero. Only memory carries over — the routers' and NIs' arrays, every
// wire's and queue's slots, the sequence maps, and the flits and messages
// on the free lists, which are zeroed objects nothing else points to — so a
// rebuilt network carries traffic exactly as a new one does.
func (n *Network) Init(cfg NetConfig, handler CircuitHandler, hook NIHook) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Speculative && handler != nil {
		panic("noc: speculative routers and reactive circuits are alternative designs; pick one")
	}
	m := cfg.Mesh
	nodes := m.Nodes()
	adjacent := 2*(m.Width-1)*m.Height + 2*m.Width*(m.Height-1)
	// A router returns at most one credit per input port per cycle.
	credits := int(mesh.NumDirs) * nodes
	*n = Network{
		cfg:     cfg,
		routers: recycle.Slice(n.routers, nodes),
		nis:     recycle.Slice(n.nis, nodes),
		links:   recycle.Slice(n.links, 2*nodes+adjacent),
		undo:    recycle.Slice(n.undo, adjacent),
		pool:    pools{disabled: cfg.NoPool, flits: n.pool.flits, msgs: n.pool.msgs},
		credits: creditQueue{
			cur:  recycle.Slice(n.credits.cur, credits)[:0],
			prev: recycle.Slice(n.credits.prev, credits)[:0],
		},
		flush: n.flush,
	}
	if n.flush == nil {
		n.flush = n.FlushBoundary
	}
	for id := range n.routers {
		recycle.Object(&n.routers[id]).init(mesh.NodeID(id), &n.cfg, handler, &n.ev, &n.credits)
		recycle.Object(&n.nis[id]).init(mesh.NodeID(id), &n.cfg, &n.ev, hook, &n.pool)
	}
	links := n.links
	link := func(lanes int) *Link {
		l := recycle.Object(&links[0])
		links = links[1:]
		l.init(lanes)
		return l
	}

	// Wire the local ports: NI -> router (injection), whose credits return
	// to the NI's counters, and router -> NI (ejection).
	for id := range n.routers {
		r, ni := n.routers[id], n.nis[id]
		ni.toRouter, ni.fromRouter = link(0), link(0)
		r.addInput(mesh.Local, ni.toRouter, nil, func(s int) *int32 {
			return &ni.credits[r.slots[s].vn][r.slots[s].vc]
		})
		r.addOutput(mesh.Local, ni.fromRouter, nil)
	}

	// Wire inter-router links: for every adjacency a->b create a flit
	// link (a's output, b's input) and its reverse credit wire; b's
	// credits return to a's output VCs.
	undo := n.undo
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		for d := mesh.North; d <= mesh.West; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			// SDM divides only the mesh wires; the NI injection/ejection
			// links wired above stay full-width.
			flits, credits := link(cfg.LinkLanes), recycle.Object(&undo[0])
			undo = undo[1:]
			credits.init()
			up := n.routers[id]
			up.addOutput(d, flits, credits)
			n.routers[nb].addInput(d.Opposite(), flits, credits, func(s int) *int32 {
				return &up.outs[int(d)*up.nslots+s].credits
			})
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

// FlushBoundary is the network's cycle epilogue: it applies the buffer
// credits returned in the previous cycle. A credit returned in cycle t
// lands at the end of cycle t+1, so the upstream router or NI first sees
// it in cycle t+linkDelay — when it would have come off a credit wire of
// the flits' latency — whether or not it ticks in between.
func (n *Network) FlushBoundary(now sim.Cycle) {
	q := &n.credits
	for _, c := range q.prev {
		if *c++; int(*c) > n.cfg.BufDepth {
			panic(fmt.Sprintf("noc: credit overflow applying cycle %d's credits (a buffer slot returned twice)", now-1))
		}
	}
	q.prev, q.cur = q.cur, q.prev[:0]
}

// Register adds every router and then every NI to k, by id, in the kernel's
// "router" and "ni" tick classes, gives each wire its receiving component's
// waker, and makes FlushBoundary the network's cycle epilogue. It is the
// only way a network is stepped.
func (n *Network) Register(k *sim.Kernel) {
	k.Class("router")
	for _, r := range n.routers {
		w := k.Add(r)
		for d := range r.inLink {
			if l := r.inLink[d]; l != nil {
				l.wake = w // flits arriving from upstream / the NI
			}
			if c := r.downCredit[d]; c != nil {
				c.wake = w // undo tokens arriving from downstream
			}
		}
	}
	k.Class("ni")
	for _, ni := range n.nis {
		w := k.Add(ni)
		ni.SetWaker(w)
		ni.fromRouter.wake = w
	}
	k.AddEpilogue(n.flush)
}

// DescribeMetrics registers the network's power-event counters with reg.
func (n *Network) DescribeMetrics(reg *sim.Registry) { n.ev.Describe(reg) }

// Quiescent reports whether no message is queued, buffered, or in flight
// anywhere in the network. Credits and undo tokens in flight do not count.
// Every flit link but the ejection links is some router's input, so the
// routers' inbound masks and the NIs' ejection wires together cover every
// link.
func (n *Network) Quiescent() bool {
	for _, ni := range n.nis {
		if ni.QueueLen() > 0 || ni.fromRouter.Busy() {
			return false
		}
	}
	for _, r := range n.routers {
		if r.inbound&flitWires != 0 || r.buffered != 0 || r.latched != 0 || r.granted != 0 {
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
