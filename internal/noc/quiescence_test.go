package noc

import (
	"fmt"
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// scanRouterQuiescent is the reference for Router.Quiescent: it looks at
// every VC buffer slot, bypass latch, input wire, downstream undo wire and
// grant instead of the router's summary words. Buffer credits have no wire
// to look at: they land at the cycle boundary without waking anyone.
func scanRouterQuiescent(r *Router) bool {
	for _, f := range r.store {
		if f != nil {
			return false
		}
	}
	for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
		if r.byQ[d].Len() > 0 || r.granted&(1<<d) != 0 {
			return false
		}
		if l := r.inLink[d]; l != nil && l.q.Len() > 0 {
			return false
		}
		if c := r.downCredit[d]; c != nil && c.q.Len() > 0 {
			return false
		}
	}
	return true
}

// scanNetworkQuiescent is the reference for Network.Quiescent: no message
// queued at an NI, no flit buffered, latched or on any flit link, and no
// pending grant. Credits and undo tokens in flight do not count.
func scanNetworkQuiescent(n *Network) bool {
	for _, ni := range n.nis {
		if ni.QueueLen() > 0 || ni.toRouter.q.Len() > 0 || ni.fromRouter.q.Len() > 0 {
			return false
		}
	}
	for _, r := range n.routers {
		for _, f := range r.store {
			if f != nil {
				return false
			}
		}
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			if r.byQ[d].Len() > 0 || r.granted&(1<<d) != 0 {
				return false
			}
			if l := r.outLink[d]; l != nil && l.q.Len() > 0 {
				return false
			}
		}
	}
	return true
}

// toyCircuits is the smallest circuit handler that drives every router path
// the quiescence words must track: a circuit-wanting request reserves, at
// each router it crosses, the port its reply will leave through (one circuit
// per port, so complete circuits never block); a reply whose request
// reserved every hop rides the circuit back through the bypass latches, and
// a failed request's partial reservation is dropped with an undo token on
// a credit wire.
type toyCircuits struct {
	net      *Network
	buffered bool
	entries  map[toyKey]mesh.Dir // reply input -> reply output
	busy     map[toyPort]bool
	held     map[uint64][]toyKey // reservations of each request, by block
}

type toyKey struct {
	id    mesh.NodeID
	in    mesh.Dir
	block uint64
}

type toyPort struct {
	id  mesh.NodeID
	out mesh.Dir
}

func newToyCircuits(buffered bool) *toyCircuits {
	return &toyCircuits{buffered: buffered, entries: map[toyKey]mesh.Dir{},
		busy: map[toyPort]bool{}, held: map[uint64][]toyKey{}}
}

func (c *toyCircuits) OnRequestVA(id mesh.NodeID, m *Message, in, out mesh.Dir, now sim.Cycle) {
	if m.BuildFailed {
		return
	}
	p := toyPort{id, in}
	if c.busy[p] {
		m.BuildFailed = true
		return
	}
	c.busy[p] = true
	k := toyKey{id, out, m.Block}
	c.entries[k] = in
	c.held[m.Block] = append(c.held[m.Block], k)
}

func (c *toyCircuits) Bypass(id mesh.NodeID, f *Flit, in mesh.Dir, now sim.Cycle) (mesh.Dir, int, bool) {
	if !f.Msg.UseCircuit {
		return 0, 0, false
	}
	out, ok := c.entries[toyKey{id, in, f.Msg.CircBlock}]
	if !ok {
		panic(fmt.Sprintf("toy circuit %#x missing at router %d %v", f.Msg.CircBlock, id, in))
	}
	if c.net.cfg.LinkLanes > 1 {
		f.Lane = 1
	}
	return out, c.net.cfg.CircuitVC(), true
}

func (c *toyCircuits) Release(id mesh.NodeID, f *Flit, in mesh.Dir, now sim.Cycle) {
	k := toyKey{id, in, f.Msg.CircBlock}
	delete(c.busy, toyPort{id, c.entries[k]})
	delete(c.entries, k)
}

func (c *toyCircuits) OnUndo(mesh.NodeID, *UndoToken, mesh.Dir, sim.Cycle) (mesh.Dir, bool) {
	return 0, false
}

func (c *toyCircuits) BypassBuffered() bool { return c.buffered }

// settle is called when request m reaches its destination: it reports
// whether the reply may ride the circuit, dropping a partial one.
func (c *toyCircuits) settle(m *Message, now sim.Cycle) bool {
	keys := c.held[m.Block]
	delete(c.held, m.Block)
	if !m.BuildFailed {
		return len(keys) > 0
	}
	for _, k := range keys {
		out := c.entries[k]
		delete(c.busy, toyPort{k.id, out})
		delete(c.entries, k)
		c.net.Router(k.id).SendUndoCredit(out, UndoToken{Dest: m.Src, Block: m.Block}, now)
	}
	return false
}

// TestQuiescenceMatchesScan soaks every distinct network shape with seeded
// random traffic and, after every router tick and every cycle, holds
// Router.Quiescent and Network.Quiescent to the full scans above: the O(1)
// words must be exact, or the kernel would tick different routers in
// different cycles. Credit conservation must hold at every cycle boundary.
func TestQuiescenceMatchesScan(t *testing.T) {
	type shape struct {
		cfg     func(NetConfig) NetConfig
		circuit bool
		buffer  bool // circuit flits may wait in the bypass latch
	}
	shapes := map[string]shape{
		"baseline": {cfg: func(c NetConfig) NetConfig { return c }},
		"complete": {circuit: true, cfg: func(c NetConfig) NetConfig {
			c.ReplyCircuitVCs, c.CircuitVCUnbuffered, c.RepRouting = 1, true, mesh.RouteYX
			return c
		}},
		"fragmented": {circuit: true, buffer: true, cfg: func(c NetConfig) NetConfig {
			c.VCsPerVN[VNReply], c.ReplyCircuitVCs, c.RepRouting = 3, 2, mesh.RouteYX
			return c
		}},
		"dynamicvc-max": {circuit: true, buffer: true, cfg: func(c NetConfig) NetConfig {
			c.VCsPerVN[VNReply], c.ReplyCircuitVCs, c.RepRouting = 7, 6, mesh.RouteYX
			return c
		}},
		"sdm4": {circuit: true, buffer: true, cfg: func(c NetConfig) NetConfig {
			c.ReplyCircuitVCs, c.LinkLanes, c.RepRouting = 1, 4, mesh.RouteYX
			return c
		}},
		"speculative": {cfg: func(c NetConfig) NetConfig {
			c.Speculative = true
			return c
		}},
	}
	cycles := sim.Cycle(3000)
	if testing.Short() {
		cycles = 1000
	}
	for name, sh := range shapes {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				soakQuiescence(t, sh.cfg(BaselineConfig(mesh.New(4, 4))), sh.circuit, sh.buffer, seed, cycles)
			}
		})
	}
}

func soakQuiescence(t *testing.T, cfg NetConfig, circuit, buffer bool, seed uint64, cycles sim.Cycle) {
	t.Helper()
	var toy *toyCircuits
	var handler CircuitHandler
	if circuit {
		toy = newToyCircuits(buffer)
		handler = toy
	}
	net := NewNetwork(cfg, handler, nil)
	if toy != nil {
		toy.net = net
	}
	rng := sim.NewRNG(seed)
	nodes := cfg.Mesh.Nodes()
	size := func() int {
		if rng.Bool(0.5) {
			return 5
		}
		return 1
	}
	var block uint64
	rides, undos := 0, 0
	for id := mesh.NodeID(0); int(id) < nodes; id++ {
		net.NI(id).SetReceiver(func(m *Message, now sim.Cycle) {
			if m.VN != VNRequest || m.Src == m.Dst {
				return
			}
			reply := &Message{Src: m.Dst, Dst: m.Src, VN: VNReply, Size: size()}
			if toy != nil && m.WantCircuit && toy.settle(m, now) {
				reply.UseCircuit, reply.InjectVC = true, cfg.CircuitVC()
				reply.CircDest, reply.CircBlock = m.Src, m.Block
				rides++
			} else if m.BuildFailed {
				undos++
			}
			net.Send(reply, now)
		})
	}

	check := func(now sim.Cycle, where string) {
		for _, r := range net.routers {
			if got, want := r.Quiescent(), scanRouterQuiescent(r); got != want {
				t.Fatalf("seed %d cycle %d %s: router %d Quiescent()=%v, scan says %v (inbound %#x buffered %d latched %#x granted %#x)",
					seed, now, where, r.id, got, want, r.inbound, r.buffered, r.latched, r.granted)
			}
		}
		if got, want := net.Quiescent(), scanNetworkQuiescent(net); got != want {
			t.Fatalf("seed %d cycle %d %s: Network.Quiescent()=%v, scan says %v", seed, now, where, got, want)
		}
	}
	sawBusy, sawIdle := false, false
	for now := sim.Cycle(0); now < cycles || !net.Quiescent(); now++ {
		if now > 2*cycles {
			t.Fatalf("seed %d: network did not drain", seed)
		}
		// Bursts separated by quiet spells, so the soak crosses both edges
		// of quiescence many times; the last spell drains the network.
		if now < cycles && now%400 < 250 && rng.Bool(0.6) {
			src, dst := mesh.NodeID(rng.Intn(nodes)), mesh.NodeID(rng.Intn(nodes))
			m := &Message{Src: src, Dst: dst, VN: VNRequest, Size: 1}
			if rng.Bool(0.3) {
				m.VN, m.Size = VNReply, size()
			} else if toy != nil && rng.Bool(0.5) {
				block++
				m.WantCircuit, m.Block = true, block
			}
			net.Send(m, now)
		}
		for _, r := range net.routers {
			r.Tick(now)
			check(now, fmt.Sprintf("after router %d", r.id))
		}
		for _, ni := range net.nis {
			ni.Tick(now)
		}
		net.FlushBoundary(now)
		check(now, "at the cycle boundary")
		if err := net.CheckCreditConservation(); err != nil {
			t.Fatalf("seed %d cycle %d: %v", seed, now, err)
		}
		if net.Quiescent() {
			sawIdle = true
		} else {
			sawBusy = true
		}
	}
	if !sawBusy || !sawIdle {
		t.Fatalf("seed %d: soak never crossed quiescence (busy %v, idle %v)", seed, sawBusy, sawIdle)
	}
	if ev := net.Events(); (toy != nil || cfg.Speculative) && ev.XbarTraversals == ev.BufReads {
		t.Fatalf("seed %d: no flit ever crossed through a bypass latch", seed)
	}
	if toy != nil && (rides == 0 || undos == 0) {
		t.Fatalf("seed %d: %d circuit rides, %d undone reservations; the soak must see both", seed, rides, undos)
	}
	if toy != nil && len(toy.entries) != 0 {
		t.Fatalf("seed %d: %d toy circuits left behind", seed, len(toy.entries))
	}
	if err := net.AuditQuiescent(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
