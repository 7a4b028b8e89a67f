package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// rig wires a network with a Reactive Circuits manager and a scripted
// responder that answers every circuit-wanting request with a reply after a
// fixed processing delay — the request/reply skeleton of the coherence
// protocol, without the protocol.
type rig struct {
	t       *testing.T
	m       mesh.Mesh
	opts    Options
	mgr     *Manager
	net     *noc.Network
	kernel  *sim.Kernel
	proc    sim.Cycle
	pending []pendingReply
	// delivered replies and requests, by arrival order
	replies  []*noc.Message
	requests []*noc.Message
	// forwardTo, when set for a block, makes the responder undo the
	// circuit and have node forwardTo[block] send the reply instead
	// (the L2-forwards-to-owner pattern).
	forwardTo map[uint64]mesh.NodeID
	blockSeq  uint64
	// onReplyBuild lets tests adjust each responder-built reply before
	// it is scheduled (probe mode marks replies circuit-wanting).
	onReplyBuild func(*noc.Message)
}

type pendingReply struct {
	at  sim.Cycle
	msg *noc.Message
	at2 mesh.NodeID // reply source
}

func newRig(t *testing.T, w, h int, opts Options, proc sim.Cycle) *rig {
	t.Helper()
	m := mesh.New(w, h)
	r := &rig{t: t, m: m, opts: opts, proc: proc, forwardTo: map[uint64]mesh.NodeID{}}
	var handler noc.CircuitHandler
	var hook noc.NIHook
	cfg := NetConfigFor(m, opts)
	if opts.Enabled() {
		r.mgr = NewManager(opts, m)
		handler, hook = r.mgr, r.mgr
	}
	r.net = noc.NewNetwork(cfg, handler, hook)
	if r.mgr != nil {
		r.mgr.Bind(r.net)
	}
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		id := id
		r.net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			r.onDeliver(id, msg, now)
		})
	}
	r.kernel = sim.NewKernel()
	r.kernel.Register(r.net)
	r.kernel.Register(tickFunc(r.drainPending))
	if r.mgr != nil {
		// The manager's deferred cross-tile operations drain at the cycle
		// epilogue, exactly as System.Register wires it.
		r.kernel.AddEpilogue(r.mgr.FlushCycle)
	}
	return r
}

type tickFunc func(sim.Cycle)

func (f tickFunc) Tick(now sim.Cycle) { f(now) }

func (r *rig) onDeliver(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) {
	if msg.VN == noc.VNRequest {
		r.requests = append(r.requests, msg)
		if msg.ExpectedReplySize <= 0 {
			return // pure contention traffic
		}
		src := ni
		hint := uint8(0)
		if fwd, ok := r.forwardTo[msg.Block]; ok {
			// The "L2 owns nothing" pattern: undo the circuit, the
			// owner sends the data instead.
			if r.mgr != nil {
				r.mgr.Undo(ni, msg.Src, msg.Block, now)
				hint = uint8(OutcomeUndone)
			}
			src = fwd
		}
		reply := &noc.Message{
			Type: msg.Type + 100,
			Src:  src, Dst: msg.Src,
			VN: noc.VNReply, Size: msg.ExpectedReplySize,
			Block:       msg.Block,
			OutcomeHint: hint,
		}
		if r.onReplyBuild != nil {
			r.onReplyBuild(reply)
		}
		r.pending = append(r.pending, pendingReply{at: now + r.proc, msg: reply, at2: src})
		return
	}
	r.replies = append(r.replies, msg)
}

func (r *rig) drainPending(now sim.Cycle) {
	rest := r.pending[:0]
	for _, p := range r.pending {
		if p.at <= now {
			r.net.Send(p.msg, now)
		} else {
			rest = append(rest, p)
		}
	}
	r.pending = rest
}

// request injects a circuit-wanting request at cycle 0-relative "now" and
// returns the message for inspection.
func (r *rig) request(src, dst mesh.NodeID, replySize int) *noc.Message {
	r.blockSeq += 64
	msg := &noc.Message{
		Src: src, Dst: dst, VN: noc.VNRequest, Size: 1,
		WantCircuit:       true,
		Block:             r.blockSeq,
		ExpectedProcDelay: r.proc,
		ExpectedReplySize: replySize,
	}
	r.net.Send(msg, r.kernel.Now())
	return msg
}

// plainRequest injects a request that reserves nothing — pure contention
// traffic for the request virtual network.
func (r *rig) plainRequest(src, dst mesh.NodeID, size int) *noc.Message {
	msg := &noc.Message{Src: src, Dst: dst, VN: noc.VNRequest, Size: size}
	r.net.Send(msg, r.kernel.Now())
	return msg
}

// plainReply injects a reply with no circuit of its own (an ack-like
// message) from src to dst.
func (r *rig) plainReply(src, dst mesh.NodeID, size int) *noc.Message {
	msg := &noc.Message{Src: src, Dst: dst, VN: noc.VNReply, Size: size, Block: 1<<62 + r.blockSeq}
	r.blockSeq += 64
	r.net.Send(msg, r.kernel.Now())
	return msg
}

func (r *rig) runQuiet(horizon sim.Cycle) {
	r.t.Helper()
	done := func() bool { return r.net.Quiescent() && len(r.pending) == 0 }
	if _, ok := r.kernel.RunUntil(done, horizon); !ok {
		r.t.Fatalf("system not quiescent after %d cycles (%d replies, %d requests delivered)",
			horizon, len(r.replies), len(r.requests))
	}
}

func (r *rig) run(n sim.Cycle) { r.kernel.Run(n) }

// completeOpts is the plain complete-circuits configuration.
func completeOpts() Options {
	return Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5}
}

func fragmentedOpts() Options {
	return Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 2}
}

func timedOpts(slack, delay, postpone int) Options {
	return Options{
		Mechanism: MechComplete, MaxCircuitsPerPort: 5,
		Timed: true, SlackPerHop: slack, DelayPerHop: delay, PostponePerHop: postpone,
	}
}

// circuitLatency is the contention-free reply latency on a complete
// circuit: 2 cycles per router (1 in the router + 1 link) over hops+1
// routers, plus the injection link and the pipelined body flits.
func circuitLatency(m mesh.Mesh, src, dst mesh.NodeID, size int) sim.Cycle {
	h := sim.Cycle(m.Hops(src, dst))
	return 2*(h+1) + 2 + sim.Cycle(size-1)
}

// packetLatency is the contention-free reply latency through the normal
// four-stage pipeline.
func packetLatency(m mesh.Mesh, src, dst mesh.NodeID, size int) sim.Cycle {
	h := sim.Cycle(m.Hops(src, dst))
	return 5*(h+1) + 2 + sim.Cycle(size-1)
}
