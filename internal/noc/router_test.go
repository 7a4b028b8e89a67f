package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// twoNodeHarness builds the smallest real network (1x2 mesh) so router
// internals can be poked directly while links and NIs stay genuine.
func twoNodeHarness(t *testing.T, cfg NetConfig) *harness {
	t.Helper()
	return newHarness(cfg, nil, nil)
}

func TestVAAllocatesDistinctOutputVCs(t *testing.T) {
	// Two messages from the same NI to the same destination: the second
	// must get the *other* VC of the virtual network and both stream
	// concurrently (VC-level parallelism of the Table 4 router).
	m := mesh.New(2, 1)
	h := twoNodeHarness(t, BaselineConfig(m))
	a, b := msg(0, 1, VNRequest, 5), msg(0, 1, VNRequest, 5)
	h.net.Send(a, 0)
	h.net.Send(b, 0)
	h.runUntilQuiet(t, 500)
	// With a single VC they would be fully serialized: b would finish a
	// full message time after a. With two VCs the NI interleaves flits,
	// so b's tail lands well under one message time after a's.
	gap := b.DeliveredAt - a.DeliveredAt
	if gap <= 0 || gap > 6 {
		t.Fatalf("VC parallelism missing: delivery gap %d", gap)
	}
}

func TestCreditStallAndRecovery(t *testing.T) {
	// Saturate one VC's downstream buffer, verify upstream stalls, then
	// confirm full drain and credit recovery via the audit.
	m := mesh.New(3, 1)
	cfg := BaselineConfig(m)
	h := twoNodeHarness(t, cfg)
	// Enough 5-flit messages on one VN to exhaust both VCs' credits.
	for i := 0; i < 6; i++ {
		h.net.Send(msg(0, 2, VNReply, 5), 0)
	}
	h.kernel.Run(12)
	// Mid-flight: some credits must be consumed at router 0's East port.
	r0 := h.net.Router(0)
	consumed := false
	for vc := 0; vc < cfg.VCsPerVN[VNReply]; vc++ {
		if int(r0.outs[r0.vcAt(mesh.East, VNReply, vc)].credits) < cfg.BufDepth {
			consumed = true
		}
	}
	if !consumed {
		t.Fatal("no credits consumed under load")
	}
	h.runUntilQuiet(t, 2000)
	if err := h.net.AuditQuiescent(); err != nil {
		t.Fatalf("credits not recovered: %v", err)
	}
	if len(h.delivered) != 6 {
		t.Fatalf("delivered %d of 6", len(h.delivered))
	}
}

func TestSAFairnessBetweenInputs(t *testing.T) {
	// Two input ports feeding one output: round-robin switch allocation
	// must not starve either; their delivered counts stay balanced.
	m := mesh.New(3, 1)
	h := twoNodeHarness(t, BaselineConfig(m))
	var fromWest, local []*Message
	for i := 0; i < 10; i++ {
		a := msg(0, 2, VNRequest, 5) // passes through router 1
		b := msg(1, 2, VNRequest, 5) // injected at router 1
		h.net.Send(a, 0)
		h.net.Send(b, 0)
		fromWest = append(fromWest, a)
		local = append(local, b)
	}
	h.runUntilQuiet(t, 5000)
	lastWest := fromWest[len(fromWest)-1].DeliveredAt
	lastLocal := local[len(local)-1].DeliveredAt
	diff := lastWest - lastLocal
	if diff < 0 {
		diff = -diff
	}
	// Fair interleaving finishes both streams within a message time.
	if diff > 30 {
		t.Fatalf("unfair switch allocation: streams finished %d cycles apart", diff)
	}
}

func TestHeadOfLineWithinOneVC(t *testing.T) {
	// Messages on the SAME VC serialize (wormhole): force single-VC use
	// by exhausting the other VC with a long-stalled message. Simplest
	// observable: same-VN same-path messages never interleave flit
	// sequences at the receiver (checkSequence would panic).
	m := mesh.New(4, 1)
	h := twoNodeHarness(t, BaselineConfig(m))
	for i := 0; i < 12; i++ {
		h.net.Send(msg(0, 3, VNReply, 5), 0)
	}
	h.runUntilQuiet(t, 5000)
	if len(h.delivered) != 12 {
		t.Fatalf("delivered %d", len(h.delivered))
	}
}

func TestRouterFlitsOutCounters(t *testing.T) {
	m := mesh.New(2, 1)
	h := twoNodeHarness(t, BaselineConfig(m))
	h.net.Send(msg(0, 1, VNRequest, 5), 0)
	h.runUntilQuiet(t, 200)
	r0, r1 := h.net.Router(0), h.net.Router(1)
	if got := r0.FlitsOut(mesh.East); got != 5 {
		t.Fatalf("router 0 east flits %d, want 5", got)
	}
	if got := r1.FlitsOut(mesh.Local); got != 5 {
		t.Fatalf("router 1 ejection flits %d, want 5", got)
	}
	if got := r0.FlitsOut(mesh.West); got != 0 {
		t.Fatalf("router 0 west flits %d, want 0", got)
	}
}

func TestUndoCreditWalkThroughRouters(t *testing.T) {
	// Unit-level check of the undo plumbing: a token sent on a router's
	// input credit wire reaches the upstream router's handler with the
	// right port, then keeps walking.
	m := mesh.New(3, 1)
	walker := &undoSpy{}
	h := newHarness(func() NetConfig { c := BaselineConfig(m); return c }(), walker, nil)
	// Start a walk from router 2 toward router 0: emit on router 2's
	// West input credit wire.
	h.net.Router(2).SendUndoCredit(mesh.West, UndoToken{Dest: 0, Block: 0x40}, h.kernel.Now())
	h.kernel.Run(10)
	if len(walker.undos) != 2 {
		t.Fatalf("undo visited %d routers, want 2 (router 1 then 0)", len(walker.undos))
	}
	if walker.undos[0].id != 1 || walker.undos[0].in != mesh.East {
		t.Fatalf("first undo at router %d port %v", walker.undos[0].id, walker.undos[0].in)
	}
	if walker.undos[1].id != 0 || walker.undos[1].in != mesh.East {
		t.Fatalf("second undo at router %d port %v", walker.undos[1].id, walker.undos[1].in)
	}
}

type undoSpy struct {
	undos []struct {
		id mesh.NodeID
		in mesh.Dir
	}
}

func (u *undoSpy) OnRequestVA(mesh.NodeID, *Message, mesh.Dir, mesh.Dir, sim.Cycle) {}
func (u *undoSpy) Bypass(mesh.NodeID, *Flit, mesh.Dir, sim.Cycle) (mesh.Dir, int, bool) {
	return 0, 0, false
}
func (u *undoSpy) Release(mesh.NodeID, *Flit, mesh.Dir, sim.Cycle) {}
func (u *undoSpy) OnUndo(id mesh.NodeID, tok *UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	u.undos = append(u.undos, struct {
		id mesh.NodeID
		in mesh.Dir
	}{id, in})
	// Keep walking west until the edge.
	if id == 0 {
		return mesh.Local, true
	}
	return mesh.West, true
}
func (u *undoSpy) BypassBuffered() bool { return false }
