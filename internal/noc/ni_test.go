package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

func TestSendFrontOrdersAheadOfQueue(t *testing.T) {
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	ni := h.net.NI(0)
	a := msg(0, 1, VNReply, 1)
	b := msg(0, 1, VNReply, 1)
	a.ID, b.ID = 1, 2
	ni.Send(a, 0)
	ni.SendFront(b, 0)
	h.runUntilQuiet(t, 200)
	if len(h.delivered) != 2 {
		t.Fatalf("delivered %d", len(h.delivered))
	}
	if !(b.InjectedAt < a.InjectedAt) {
		t.Fatalf("SendFront did not jump the queue: front@%d, queued@%d", b.InjectedAt, a.InjectedAt)
	}
}

func TestReplyIdle(t *testing.T) {
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	ni := h.net.NI(0)
	if !ni.ReplyIdle() {
		t.Fatal("fresh NI should be reply-idle")
	}
	ni.Send(msg(0, 1, VNReply, 5), 0)
	if ni.ReplyIdle() {
		t.Fatal("queued reply should clear ReplyIdle")
	}
	// Requests do not affect reply idleness.
	h.runUntilQuiet(t, 300)
	if !ni.ReplyIdle() {
		t.Fatal("drained NI should be reply-idle again")
	}
	ni.Send(msg(0, 1, VNRequest, 5), h.kernel.Now())
	if !ni.ReplyIdle() {
		t.Fatal("request traffic must not affect ReplyIdle")
	}
	h.runUntilQuiet(t, 300)
}

func TestForcedInjectVC(t *testing.T) {
	// A message forcing a circuit VC must be injected on it; the handler
	// spy observes the arrival VC at the first router via Bypass.
	m := mesh.New(2, 1)
	opts := BaselineConfig(m)
	opts.ReplyCircuitVCs = 1
	opts.CircuitVCUnbuffered = false // buffered so no circuit is required
	vcSpy := &vcRecorder{}
	h := newHarness(opts, vcSpy, nil)
	mg := msg(0, 1, VNReply, 1)
	mg.InjectVC = 1
	mg.UseCircuit = true // force the bypass lookup so the spy sees the VC
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 200)
	if len(vcSpy.vcs) == 0 {
		t.Fatal("spy saw no flits")
	}
	if vcSpy.vcs[0] != 1 {
		t.Fatalf("flit arrived on vc%d, want the forced vc1", vcSpy.vcs[0])
	}
}

type vcRecorder struct{ vcs []int }

func (v *vcRecorder) OnRequestVA(mesh.NodeID, *Message, mesh.Dir, mesh.Dir, sim.Cycle) {}
func (v *vcRecorder) Bypass(_ mesh.NodeID, f *Flit, _ mesh.Dir, _ sim.Cycle) (mesh.Dir, int, bool) {
	v.vcs = append(v.vcs, f.VC)
	return 0, 0, false
}
func (v *vcRecorder) Release(mesh.NodeID, *Flit, mesh.Dir, sim.Cycle) {}
func (v *vcRecorder) OnUndo(mesh.NodeID, *UndoToken, mesh.Dir, sim.Cycle) (mesh.Dir, bool) {
	return 0, false
}
func (v *vcRecorder) BypassBuffered() bool { return true }

func TestLocalDeliverySkipsHooksAndNetwork(t *testing.T) {
	m := mesh.New(2, 2)
	h := newHarness(BaselineConfig(m), nil, nil)
	mg := msg(1, 1, VNReply, 5)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 50)
	if !mg.LocalHop {
		t.Fatal("local message not marked")
	}
	if mg.DeliveredAt != 1 {
		t.Fatalf("local delivery at %d", mg.DeliveredAt)
	}
}

func TestSequenceCheckerCatchesCorruption(t *testing.T) {
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	ni := h.net.NI(1)
	msg5 := msg(0, 1, VNReply, 5)
	ni.checkSequence(&Flit{Msg: msg5, Seq: 0, Head: true})
	ni.checkSequence(&Flit{Msg: msg5, Seq: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order flit not caught")
		}
	}()
	ni.checkSequence(&Flit{Msg: msg5, Seq: 3}) // skipped flit 2
}

func TestInjectionRoundRobinBetweenVNs(t *testing.T) {
	// With both VNs loaded, neither starves: interleaving means both
	// finish within a message time of each other.
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	a := msg(0, 1, VNRequest, 5)
	b := msg(0, 1, VNReply, 5)
	h.net.Send(a, 0)
	h.net.Send(b, 0)
	h.runUntilQuiet(t, 200)
	gap := a.DeliveredAt - b.DeliveredAt
	if gap < 0 {
		gap = -gap
	}
	if gap > 5 {
		t.Fatalf("VN starvation at injection: gap %d", gap)
	}
}
