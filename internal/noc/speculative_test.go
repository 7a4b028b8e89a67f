package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

func specConfig(m mesh.Mesh) NetConfig {
	cfg := BaselineConfig(m)
	cfg.Speculative = true
	return cfg
}

func TestSpeculativeSingleCycleHops(t *testing.T) {
	// On an idle mesh a speculating flit crosses each router in one cycle:
	// 2 cycles per hop, like a reactive circuit but without reservation.
	m := mesh.New(4, 1)
	h := newHarness(specConfig(m), nil, nil)
	mg := msg(0, 3, VNRequest, 1)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 200)
	hops := sim.Cycle(m.Hops(0, 3))
	want := 2*(hops+1) + 2 // bypass every router + injection link
	if got := mg.DeliveredAt - mg.InjectedAt; got != want {
		t.Fatalf("speculative latency %d, want %d", got, want)
	}
}

func TestSpeculativeMultiFlitMessage(t *testing.T) {
	m := mesh.New(4, 4)
	h := newHarness(specConfig(m), nil, nil)
	mg := msg(0, 15, VNReply, 5)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 300)
	hops := sim.Cycle(m.Hops(0, 15))
	want := 2*(hops+1) + 2 + 4 // head pipeline + 4 trailing flits
	if got := mg.DeliveredAt - mg.InjectedAt; got != want {
		t.Fatalf("speculative 5-flit latency %d, want %d", got, want)
	}
}

func TestSpeculativeFallsBackUnderContention(t *testing.T) {
	// Two streams crossing one router: everything still delivers, and the
	// aggregate is slower than two isolated speculative paths (losers take
	// the pipeline).
	// Two streams merging into router (1,1)'s East output: one passing
	// through from the west, one injected locally.
	m := mesh.New(3, 3)
	h := newHarness(specConfig(m), nil, nil)
	var msgs []*Message
	for i := 0; i < 6; i++ {
		a := msg(m.Node(0, 1), m.Node(2, 1), VNRequest, 5)
		b := msg(m.Node(1, 1), m.Node(2, 1), VNRequest, 5)
		h.net.Send(a, 0)
		h.net.Send(b, 0)
		msgs = append(msgs, a, b)
	}
	h.runUntilQuiet(t, 5000)
	if len(h.delivered) != len(msgs) {
		t.Fatalf("delivered %d of %d", len(h.delivered), len(msgs))
	}
	// At least one message must have been forced off the fast path.
	slow := 0
	for _, mg := range msgs {
		if mg.DeliveredAt-mg.InjectedAt > 2*sim.Cycle(m.Hops(mg.Src, mg.Dst)+1)+2+4 {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("contention never forced the pipeline fallback")
	}
}

func TestSpeculativeKeepsWormholeOrder(t *testing.T) {
	// Back-to-back messages on one path: FIFO per source is preserved and
	// flit trains never interleave incorrectly (assertions would fire).
	m := mesh.New(4, 1)
	h := newHarness(specConfig(m), nil, nil)
	var msgs []*Message
	for i := 0; i < 8; i++ {
		mg := msg(0, 3, VNReply, 5)
		h.net.Send(mg, 0)
		msgs = append(msgs, mg)
	}
	h.runUntilQuiet(t, 2000)
	for i := 1; i < len(msgs); i++ {
		if msgs[i].DeliveredAt <= msgs[i-1].DeliveredAt {
			t.Fatalf("messages reordered: %d before %d", i, i-1)
		}
	}
}

func TestSpeculativeRandomTraffic(t *testing.T) {
	m := mesh.New(4, 4)
	rng := sim.NewRNG(31)
	h := newHarness(specConfig(m), nil, nil)
	n := 0
	for i := 0; i < 80; i++ {
		src := mesh.NodeID(rng.Intn(m.Nodes()))
		dst := mesh.NodeID(rng.Intn(m.Nodes()))
		size := 1
		if rng.Bool(0.5) {
			size = 5
		}
		h.net.Send(msg(src, dst, rng.Intn(NumVNs), size), 0)
		n++
	}
	h.runUntilQuiet(t, 30000)
	if len(h.delivered) != n {
		t.Fatalf("delivered %d of %d", len(h.delivered), n)
	}
}

func TestSpeculativeRejectsCircuitHandler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("speculation plus a circuit handler must be rejected")
		}
	}()
	NewNetwork(specConfig(mesh.New(2, 2)), &spyHandler{}, nil)
}

// specLiveRoutes counts the input VCs of every router still holding a
// speculative route.
func specLiveRoutes(n *Network) int {
	total := 0
	for _, r := range n.routers {
		for _, v := range r.vcs {
			if v.spec {
				total++
			}
		}
	}
	return total
}

// TestSpecTableEmptyAfterDrain: once every message has delivered, no input
// VC may retain a speculative route. A leaked one would send the next
// message's body flits along its head's predecessor's route.
func TestSpecTableEmptyAfterDrain(t *testing.T) {
	m := mesh.New(4, 4)
	rng := sim.NewRNG(97)
	h := newHarness(specConfig(m), nil, nil)
	n := 0
	// Three bursts with drains in between: deletion must hold mid-run, not
	// just at the end of one burst.
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 60; i++ {
			src := mesh.NodeID(rng.Intn(m.Nodes()))
			dst := mesh.NodeID(rng.Intn(m.Nodes()))
			size := 1
			if rng.Bool(0.5) {
				size = 5
			}
			h.net.Send(msg(src, dst, rng.Intn(NumVNs), size), 0)
			n++
		}
		h.runUntilQuiet(t, 60000)
		if live := specLiveRoutes(h.net); live != 0 {
			t.Fatalf("burst %d: %d speculative routes leaked after drain", burst, live)
		}
	}
	if len(h.delivered) != n {
		t.Fatalf("delivered %d of %d", len(h.delivered), n)
	}
}
