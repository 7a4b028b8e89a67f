package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// monolith ticks every router and then every NI each cycle, whatever their
// quiescence: the engine before activity tracking, kept as the reference
// Network.Register is held to.
type monolith struct{ net *Network }

func (m monolith) Tick(now sim.Cycle) {
	for _, r := range m.net.routers {
		r.Tick(now)
	}
	for _, ni := range m.net.nis {
		ni.Tick(now)
	}
}

func (monolith) Quiescent() bool { return false }

func newMonolithHarness(cfg NetConfig) *harness {
	h := newUnregistered(cfg, nil, nil)
	h.kernel.Add(monolith{h.net})
	h.kernel.AddEpilogue(h.net.FlushBoundary)
	return h
}

// randomTraffic enqueues the same pseudo-random message mix into any
// harness-like sender, returning the messages for later comparison.
func randomTraffic(m mesh.Mesh, send func(*Message), seed uint64) []*Message {
	rng := sim.NewRNG(seed)
	var msgs []*Message
	for i := 0; i < 60; i++ {
		src := mesh.NodeID(rng.Intn(m.Nodes()))
		dst := mesh.NodeID(rng.Intn(m.Nodes()))
		vn := rng.Intn(NumVNs)
		size := 1
		if rng.Bool(0.5) {
			size = 5
		}
		msgs = append(msgs, msg(src, dst, vn, size))
	}
	for _, mg := range msgs {
		send(mg)
	}
	return msgs
}

// TestActivityTrackedMatchesMonolithic is the noc-layer half of the golden
// determinism argument: registering routers and NIs individually with wake
// wiring must reproduce the monolithic engine's per-message timestamps
// bit for bit, for both sparse and dense kernel modes.
func TestActivityTrackedMatchesMonolithic(t *testing.T) {
	m := mesh.New(4, 4)
	for _, seed := range []uint64{1, 42, 9000} {
		ref := newMonolithHarness(BaselineConfig(m))
		refMsgs := randomTraffic(m, func(mg *Message) { ref.net.Send(mg, 0) }, seed)
		ref.runUntilQuiet(t, 20000)

		for _, dense := range []bool{false, true} {
			got := newHarness(BaselineConfig(m), nil, nil)
			got.kernel.SetDense(dense)
			gotMsgs := randomTraffic(m, func(mg *Message) { got.net.Send(mg, 0) }, seed)
			if _, ok := got.kernel.RunUntil(got.net.Quiescent, 20000); !ok {
				t.Fatalf("seed %d dense=%v: flattened network never drained", seed, dense)
			}
			if len(got.delivered) != len(ref.delivered) {
				t.Fatalf("seed %d dense=%v: delivered %d, ref %d",
					seed, dense, len(got.delivered), len(ref.delivered))
			}
			for i := range refMsgs {
				r, g := refMsgs[i], gotMsgs[i]
				if g.EnqueuedAt != r.EnqueuedAt || g.InjectedAt != r.InjectedAt || g.DeliveredAt != r.DeliveredAt {
					t.Fatalf("seed %d dense=%v msg %d: (enq,inj,del)=(%d,%d,%d), ref (%d,%d,%d)",
						seed, dense, i, g.EnqueuedAt, g.InjectedAt, g.DeliveredAt,
						r.EnqueuedAt, r.InjectedAt, r.DeliveredAt)
				}
			}
			if *got.net.Events() != *ref.net.Events() {
				t.Fatalf("seed %d dense=%v: power events diverged:\n got %+v\n ref %+v",
					seed, dense, *got.net.Events(), *ref.net.Events())
			}
		}
	}
}

// TestActivityTrackerActuallySkips asserts the scheduler delivers its whole
// point: once traffic drains, every component sleeps, and over a mostly
// idle run far fewer component ticks execute than dense mode would.
func TestActivityTrackerActuallySkips(t *testing.T) {
	m := mesh.New(4, 4)
	h := newHarness(BaselineConfig(m), nil, nil)
	h.net.Send(msg(0, 15, VNRequest, 1), 0)
	h.kernel.Run(500)
	if !h.net.Quiescent() {
		t.Fatal("single message should have drained")
	}
	if h.kernel.ActiveCount() != 0 {
		t.Fatalf("%d components still awake after drain", h.kernel.ActiveCount())
	}
	denseTicks := int64(h.kernel.Components()) * h.kernel.Now()
	if got := h.kernel.Ticks(); got*4 > denseTicks {
		t.Fatalf("executed %d of %d dense ticks; expected a >4x skip on an idle mesh", got, denseTicks)
	}

	// A fresh message wakes only the components that see it.
	h.net.Send(msg(0, 15, VNRequest, 1), h.kernel.Now())
	if h.kernel.ActiveCount() == 0 {
		t.Fatal("send did not wake the source NI")
	}
	h.kernel.Run(500)
	if h.kernel.ActiveCount() != 0 {
		t.Fatal("mesh did not settle after the second message")
	}
}

// TestEventCountersDescribe checks the power-event counters surface through
// a metrics registry.
func TestEventCountersDescribe(t *testing.T) {
	h := newHarness(BaselineConfig(mesh.New(4, 1)), nil, nil)
	reg := sim.NewRegistry()
	h.net.DescribeMetrics(reg)
	h.net.Send(msg(0, 3, VNRequest, 1), 0)
	h.kernel.Run(100)
	snap := reg.Snapshot(h.kernel.Now())
	if got := snap.Value("noc/link_flits"); got != h.net.Events().LinkFlits || got == 0 {
		t.Fatalf("registry link_flits %d, events %d", got, h.net.Events().LinkFlits)
	}
	if snap.Value("noc/buf_writes") != h.net.Events().BufWrites {
		t.Fatal("registry buf_writes out of sync")
	}
}
