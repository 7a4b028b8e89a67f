package noc

import (
	"testing"
	"unsafe"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// TestSteadyStateCycleDoesNotAllocate pins the tentpole claim directly: with
// the flit/message pools, ring-buffer VC queues and the open-addressed
// speculative-route table warmed up, stepping a saturated mesh performs zero
// heap allocations. A regression here means some hot-path structure went
// back to append/make/map churn.
func TestSteadyStateCycleDoesNotAllocate(t *testing.T) {
	m := mesh.New(8, 8)
	net := NewNetwork(BaselineConfig(m), nil, nil)
	rng := sim.NewRNG(5)
	kernel := sim.NewKernel()
	inject := func(now sim.Cycle) {
		msg := net.NewMessage()
		msg.Src = mesh.NodeID(rng.Intn(m.Nodes()))
		msg.Dst = mesh.NodeID(rng.Intn(m.Nodes()))
		msg.VN = rng.Intn(NumVNs)
		msg.Size = 1
		if rng.Bool(0.5) {
			msg.Size = 5
		}
		net.Send(msg, now)
	}
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *Message, now sim.Cycle) {
			net.FreeMessage(msg)
			inject(now)
		})
	}
	net.Register(kernel)
	for i := 0; i < 96; i++ {
		inject(0)
	}
	kernel.Run(500) // warm up: grow rings, fill pools, size spec tables
	if avg := testing.AllocsPerRun(200, func() { kernel.Step() }); avg != 0 {
		t.Errorf("steady-state cycle allocates %.2f objects, want 0", avg)
	}
}

// TestInjectionDoesNotAllocate checks the NewMessage/Send edge on its own: a
// pooled message travels to delivery and back to the free list without a
// single allocation once the pool is primed.
func TestInjectionDoesNotAllocate(t *testing.T) {
	m := mesh.New(4, 1)
	net := NewNetwork(BaselineConfig(m), nil, nil)
	kernel := sim.NewKernel()
	delivered := 0
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *Message, now sim.Cycle) {
			net.FreeMessage(msg)
			delivered++
		})
	}
	net.Register(kernel)
	roundTrip := func() {
		msg := net.NewMessage()
		msg.Src, msg.Dst = 0, 3
		msg.VN, msg.Size = VNReply, 5
		net.Send(msg, kernel.Now())
		want := delivered + 1
		if _, ok := kernel.RunUntil(func() bool { return delivered >= want }, 1000); !ok {
			t.Fatal("message never delivered")
		}
	}
	roundTrip() // prime the pools and the NI staging queues
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Errorf("pooled round trip allocates %.2f objects, want 0", avg)
	}
}

// TestMessageSize pins Message's layout on 64-bit hosts: a run allocates its
// peak of in-flight messages afresh, so a one-byte field placed between two
// words (padding it to eight) moves every message to the 256-byte class.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit words")
	}
	if got := unsafe.Sizeof(Message{}); got > 208 {
		t.Errorf("Message is %d bytes, want <= 208: keep the one-byte fields together", got)
	}
}
