package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// TestBypassFastPathAllocationBound pins the allocation cost of the circuit
// machinery itself: a full reserve → build → bypass → release round trip
// (request out, 5-flit reply back on its circuit) using pooled messages.
// Exactly one object per trip is expected — the record, which escapes into
// rides/pendingUndo and is deliberately not pooled (see DESIGN.md §5b). The
// walks, table entries, flits and messages all recycle, and the walk's
// candidate entry reaches Policy.Arbitrate without escaping — under the
// port rule, the reserved-VC search and the lane search alike.
func TestBypassFastPathAllocationBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"complete", completeOpts()},
		{"fragmented", fragmentedOpts()},
		{"sdm", sdmOpts(4)},
	} {
		t.Run(tc.name, func(t *testing.T) { circuitRoundTripAllocs(t, tc.opts) })
	}
}

func circuitRoundTripAllocs(t *testing.T, opts Options) {
	m := mesh.New(8, 8)
	mgr := NewManager(opts, m)
	net := noc.NewNetwork(NetConfigFor(m, opts), mgr, mgr)
	mgr.Bind(net)
	kernel := sim.NewKernel()
	delivered := 0
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			if msg.VN == noc.VNRequest {
				rep := net.NewMessage()
				rep.Src, rep.Dst = msg.Dst, msg.Src
				rep.VN, rep.Size = noc.VNReply, 5
				rep.Block = msg.Block
				net.Send(rep, now)
			} else {
				delivered++
			}
			net.FreeMessage(msg)
		})
	}
	kernel.Register(net)
	block := uint64(0)
	roundTrip := func() {
		block += 64
		req := net.NewMessage()
		req.Src, req.Dst = 0, 63
		req.VN, req.Size = noc.VNRequest, 1
		req.WantCircuit = true
		req.Block = block
		req.ExpectedReplySize = 5
		net.Send(req, kernel.Now())
		want := delivered + 1
		if _, ok := kernel.RunUntil(func() bool { return delivered >= want }, 10000); !ok {
			t.Fatal("reply never delivered")
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip() // warm pools, walk free list, table slots, ride maps
	}
	avg := testing.AllocsPerRun(100, roundTrip)
	t.Logf("allocs per circuit round trip: %.2f", avg)
	if avg > 1 {
		t.Errorf("circuit round trip allocates %.2f objects, want <= 1 (the record)", avg)
	}
}
