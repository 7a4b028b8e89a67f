package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// TestBypassFastPathAllocationBound pins the allocation cost of the circuit
// machinery itself: a full reserve → build → bypass → release round trip
// (request out, 5-flit reply back on its circuit) using pooled messages
// allocates nothing. The walks, records, table entries, flits and messages
// all recycle, and the walk's candidate entry reaches Policy.Arbitrate
// without escaping — under the port rule, the reserved-VC search and the
// lane search alike. So does a trip whose reservation is refused part way:
// its undo token rides the credit wire by value.
func TestBypassFastPathAllocationBound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		refused bool
	}{
		{"complete", completeOpts(), false},
		{"fragmented", fragmentedOpts(), false},
		{"sdm", sdmOpts(4), false},
		{"refused and undone", completeOpts(), true},
	} {
		t.Run(tc.name, func(t *testing.T) { circuitRoundTripAllocs(t, tc.opts, tc.refused) })
	}
}

// circuitRoundTripAllocs times round trips from tile 0 to tile 63 of an
// 8x8 mesh. With refused set, a first request to tile 63 builds a circuit
// whose reply never comes, and every trip goes to tile 7 instead: its
// reply would leave router 7 westward from another input than the held
// circuit's, so the conflict rule refuses it at its last router, an undo
// token walks back over the six routers it reserved, and the reply
// travels as a packet.
func circuitRoundTripAllocs(t *testing.T, opts Options, refused bool) {
	m := mesh.New(8, 8)
	mgr := NewManager(opts, m)
	net := noc.NewNetwork(NetConfigFor(m, opts), mgr, mgr)
	mgr.Bind(net)
	kernel := sim.NewKernel()
	const held = 1 // the held circuit's block; trips use multiples of 64
	delivered := 0
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			if msg.VN == noc.VNRequest {
				if msg.Block != held {
					rep := net.NewMessage()
					rep.Src, rep.Dst = msg.Dst, msg.Src
					rep.VN, rep.Size = noc.VNReply, 5
					rep.Block = msg.Block
					net.Send(rep, now)
				}
			} else {
				delivered++
			}
			net.FreeMessage(msg)
		})
	}
	net.Register(kernel)
	request := func(dst mesh.NodeID, block uint64) {
		req := net.NewMessage()
		req.Src, req.Dst = 0, dst
		req.VN, req.Size = noc.VNRequest, 1
		req.WantCircuit = true
		req.Block = block
		req.ExpectedReplySize = 5
		net.Send(req, kernel.Now())
	}
	dst, open := mesh.NodeID(63), int64(0)
	if refused {
		request(63, held)
		kernel.Run(200)
		dst, open = 7, mgr.OpenCircuits(kernel.Now())
	}
	block := uint64(0)
	roundTrip := func() {
		block += 64
		request(dst, block)
		want := delivered + 1
		if _, ok := kernel.RunUntil(func() bool { return delivered >= want }, 10000); !ok {
			t.Fatal("reply never delivered")
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip() // warm pools, walk and record free lists, table slots
	}
	avg := testing.AllocsPerRun(100, roundTrip)
	t.Logf("allocs per circuit round trip: %.2f", avg)
	if avg != 0 {
		t.Errorf("circuit round trip allocates %.2f objects, want 0", avg)
	}
	if !refused {
		return
	}
	kernel.Run(50) // the last undo walk reaches tile 0
	if n := mgr.Stats.ReserveFailedConflict; n < 100 {
		t.Errorf("%d reservations refused, want one per trip", n)
	}
	if now := mgr.OpenCircuits(kernel.Now()); open != 15 || now != open {
		t.Errorf("%d entries live after the trips, %d held before (want 15 both): the undo walks leaked", now, open)
	}
}
