package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// stallEveryFlit is a fault hook that delays every flit a router sends.
type stallEveryFlit struct{}

func (stallEveryFlit) DropUndo(mesh.NodeID, *UndoToken, sim.Cycle) bool     { return false }
func (stallEveryFlit) WithholdCredit(mesh.NodeID, mesh.Dir, sim.Cycle) bool { return false }
func (stallEveryFlit) StallFlit(mesh.NodeID, mesh.Dir, sim.Cycle) sim.Cycle { return 3 }

// hotTraffic sends every tile's share of a contended mix at cycle 0: four
// messages per tile, to one of three hot tiles or anywhere, on either VN,
// so that allocators and arbiters decide between rivals all run long.
func hotTraffic(net *Network, seed uint64) []*Message {
	m := net.cfg.Mesh
	rng := sim.NewRNG(seed)
	hot := []mesh.NodeID{0, 5, mesh.NodeID(m.Nodes() - 1)}
	var msgs []*Message
	for src := mesh.NodeID(0); int(src) < m.Nodes(); src++ {
		for k := 0; k < 4; k++ {
			dst := hot[rng.Intn(len(hot))]
			if rng.Bool(0.3) {
				dst = mesh.NodeID(rng.Intn(m.Nodes()))
			}
			size := 1
			if rng.Bool(0.5) {
				size = 5
			}
			mg := msg(src, dst, rng.Intn(NumVNs), size)
			msgs = append(msgs, mg)
			net.Send(mg, 0)
		}
	}
	return msgs
}

// TestRecycledNetworkMatchesFresh: Init over a network abandoned mid-run —
// flits buffered, latched and on the wires, credits in flight, arbiter
// pointers advanced, lanes busy, a fault hook armed — builds one that
// carries the same traffic exactly as a new network does: the same
// per-message timestamps and power events. Whatever the rebuild does not
// name comes back zero, so no run leaks into the next; the flit free list
// is the one memory it keeps, and it holds only zeroed flits.
func TestRecycledNetworkMatchesFresh(t *testing.T) {
	m := mesh.New(4, 4)
	laned := BaselineConfig(m)
	laned.LinkLanes = 2
	for _, cfg := range []NetConfig{BaselineConfig(m), laned} {
		ref := newHarness(cfg, nil, nil)
		refMsgs := hotTraffic(ref.net, 42)
		ref.runUntilQuiet(t, 20000)

		dirty := newHarness(cfg, nil, nil)
		dirty.net.SetFaultHook(stallEveryFlit{})
		hotTraffic(dirty.net, 7)
		dirty.kernel.Run(40)
		if dirty.net.Quiescent() {
			t.Fatal("the abandoned network drained; rebuild over one in flight")
		}

		free := len(dirty.net.pool.flits)
		if free == 0 {
			t.Fatal("the abandoned network freed no flit; rebuild over one that did")
		}
		got := harnessOver(dirty.net.Init(cfg, nil, nil))
		if len(got.net.pool.flits) != free {
			t.Fatalf("lanes=%d: the rebuild left %d flits on the free list, want the %d it had", cfg.LinkLanes, len(got.net.pool.flits), free)
		}
		for _, f := range got.net.pool.flits {
			if *f != (Flit{}) {
				t.Fatalf("lanes=%d: a kept flit is not zero: %+v", cfg.LinkLanes, *f)
			}
		}
		got.net.Register(got.kernel)
		gotMsgs := hotTraffic(got.net, 42)
		got.runUntilQuiet(t, 20000)
		if len(got.delivered) != len(ref.delivered) {
			t.Fatalf("lanes=%d: delivered %d, a new network %d", cfg.LinkLanes, len(got.delivered), len(ref.delivered))
		}
		for i := range refMsgs {
			r, g := refMsgs[i], gotMsgs[i]
			if g.ID != r.ID || g.EnqueuedAt != r.EnqueuedAt || g.InjectedAt != r.InjectedAt || g.DeliveredAt != r.DeliveredAt {
				t.Fatalf("lanes=%d msg %d: (id,enq,inj,del)=(%d,%d,%d,%d), a new network (%d,%d,%d,%d)",
					cfg.LinkLanes, i, g.ID, g.EnqueuedAt, g.InjectedAt, g.DeliveredAt,
					r.ID, r.EnqueuedAt, r.InjectedAt, r.DeliveredAt)
			}
		}
		if *got.net.Events() != *ref.net.Events() {
			t.Errorf("lanes=%d: power events\n got %+v\n new %+v", cfg.LinkLanes, *got.net.Events(), *ref.net.Events())
		}
	}
}
