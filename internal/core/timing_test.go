package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// timedRig builds a manager over a real network without running it, so the
// window arithmetic can be unit-tested directly.
func timedRig(t *testing.T, opts Options) *Manager {
	t.Helper()
	m := mesh.New(4, 4)
	mg := NewManager(opts, m)
	net := noc.NewNetwork(NetConfigFor(m, opts), mg, mg)
	mg.Bind(net)
	return mg
}

// hopPorts returns the ports an XY-routed request enters and leaves hop i
// of its path by.
func hopPorts(m mesh.Mesh, path []mesh.NodeID, i int) (in, out mesh.Dir) {
	dst := path[len(path)-1]
	in, out = mesh.Local, m.NextDir(mesh.RouteXY, path[i], dst)
	if i > 0 {
		in = m.NextDir(mesh.RouteXY, path[i-1], dst).Opposite()
	}
	return in, out
}

func timedMsg(src, dst mesh.NodeID) *noc.Message {
	return &noc.Message{
		ID: 1, Src: src, Dst: dst, VN: noc.VNRequest, Size: 1,
		WantCircuit: true, Block: 0x40,
		ExpectedProcDelay: 7, ExpectedReplySize: 5,
	}
}

func TestTimedWindowUncontendedConsistency(t *testing.T) {
	// Reserving along the whole path at the uncontended cadence (5
	// cycles/hop between VA grants) must keep the injection interval
	// non-empty and, with zero slack, a single cycle wide.
	mg := timedRig(t, timedOpts(0, 0, 0))
	msg := timedMsg(0, 15)
	w := &walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	path := mg.m.Path(mesh.RouteXY, 0, 15)
	now := sim.Cycle(100)
	for i, id := range path {
		in, out := hopPorts(mg.m, path, i)
		s, e, lo, hi, ok := mg.timedWindow(id, msg, out, in, w, now)
		if !ok {
			t.Fatalf("router %d: reservation infeasible", id)
		}
		if e-s != sim.Cycle(msg.ExpectedReplySize-1) {
			t.Fatalf("router %d: window length %d, want %d", id, e-s+1, msg.ExpectedReplySize)
		}
		w.injLo, w.injHi = lo, hi
		now += 5 // uncontended request cadence
	}
	if w.injLo != w.injHi {
		t.Fatalf("zero slack must pin injection to one cycle: [%d, %d]", w.injLo, w.injHi)
	}
}

func TestTimedWindowJitterBreaksZeroSlack(t *testing.T) {
	mg := timedRig(t, timedOpts(0, 0, 0))
	msg := timedMsg(0, 3)
	w := &walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	path := mg.m.Path(mesh.RouteXY, 0, 3)
	now := sim.Cycle(100)
	for i, id := range path {
		in, out := hopPorts(mg.m, path, i)
		_, _, lo, hi, ok := mg.timedWindow(id, msg, out, in, w, now)
		if i == len(path)-1 {
			if ok {
				t.Fatal("a delayed request with zero slack must break its own schedule")
			}
			return
		}
		if !ok {
			t.Fatalf("router %d: unexpectedly infeasible", id)
		}
		w.injLo, w.injHi = lo, hi
		now += 5
		if i == len(path)-2 {
			now += 3 // jitter before the final reservation
		}
	}
}

func TestTimedWindowSlackAbsorbsJitter(t *testing.T) {
	mg := timedRig(t, timedOpts(2, 0, 0))
	msg := timedMsg(0, 3)
	w := &walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	path := mg.m.Path(mesh.RouteXY, 0, 3)
	now := sim.Cycle(100)
	for i, id := range path {
		in, out := hopPorts(mg.m, path, i)
		_, _, lo, hi, ok := mg.timedWindow(id, msg, out, in, w, now)
		if !ok {
			t.Fatalf("router %d: slack failed to absorb jitter", id)
		}
		w.injLo, w.injHi = lo, hi
		now += 5
		if i == 0 {
			now += 4 // jitter within the 2-cycles/hop * 3-hop slack budget
		}
	}
	if w.injLo > w.injHi {
		t.Fatal("final interval empty despite slack")
	}
}

func TestTimedWindowDelaySearchShiftsPastConflicts(t *testing.T) {
	mg := timedRig(t, timedOpts(2, 2, 0))
	msg := timedMsg(0, 3)
	// Occupy the colliding slot at router 1 with a foreign circuit using
	// a different input port and the same output.
	id := mesh.NodeID(1)
	base := sim.Cycle(100) + (reqHopLatency+repHopLatency)*2 + 7 + estimateOverhead
	foreign := entry{
		built: true, dest: 9, block: 0x999, out: mesh.West,
		winStart: base - 2, winEnd: base + 8,
	}
	mg.tables[id].insert(mesh.Local, foreign, 5, 0)

	w := &walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	// Reserve at router 1 as the request passes (in from West toward
	// East; the reply enters East and leaves West, colliding with the
	// foreign entry's West output).
	s, _, _, _, ok := mg.timedWindow(id, msg, mesh.East, mesh.West, w, 105)
	if !ok {
		t.Fatal("delay search should find a later slot")
	}
	if s <= foreign.winEnd {
		t.Fatalf("window start %d not shifted past the conflict ending %d", s, foreign.winEnd)
	}
	if msg.AccumDelay == 0 {
		t.Fatal("accumulated delay not recorded")
	}
}

func TestTimedWindowPostponedPinsSchedule(t *testing.T) {
	mg := timedRig(t, timedOpts(0, 0, 2))
	msg := timedMsg(0, 3)
	w := &walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	path := mg.m.Path(mesh.RouteXY, 0, 3)
	now := sim.Cycle(100)
	var lows []sim.Cycle
	for i, id := range path {
		in, out := hopPorts(mg.m, path, i)
		_, _, lo, hi, ok := mg.timedWindow(id, msg, out, in, w, now)
		if !ok {
			t.Fatalf("router %d infeasible", id)
		}
		if lo != hi {
			t.Fatalf("postponed windows must pin a single injection cycle, got [%d,%d]", lo, hi)
		}
		lows = append(lows, lo)
		w.injLo, w.injHi = lo, hi
		now += 5
		now += sim.Cycle(i) // arbitrary jitter: the pinned schedule absorbs it
	}
	for i := 1; i < len(lows); i++ {
		if lows[i] != lows[0] {
			t.Fatalf("schedule drifted: %v", lows)
		}
	}
	// The pinned cycle includes the postponement budget.
	if !w.hasSched {
		t.Fatal("schedule not pinned")
	}
}
