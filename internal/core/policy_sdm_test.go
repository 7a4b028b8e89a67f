package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
)

// sdmOpts is the sdm policy's plain configuration at a given lane count
// (0 = the default of 4).
func sdmOpts(lanes int) Options {
	return Options{Mechanism: MechSDM, MaxCircuitsPerPort: 5, SDMLanes: lanes}
}

// TestSDMValidateErrors: every structurally incompatible knob combination
// is rejected (TestPolicyTraits pins the Timed and NoAck rejections — NoAck's
// delivery guarantee is one a lane-paced, stallable circuit reply cannot
// honour).
func TestSDMValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"no table entries", func(o *Options) { o.MaxCircuitsPerPort = 0 }},
		{"one lane", func(o *Options) { o.SDMLanes = 1 }},
		{"nine lanes", func(o *Options) { o.SDMLanes = 9 }},
	}
	for _, c := range cases {
		o := sdmOpts(4)
		c.mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, o)
		}
	}
	for _, lanes := range []int{0, 2, 4, 8} {
		o := sdmOpts(lanes)
		if err := o.Validate(); err != nil {
			t.Errorf("SDMLanes=%d rejected: %v", lanes, err)
		}
	}
}

// TestSDMNetConfig pins the network sdm provisions: one *buffered* circuit
// VC (lane-paced flits wait under credit flow control), YX replies, and
// the mesh links sliced into the configured lane count (default 4).
func TestSDMNetConfig(t *testing.T) {
	m := mesh.New(4, 4)

	cfg := NetConfigFor(m, sdmOpts(0))
	if cfg.LinkLanes != 4 {
		t.Fatalf("default LinkLanes = %d, want 4", cfg.LinkLanes)
	}
	if cfg.ReplyCircuitVCs != 1 || cfg.RepRouting != mesh.RouteYX {
		t.Fatalf("sdm network = %+v, want 1 circuit VC with YX replies", cfg)
	}
	if cfg.CircuitVCUnbuffered {
		t.Fatal("sdm's circuit VC must stay buffered: lane-paced flits wait in it")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("sdm network invalid: %v", err)
	}

	if got := NetConfigFor(m, sdmOpts(8)).LinkLanes; got != 8 {
		t.Fatalf("SDMLanes=8 gave LinkLanes=%d", got)
	}
}

// TestTableFreeLane drives the per-link lane allocator directly: lane 0 is
// never handed out, the lowest free circuit lane wins, lanes are scoped to
// the output port across all inputs, and exhaustion returns -1.
func TestTableFreeLane(t *testing.T) {
	tb := &table{}
	if got := tb.freeLane(mesh.East, 4, 0); got != 1 {
		t.Fatalf("empty table freeLane = %d, want 1 (lane 0 is the packet lane)", got)
	}

	claim := func(in mesh.Dir, dest mesh.NodeID, lane int) *entry {
		e := mkEntry(dest, uint64(dest)*64, mesh.East, 0, -1)
		e.lane = lane
		ins, _ := tb.insert(in, e, 5, 0)
		if ins == nil {
			t.Fatalf("claim insert failed (dest %d lane %d)", dest, lane)
		}
		return ins
	}

	claim(mesh.West, 1, 1)
	if got := tb.freeLane(mesh.East, 4, 0); got != 2 {
		t.Fatalf("freeLane with lane 1 held = %d, want 2", got)
	}
	// The lanes belong to the physical output link: an entry from another
	// input port holds its lane against everyone.
	claim(mesh.North, 2, 2)
	if got := tb.freeLane(mesh.East, 4, 0); got != 3 {
		t.Fatalf("freeLane with lanes 1,2 held across inputs = %d, want 3", got)
	}
	e3 := claim(mesh.South, 3, 3)
	if got := tb.freeLane(mesh.East, 4, 0); got != -1 {
		t.Fatalf("exhausted link freeLane = %d, want -1", got)
	}
	// A different output link has its own lanes.
	if got := tb.freeLane(mesh.West, 4, 0); got != 1 {
		t.Fatalf("other output port freeLane = %d, want 1", got)
	}
	// Releasing an entry returns its lane.
	e3.built = false
	if got := tb.freeLane(mesh.East, 4, 0); got != 3 {
		t.Fatalf("freeLane after release = %d, want 3", got)
	}
}

// TestSDMCircuitRideAndSerialization runs one transaction end to end: the
// reply rides its lane circuit, the lane pacing makes it slower than a
// full-width complete circuit but still faster than the packet pipeline,
// and an undone circuit's teardown leaves no entry behind.
func TestSDMCircuitRideAndSerialization(t *testing.T) {
	src, dst := mesh.NodeID(0), mesh.NodeID(15)

	lat := func(opts Options) (sim int64, rep *noc.Message, r *rig) {
		r = newRig(t, 4, 4, opts, 7)
		r.request(src, dst, 5)
		r.runQuiet(4000)
		if len(r.replies) != 1 {
			t.Fatalf("%+v: %d replies, want 1", opts, len(r.replies))
		}
		rep = r.replies[0]
		return int64(rep.DeliveredAt - rep.InjectedAt), rep, r
	}

	l2, rep2, rig2 := lat(sdmOpts(2))
	if !rep2.UseCircuit {
		t.Fatal("sdm reply did not ride its circuit")
	}
	if st := &rig2.mgr.Stats; st.CircuitsBuilt != 1 || st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("built/circuit = %d/%d, want 1/1", st.CircuitsBuilt, st.Replies[OutcomeCircuit])
	}

	lFull, _, _ := lat(completeOpts())
	lPacket, _, _ := lat(Options{})
	l8, _, _ := lat(sdmOpts(8))
	if !(lFull < l2 && l2 < l8) {
		t.Fatalf("serialization ordering broken: full %d, 2-lane %d, 8-lane %d", lFull, l2, l8)
	}
	if l2 >= lPacket {
		t.Fatalf("2-lane circuit (%d) not faster than the packet pipeline (%d)", l2, lPacket)
	}

	// An undone circuit (the L2-forwards-to-owner pattern) tears down, and
	// nothing survives the drain.
	req := rig2.request(src, dst, 5)
	rig2.forwardTo[req.Block] = 10
	rig2.runQuiet(8000)
	if rig2.mgr.Stats.CircuitsUndone != 1 {
		t.Fatalf("circuits undone = %d, want 1", rig2.mgr.Stats.CircuitsUndone)
	}
	now := rig2.kernel.Now()
	for id := range rig2.mgr.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			if n := rig2.mgr.tables[id].activeCount(d, now); n != 0 {
				t.Fatalf("router %d input %v: %d entries leaked past quiesce", id, d, n)
			}
		}
	}
}

// TestSDMLaneExhaustionFallsBack: with 2 lanes there is exactly one
// circuit lane per link, so a second reservation crossing a shared link
// must fail the whole circuit (the all-or-nothing rule) and fall back to
// a packet reply — delivered, just not on a circuit.
func TestSDMLaneExhaustionFallsBack(t *testing.T) {
	r := newRig(t, 4, 4, sdmOpts(2), 20)
	// Both request paths converge on column 3 heading south to node 15,
	// so their reply circuits contend for the same link lanes.
	r.request(3, 15, 5)
	r.request(7, 15, 5)
	r.runQuiet(4000)
	if len(r.replies) != 2 {
		t.Fatalf("%d replies delivered, want 2", len(r.replies))
	}
	st := &r.mgr.Stats
	if st.ReserveFailedConflict == 0 {
		t.Fatal("no lane-exhaustion failure recorded on the shared link")
	}
	if st.Replies[OutcomeCircuit] != 1 || st.Replies[OutcomeFailed] != 1 {
		t.Fatalf("outcomes circuit/failed = %d/%d, want 1/1",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeFailed])
	}

	// The same pair at 4 lanes fits side by side on one physical channel.
	r4 := newRig(t, 4, 4, sdmOpts(4), 20)
	r4.request(3, 15, 5)
	r4.request(7, 15, 5)
	r4.runQuiet(4000)
	if st := &r4.mgr.Stats; st.Replies[OutcomeCircuit] != 2 {
		t.Fatalf("4-lane outcomes = %+v, want both replies on circuits", st.Replies)
	}
}
