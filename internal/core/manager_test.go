package core

import (
	"testing"
	"testing/quick"

	"reactivenoc/internal/mesh"
)

func TestCompleteCircuitEndToEnd(t *testing.T) {
	r := newRig(t, 4, 4, completeOpts(), 7)
	src, dst := r.m.Node(0, 0), r.m.Node(2, 2)
	r.request(src, dst, 5)
	r.runQuiet(2000)

	if len(r.replies) != 1 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
	rep := r.replies[0]
	if !rep.UseCircuit {
		t.Fatal("reply did not ride its circuit")
	}
	want := circuitLatency(r.m, dst, src, 5)
	if got := rep.DeliveredAt - rep.InjectedAt; got != want {
		t.Fatalf("circuit reply latency %d, want %d", got, want)
	}
	st := &r.mgr.Stats
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("outcome circuit count %d", st.Replies[OutcomeCircuit])
	}
	if st.CircuitsBuilt != 1 {
		t.Fatalf("circuits built %d", st.CircuitsBuilt)
	}
	if st.Ordinals[0] == 0 {
		t.Fatal("no first-circuit reservations recorded")
	}
}

func TestCircuitFasterThanPacket(t *testing.T) {
	// The same transaction through the baseline network must be slower.
	rc := newRig(t, 4, 4, completeOpts(), 7)
	rb := newRig(t, 4, 4, Options{}, 7)
	src, dst := mesh.NodeID(0), mesh.NodeID(15)
	rc.request(src, dst, 5)
	rb.request(src, dst, 5)
	rc.runQuiet(2000)
	rb.runQuiet(2000)
	lc := rc.replies[0].DeliveredAt - rc.replies[0].InjectedAt
	lb := rb.replies[0].DeliveredAt - rb.replies[0].InjectedAt
	if lc >= lb {
		t.Fatalf("circuit latency %d not faster than packet %d", lc, lb)
	}
	if want := packetLatency(rb.m, dst, src, 5); lb != want {
		t.Fatalf("baseline reply latency %d, want %d", lb, want)
	}
}

func TestReplyFollowsReverseRouterPath(t *testing.T) {
	// YX reply routing must retrace the XY request path: a circuit reply
	// crosses hops+1 routers, visible as exactly that many crossbar
	// traversals beyond the request's.
	r := newRig(t, 4, 4, completeOpts(), 7)
	src, dst := r.m.Node(0, 1), r.m.Node(3, 3)
	r.request(src, dst, 1)
	r.runQuiet(2000)
	hops := r.m.Hops(src, dst)
	ev := r.net.Events()
	// request: hops+1 traversals buffered; reply: hops+1 bypass traversals.
	if want := int64(2 * (hops + 1)); ev.XbarTraversals != want {
		t.Fatalf("xbar traversals %d, want %d", ev.XbarTraversals, want)
	}
	// The reply never used a buffer.
	if ev.BufWrites != int64(hops+1) {
		t.Fatalf("buffer writes %d, want %d (request only)", ev.BufWrites, hops+1)
	}
}

func TestConflictRuleBlocksSecondCircuit(t *testing.T) {
	// Two circuits whose replies need different input ports but the same
	// output port at some router cannot coexist (Section 4.2).
	//
	// On a 3x3 mesh: request A from (0,2) to (2,0); its reply (YX) goes
	// south to (2,2)... pick overlapping paths instead on a 1-D mesh:
	// A: 0 -> 3 (reply rides 3->2->1->0), B: 1 -> 3 (reply 3->2->1).
	// At router 1, A's reply arrives East and leaves West; B's reply
	// arrives East and leaves Local — no conflict. At router 2 both
	// arrive East... use perpendicular paths on 3x3:
	// A: (0,0) -> (2,1): request XY goes E,E,S; reply YX from (2,1):
	// N, W, W. At router (2,0) the reply enters South, leaves West.
	// B: (1,0) -> (2,0): request E; reply at (2,0) enters Local? No —
	// reply from (2,0) to (1,0) enters via injection (Local), leaves
	// West. Different input (Local vs South), same output (West) at
	// router (2,0): B must fail while A's circuit stands.
	r := newRig(t, 3, 3, completeOpts(), 300) // long proc: circuits held
	a := r.request(r.m.Node(0, 0), r.m.Node(2, 1), 5)
	r.run(60) // let A's reservation complete
	b := r.request(r.m.Node(1, 0), r.m.Node(2, 0), 5)
	r.runQuiet(5000)

	if a.BuildFailed {
		t.Fatal("first circuit should build")
	}
	if !b.BuildFailed {
		t.Fatal("second circuit must fail: different inputs, same output at (2,0)")
	}
	st := &r.mgr.Stats
	if st.ReserveFailedConflict == 0 {
		t.Fatal("conflict not recorded")
	}
	if st.Replies[OutcomeCircuit] != 1 || st.Replies[OutcomeFailed] != 1 {
		t.Fatalf("outcomes: circuit=%d failed=%d, want 1/1",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeFailed])
	}
	// Both replies delivered regardless.
	if len(r.replies) != 2 {
		t.Fatalf("replies delivered: %d", len(r.replies))
	}
}

func TestFailedCircuitPrefixUndone(t *testing.T) {
	// After a conflict, the losing request's already-reserved prefix must
	// be torn down by the credit walk, freeing those ports for others.
	r := newRig(t, 4, 1, completeOpts(), 500)
	// A: 3 -> 0. Reply path 0->1->2->3 (east). Circuit entries at every
	// router; at router 0 input Local, out East... B: 2 -> 0: reply
	// enters router 0 Local?? — A reply: from 0 to 3: at router 0 enters
	// Local leaves East; B reply from 0 to 2: enters Local leaves East —
	// same input, ok by rule. Need different inputs same output:
	// C: request 3 -> 1. Reply from 1 to 3: at router 1 enters Local,
	// leaves East. A's reply at router 1: enters West, leaves East.
	// Different input (Local vs West), same output (East): conflict at
	// router 1.
	a := r.request(3, 0, 5)
	r.run(80)
	c := r.request(3, 1, 5)
	r.run(80)
	if a.BuildFailed {
		t.Fatal("A should have built")
	}
	if !c.BuildFailed {
		t.Fatal("C should conflict with A at router 1")
	}
	// C reserved router 3 (its first hop... request path 3->2->1: routers
	// 3, 2, then fails at 1). After the undo walk, routers 3 and 2 must
	// hold only A's entries.
	r.run(40)
	for id := mesh.NodeID(1); id <= 3; id++ {
		tb := r.mgr.tables[id]
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range tb.inputs[d] {
				if e.built && e.dest == c.Src && e.block == c.Block {
					t.Fatalf("stale entry of failed circuit at router %d port %v", id, d)
				}
			}
		}
	}
	r.runQuiet(5000)
	if len(r.replies) != 2 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
}

// TestUndoForwardedRequest drives every way a reserved circuit can end
// short of its own reply, for every circuit policy: the L2-forwards-to-owner
// pattern undoes the circuit before use and the data comes from another
// node as a normal reply. Each row must end with no live entry at any port,
// no walk or ride outstanding, and a clean quiescence audit.
func TestUndoForwardedRequest(t *testing.T) {
	forwarded := func(t *testing.T, o Options) *rig {
		r := newRig(t, 4, 4, o, 7)
		req := r.request(0, 15, 5)
		r.forwardTo[req.Block] = 10
		return r
	}
	// The protocol undoes a circuit a scrounger is riding: the record is
	// dropped at once (pendingUndo), and the teardown waits for the ride's
	// release at the cycle epilogue.
	undoMidRide := func(t *testing.T, o Options) *rig {
		r := newRig(t, 4, 1, o, 600) // the owner's reply is held back
		req := r.request(2, 0, 5)    // circuit 0 -> 2
		r.run(80)
		rec := r.mgr.regs[0][circKey{dest: 2, block: req.Block}]
		r.plainReply(0, 3, 1) // borrows the circuit toward 3
		for i := 0; !rec.inUse; i++ {
			if i == 10 {
				t.Fatal("the scrounger never boarded the circuit")
			}
			r.run(1)
		}
		r.mgr.Undo(0, 2, req.Block, r.kernel.Now())
		if !rec.pendingUndo {
			t.Fatal("undo under a riding scrounger did not defer the teardown")
		}
		// The forward tags the eventual data reply as undone, as the
		// coherence layer's CircuitUndone payload does.
		r.pending[0].msg.OutcomeHint = uint8(OutcomeUndone)
		return r
	}
	// The ideal bound charges no teardown walk: the cycle that undoes the
	// circuit also clears every entry of it.
	instant := func(t *testing.T, o Options) *rig {
		r := forwarded(t, o)
		for i := 0; r.mgr.Stats.CircuitsUndone == 0; i++ {
			if i == 200 {
				t.Fatal("the forward never undid the circuit")
			}
			r.run(1)
		}
		if n := r.mgr.OpenCircuits(r.kernel.Now()); n != 0 {
			t.Fatalf("%d entries outlive the cycle of the undo", n)
		}
		return r
	}
	// The comparator's requests reserve nothing, so a forward has no
	// circuit to undo; its one release path is the backward walk that
	// clears a failed setup's prefix. The probe from 0 reserves routers 0
	// and 1 before it conflicts at router 2 with the one from 2.
	probeConflict := func(t *testing.T, o Options) *rig {
		r := newRig(t, 6, 1, o, 7)
		markReplyEligible(r)
		r.probeRequest(5, 2, 5)
		r.probeRequest(5, 0, 5)
		r.runQuiet(8000)
		if st := &r.mgr.Stats; st.ReserveFailedConflict != 1 || st.Replies[OutcomeFailed] != 1 {
			t.Fatalf("conflicts/failed setups = %d/%d, want 1/1",
				st.ReserveFailedConflict, st.Replies[OutcomeFailed])
		}
		return r
	}
	reuse := completeOpts()
	reuse.Reuse = true
	for _, tc := range []struct {
		name     string
		opts     Options
		scenario func(*testing.T, Options) *rig
		undone   int64 // circuits undone, and replies classified undone
	}{
		{"complete", completeOpts(), forwarded, 1},
		{"complete/timed", timedOpts(0, 0, 0), forwarded, 1}, // entries self-expire
		{"complete/scrounger-riding", reuse, undoMidRide, 1},
		{"fragmented", fragmentedOpts(), forwarded, 1},
		{"ideal", Options{Mechanism: MechIdeal}, instant, 1},
		{"probe-setup", probeOpts(), probeConflict, 0},
		{"dynamic-vc", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 3, Policy: "dynamic-vc"}, forwarded, 1},
		{"sdm", sdmOpts(0), forwarded, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.scenario(t, tc.opts)
			r.runQuiet(8000)
			r.run(100) // past every timed window

			st := &r.mgr.Stats
			if st.CircuitsUndone != tc.undone || st.Replies[OutcomeUndone] != tc.undone {
				t.Fatalf("circuits undone %d, undone replies %d, want %d",
					st.CircuitsUndone, st.Replies[OutcomeUndone], tc.undone)
			}
			if tc.undone > 0 {
				if last := r.replies[len(r.replies)-1]; last.UseCircuit {
					t.Fatal("the undone circuit's data reply must travel without it")
				}
			}
			now := r.kernel.Now()
			for id, tb := range r.mgr.tables {
				for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
					if n := tb.activeCount(d, now); n != 0 {
						t.Fatalf("router %d input %v: %d entries survive", id, d, n)
					}
				}
			}
			if r.mgr.walksLive != 0 || r.mgr.ridesLive != 0 {
				t.Fatalf("walks/rides outstanding: %d/%d", r.mgr.walksLive, r.mgr.ridesLive)
			}
			if err := r.mgr.AuditQuiescent(now); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManySimultaneousCircuits(t *testing.T) {
	// Light all-to-one traffic: circuits sharing input ports are fine as
	// long as outputs don't clash; everything must deliver.
	r := newRig(t, 4, 4, completeOpts(), 7)
	for src := mesh.NodeID(0); int(src) < r.m.Nodes(); src++ {
		if src != 5 {
			r.request(src, 5, 5)
		}
	}
	r.runQuiet(20000)
	if len(r.replies) != 15 {
		t.Fatalf("delivered %d replies, want 15", len(r.replies))
	}
	st := &r.mgr.Stats
	total := st.Replies[OutcomeCircuit] + st.Replies[OutcomeFailed] + st.Replies[OutcomeUndone]
	if total != 15 {
		t.Fatalf("classified %d replies, want 15", total)
	}
	if st.Replies[OutcomeCircuit] == 0 {
		t.Fatal("no circuit succeeded under light load")
	}
}

func TestFragmentedPartialCircuit(t *testing.T) {
	// With only 2 reserved VCs per input port, a third overlapping
	// circuit gets a partial path but its reply still rides fragments
	// and everything delivers.
	r := newRig(t, 6, 1, fragmentedOpts(), 400)
	a := r.request(5, 0, 5)
	r.run(80)
	b := r.request(5, 1, 5)
	r.run(80)
	c := r.request(5, 2, 5)
	r.run(80)
	if a.BuildFailed || b.BuildFailed || c.BuildFailed {
		t.Fatal("fragmented circuits never set BuildFailed")
	}
	path := r.m.Hops(5, 2) + 1
	if c.ReservedHops >= path {
		t.Fatalf("third circuit reserved %d of %d routers; expected a partial path", c.ReservedHops, path)
	}
	r.runQuiet(8000)
	if len(r.replies) != 3 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
	st := &r.mgr.Stats
	if st.Replies[OutcomeFailed] == 0 {
		t.Fatal("partial fragmented circuit should classify as failed")
	}
	if st.Replies[OutcomeCircuit] == 0 {
		t.Fatal("complete fragmented circuits should classify as circuit")
	}
}

func TestFragmentedReplyLatencyBetweenCircuitAndPacket(t *testing.T) {
	r := newRig(t, 5, 1, fragmentedOpts(), 7)
	r.request(4, 0, 5)
	r.runQuiet(3000)
	rep := r.replies[0]
	got := rep.DeliveredAt - rep.InjectedAt
	if want := circuitLatency(r.m, 0, 4, 5); got != want {
		t.Fatalf("complete fragmented circuit latency %d, want %d", got, want)
	}
}

func TestScroungerRidesForeignCircuit(t *testing.T) {
	opts := completeOpts()
	opts.Reuse = true
	// Circuit from 0 (its reply source) to 3 on a 1-D mesh; a plain
	// reply from 0 to 3 can borrow it... make the scrounger go further:
	// to node 3 while the circuit ends at 2.
	r := newRig(t, 4, 1, opts, 600) // owner reply held back by long proc
	r.request(2, 0, 5)              // circuit will start at 0, end at 2
	r.run(80)                       // circuit fully built, owner reply pending
	s := r.plainReply(0, 3, 1)
	r.runQuiet(8000)

	st := &r.mgr.Stats
	if st.ScroungerRides != 1 {
		t.Fatalf("scrounger rides %d, want 1", st.ScroungerRides)
	}
	if st.Replies[OutcomeScrounger] != 1 {
		t.Fatalf("scrounger outcome count %d", st.Replies[OutcomeScrounger])
	}
	if s.Dst != 3 {
		t.Fatalf("scrounger final destination %d, want 3", s.Dst)
	}
	// Both the scrounger and the owner's reply must arrive.
	if len(r.replies) != 2 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatal("owner reply should still ride its circuit after the scrounger")
	}
}

func TestScroungerLatencyAccounting(t *testing.T) {
	opts := completeOpts()
	opts.Reuse = true
	r := newRig(t, 4, 1, opts, 600)
	r.request(2, 0, 5)
	r.run(80)
	s := r.plainReply(0, 3, 1)
	start := s.EnqueuedAt
	r.runQuiet(8000)
	total := (s.DeliveredAt - s.InjectedAt + s.NetCredit) +
		(s.InjectedAt - s.EnqueuedAt + s.QueueCredit)
	if total <= 0 {
		t.Fatalf("scrounger total latency %d", total)
	}
	if s.DeliveredAt <= start {
		t.Fatal("scrounger delivery time not monotonic")
	}
}

func TestIdealAllRepliesRideCircuits(t *testing.T) {
	opts := Options{Mechanism: MechIdeal}
	r := newRig(t, 4, 4, opts, 7)
	for src := mesh.NodeID(0); int(src) < r.m.Nodes(); src++ {
		if src != 5 {
			r.request(src, 5, 5)
		}
	}
	r.runQuiet(20000)
	st := &r.mgr.Stats
	if st.Replies[OutcomeCircuit] != 15 {
		t.Fatalf("ideal: %d circuit replies, want 15 (failed=%d)",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeFailed])
	}
	if st.ReserveFailedConflict != 0 || st.ReserveFailedStorage != 0 {
		t.Fatal("ideal reservation must never fail")
	}
}

func TestTimedCircuitCalibration(t *testing.T) {
	// The heart of Section 4.7: with an undisturbed request and the exact
	// processing delay, the basic timed circuit (zero slack) must be
	// reserved, met with zero waiting, and ridden.
	for _, dims := range [][2]int{{4, 1}, {4, 4}, {8, 8}} {
		r := newRig(t, dims[0], dims[1], timedOpts(0, 0, 0), 7)
		src := r.m.Node(0, 0)
		dst := r.m.Node(dims[0]-1, dims[1]-1)
		r.request(src, dst, 5)
		r.runQuiet(4000)
		st := &r.mgr.Stats
		if st.Replies[OutcomeCircuit] != 1 {
			t.Fatalf("%dx%d: timed circuit not ridden (failed=%d undone=%d)",
				dims[0], dims[1], st.Replies[OutcomeFailed], st.Replies[OutcomeUndone])
		}
		if st.WaitedForWindow != 0 {
			t.Fatalf("%dx%d: reply waited %d cycles; estimate is miscalibrated",
				dims[0], dims[1], st.WaitedForWindow)
		}
		rep := r.replies[0]
		if want := circuitLatency(r.m, dst, src, 5); rep.DeliveredAt-rep.InjectedAt != want {
			t.Fatalf("%dx%d: timed circuit latency %d, want %d",
				dims[0], dims[1], rep.DeliveredAt-rep.InjectedAt, want)
		}
	}
}

func TestTimedMissedWindowUndone(t *testing.T) {
	// If the reply is ready later than estimated (e.g. an L2 miss), the
	// timed circuit must be undone and the reply takes the pipeline.
	r := newRig(t, 4, 1, timedOpts(0, 0, 0), 7)
	req := r.request(3, 0, 5)
	// Lie about the processing delay: the responder will take 50 cycles
	// but the estimate said 7.
	req.ExpectedProcDelay = 7
	r.proc = 50
	r.runQuiet(3000)
	st := &r.mgr.Stats
	if st.Replies[OutcomeUndone] != 1 {
		t.Fatalf("missed window should be undone (circuit=%d failed=%d undone=%d)",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeFailed], st.Replies[OutcomeUndone])
	}
	rep := r.replies[0]
	if rep.UseCircuit {
		t.Fatal("missed reply must not ride the circuit")
	}
	if want := packetLatency(r.m, 0, 3, 5); rep.DeliveredAt-rep.InjectedAt != want {
		t.Fatalf("missed reply latency %d, want packet %d", rep.DeliveredAt-rep.InjectedAt, want)
	}
}

func TestTimedJitterFailsWithoutSlack(t *testing.T) {
	// Cross traffic delays the timed request between routers, so its
	// optimistic schedule breaks mid-walk with zero slack — the paper's
	// "fails as soon as the request suffers any delay (loses any VC or
	// switch arbitration)" — while slack absorbs the jitter.
	run := func(slack int) *Stats {
		r := newRig(t, 5, 1, timedOpts(slack, 0, 0), 7)
		for i := 0; i < 3; i++ {
			r.plainRequest(3, 0, 5) // congest the westward request VN
			r.plainRequest(4, 0, 5) // and queue ahead of the timed request
		}
		r.run(4)
		r.request(4, 0, 5)
		r.runQuiet(8000)
		return &r.mgr.Stats
	}
	noSlack := run(0)
	if noSlack.Replies[OutcomeCircuit] != 0 {
		t.Fatal("a jittered request with zero slack should not yield a usable circuit")
	}
	withSlack := run(8)
	if withSlack.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("slack should recover the circuit: circuit=%d failed=%d undone=%d",
			withSlack.Replies[OutcomeCircuit], withSlack.Replies[OutcomeFailed],
			withSlack.Replies[OutcomeUndone])
	}
}

func TestTimedWindowsAllowPortSharing(t *testing.T) {
	// The conflicting-circuit scenario of TestConflictRuleBlocksSecond:
	// with timed reservations and disjoint windows, both circuits build.
	r := newRig(t, 3, 3, timedOpts(2, 2, 0), 7)
	a := r.request(r.m.Node(0, 0), r.m.Node(2, 1), 5)
	r.run(60)
	b := r.request(r.m.Node(1, 0), r.m.Node(2, 0), 5)
	r.runQuiet(4000)
	if a.BuildFailed || b.BuildFailed {
		t.Fatalf("timed circuits should coexist in disjoint slots (a=%v b=%v)",
			a.BuildFailed, b.BuildFailed)
	}
	st := &r.mgr.Stats
	if st.Replies[OutcomeCircuit] != 2 {
		t.Fatalf("both replies should ride: circuit=%d undone=%d failed=%d",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeUndone], st.Replies[OutcomeFailed])
	}
}

func TestPostponedAlwaysWaits(t *testing.T) {
	r := newRig(t, 4, 1, timedOpts(0, 0, 2), 7)
	r.request(3, 0, 5)
	r.runQuiet(4000)
	st := &r.mgr.Stats
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("postponed circuit not ridden (undone=%d failed=%d)",
			st.Replies[OutcomeUndone], st.Replies[OutcomeFailed])
	}
	if st.WaitedForWindow == 0 {
		t.Fatal("postponed replies must wait for their slot even when ready")
	}
	// The wait shows up as queueing latency on the reply.
	rep := r.replies[0]
	if rep.InjectedAt-rep.EnqueuedAt == 0 {
		t.Fatal("postponed reply should show queueing delay")
	}
}

func TestPostponedImmuneToRequestJitter(t *testing.T) {
	// Postponed reservations pin the schedule at the first router, so
	// the cross traffic that kills basic timed circuits does not break
	// the walk as long as the postponement budget covers the jitter.
	r := newRig(t, 5, 1, timedOpts(0, 0, 10), 7)
	for i := 0; i < 4; i++ {
		r.plainRequest(3, 0, 5)
	}
	r.run(4)
	r.request(4, 0, 5)
	r.runQuiet(8000)
	st := &r.mgr.Stats
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("postponed should survive jitter: circuit=%d failed=%d undone=%d",
			st.Replies[OutcomeCircuit], st.Replies[OutcomeFailed], st.Replies[OutcomeUndone])
	}
}

func TestNoteEliminatedAck(t *testing.T) {
	r := newRig(t, 2, 2, completeOpts(), 7)
	r.mgr.NoteEliminatedAck(0, 0)
	r.mgr.NoteEliminatedAck(0, 0)
	st := &r.mgr.Stats
	if st.EliminatedAcks != 2 || st.Replies[OutcomeEliminated] != 2 {
		t.Fatal("eliminated acks miscounted")
	}
	if st.ReplyTotal() != 2 {
		t.Fatalf("reply total %d", st.ReplyTotal())
	}
	if f := st.OutcomeFraction(OutcomeEliminated); f != 1 {
		t.Fatalf("eliminated fraction %v", f)
	}
}

func TestHasCircuit(t *testing.T) {
	r := newRig(t, 4, 1, completeOpts(), 300)
	req := r.request(3, 0, 5)
	r.run(80)
	complete, ok := r.mgr.HasCircuit(0, 3, req.Block, r.kernel.Now())
	if !complete || !ok {
		t.Fatal("built circuit not visible via HasCircuit")
	}
	if c, _ := r.mgr.HasCircuit(0, 3, 0xdead, r.kernel.Now()); c {
		t.Fatal("phantom circuit reported")
	}
	r.runQuiet(4000)
	if c, _ := r.mgr.HasCircuit(0, 3, req.Block, r.kernel.Now()); c {
		t.Fatal("consumed circuit still reported")
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		completeOpts(),
		fragmentedOpts(),
		{Mechanism: MechIdeal},
		timedOpts(0, 0, 0),
		timedOpts(2, 0, 0),
		timedOpts(2, 2, 0),
		timedOpts(0, 0, 1),
		func() Options { o := completeOpts(); o.NoAck = true; return o }(),
		func() Options { o := completeOpts(); o.Reuse = true; return o }(),
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}
	// Which of Timed/Reuse/NoAck each policy rejects is TestPolicyTraits'.
	invalid := []Options{
		{Mechanism: MechFragmented},
		{Mechanism: MechComplete},
		{Mechanism: MechComplete, MaxCircuitsPerPort: 5, SlackPerHop: 1},
		{Mechanism: MechComplete, MaxCircuitsPerPort: 5, Timed: true, DelayPerHop: 1},
		{Mechanism: MechComplete, MaxCircuitsPerPort: 5, Timed: true, PostponePerHop: 1, SlackPerHop: 1},
		{Mechanism: Mechanism(99)},
	}
	for i, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options %d accepted", i)
		}
	}
}

func TestMechanismAndOutcomeStrings(t *testing.T) {
	for m, want := range map[Mechanism]string{
		MechNone: "baseline", MechFragmented: "fragmented",
		MechComplete: "complete", MechIdeal: "ideal",
	} {
		if m.String() != want {
			t.Errorf("Mechanism %d String %q", m, m.String())
		}
	}
	for o, want := range map[Outcome]string{
		OutcomeCircuit: "circuit", OutcomeFailed: "failed", OutcomeUndone: "undone",
		OutcomeScrounger: "scrounger", OutcomeNotEligible: "not-eligible",
		OutcomeEliminated: "eliminated",
	} {
		if o.String() != want {
			t.Errorf("Outcome %d String %q", o, o.String())
		}
	}
}

// TestRoundTripClosedForm is the end-to-end latency property: for any
// source/destination pair on any mesh, an uncontended transaction's request
// takes exactly 5 cycles/hop and its circuit reply exactly 2 cycles/hop.
func TestRoundTripClosedForm(t *testing.T) {
	check := func(rawW, rawSrc, rawDst uint8) bool {
		w := 2 + int(rawW%5) // meshes from 2x2 to 6x6
		r := newRig(t, w, w, completeOpts(), 7)
		src := mesh.NodeID(int(rawSrc) % r.m.Nodes())
		dst := mesh.NodeID(int(rawDst) % r.m.Nodes())
		if src == dst {
			return true
		}
		req := r.request(src, dst, 5)
		r.runQuiet(5000)
		if len(r.replies) != 1 {
			return false
		}
		rep := r.replies[0]
		reqOK := req.DeliveredAt-req.InjectedAt == packetLatency(r.m, src, dst, 1)
		repOK := rep.DeliveredAt-rep.InjectedAt == circuitLatency(r.m, dst, src, 5)
		return reqOK && repOK
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAuditQuiescentCleanAndDirty(t *testing.T) {
	r := newRig(t, 4, 4, completeOpts(), 7)
	r.request(0, 15, 5)
	r.runQuiet(3000)
	if err := r.mgr.AuditQuiescent(r.kernel.Now()); err != nil {
		t.Fatalf("clean run failed the audit: %v", err)
	}
	// Forge an orphan entry: the audit must flag it.
	r.mgr.tables[3].insert(mesh.East,
		entry{built: true, dest: 1, block: 0x40, out: mesh.West, winEnd: noWindow}, 5, 0)
	if err := r.mgr.AuditQuiescent(r.kernel.Now()); err == nil {
		t.Fatal("leaked entry not detected")
	}
}

func TestFragmentedUndoClearsGappedCircuit(t *testing.T) {
	// A partially built fragmented circuit that the protocol undoes
	// (forward-to-owner) must not leak entries beyond its gaps — the
	// regression the quiescence audit originally caught.
	r := newRig(t, 6, 1, fragmentedOpts(), 400)
	a := r.request(5, 0, 5)
	r.run(80)
	bm := r.request(5, 1, 5)
	r.run(80)
	// The third request's circuit will be partial (reserved VCs exhausted
	// on the shared hops) and the responder will forward it, undoing the
	// partial circuit before any reply exists.
	r.forwardTo[r.blockSeq+64] = mesh.NodeID(4)
	c := r.request(5, 2, 5)
	r.run(80)
	if c.ReservedHops >= r.m.Hops(5, 2)+1 {
		t.Fatal("third circuit should be partial for this test")
	}
	_ = a
	_ = bm
	r.runQuiet(8000)
	if err := r.mgr.AuditQuiescent(r.kernel.Now()); err != nil {
		t.Fatalf("gapped undo leaked state: %v", err)
	}
}

func TestPlainReplyNotEligible(t *testing.T) {
	r := newRig(t, 4, 1, completeOpts(), 7)
	r.plainReply(0, 3, 1)
	r.runQuiet(2000)
	st := &r.mgr.Stats
	if st.Replies[OutcomeNotEligible] != 1 {
		t.Fatalf("plain reply not classified as not-eligible: %+v", st.Replies)
	}
}

func TestScroungerChainThenOwner(t *testing.T) {
	// Several scroungers borrow the same circuit back to back; the owner
	// still rides afterwards and everything is released.
	opts := completeOpts()
	opts.Reuse = true
	r := newRig(t, 4, 1, opts, 2000) // owner reply held for a long time
	r.request(2, 0, 5)               // circuit 0 -> 2
	r.run(80)
	for i := 0; i < 3; i++ {
		r.plainReply(0, 3, 1)
		r.run(60)
	}
	r.runQuiet(20000)
	st := &r.mgr.Stats
	if st.ScroungerRides == 0 {
		t.Fatal("no scrounger rides")
	}
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("owner did not ride after scroungers: %+v", st.Replies)
	}
	if len(r.replies) != 4 {
		t.Fatalf("delivered %d replies, want 4", len(r.replies))
	}
	if err := r.mgr.AuditQuiescent(r.kernel.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerAccessors(t *testing.T) {
	r := newRig(t, 2, 2, completeOpts(), 7)
	if r.mgr.BypassBuffered() {
		t.Fatal("complete circuits are bufferless")
	}
	if r.mgr.DumpCircuits(0) != "no live circuits\n" {
		t.Fatal("empty dump")
	}
	// A slow responder keeps the circuit alive long enough to observe.
	r2 := newRig(t, 2, 2, completeOpts(), 500)
	r2.request(0, 3, 5)
	r2.run(60)
	if r2.mgr.DumpCircuits(r2.kernel.Now()) == "no live circuits\n" {
		t.Fatal("live circuit not dumped")
	}
	r2.runQuiet(4000)
}
