package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
)

func probeOpts() Options {
	return Options{Mechanism: MechProbe, MaxCircuitsPerPort: 5}
}

// probeRig adapts the shared rig: in probe mode the *reply* is marked
// circuit-wanting (the coherence layer does this for eligible replies).
func newProbeRig(t *testing.T, w, h int, proc int64) *rig {
	r := newRig(t, w, h, probeOpts(), proc)
	return r
}

// probeRequest sends a plain request whose reply will be probe-announced.
func (r *rig) probeRequest(src, dst mesh.NodeID, replySize int) *noc.Message {
	msg := r.request(src, dst, replySize)
	msg.WantCircuit = false // probe mode: requests reserve nothing
	return msg
}

func markReplyEligible(r *rig) {
	old := r.onReplyBuild
	r.onReplyBuild = func(rep *noc.Message) {
		if old != nil {
			old(rep)
		}
		rep.WantCircuit = true
	}
}

func TestProbeSetupEndToEnd(t *testing.T) {
	r := newProbeRig(t, 4, 4, 7)
	markReplyEligible(r)
	r.probeRequest(0, 15, 5)
	r.runQuiet(4000)

	st := &r.mgr.Stats
	if st.ProbesSent != 1 {
		t.Fatalf("probes sent %d, want 1", st.ProbesSent)
	}
	if st.Replies[OutcomeCircuit] != 1 {
		t.Fatalf("reply did not ride the probe-built circuit: %+v", st.Replies)
	}
	if len(r.replies) != 1 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
	rep := r.replies[0]
	// The ride itself is fast (2 cycles/hop)...
	if got, want := rep.DeliveredAt-rep.InjectedAt, circuitLatency(r.m, 15, 0, 5); got != want {
		t.Fatalf("probe-circuit ride latency %d, want %d", got, want)
	}
	// ...but the exposed setup wait makes the total no better than the
	// plain pipeline — the paper's reason to reject setup-at-reply-time.
	total := rep.DeliveredAt - rep.EnqueuedAt
	if total < packetLatency(r.m, 15, 0, 5) {
		t.Fatalf("probe setup should not beat the plain pipeline end to end: total %d vs packet %d",
			total, packetLatency(r.m, 15, 0, 5))
	}
	// No leaked entries after the ride.
	for id := range r.mgr.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range r.mgr.tables[id].inputs[d] {
				if e.built {
					t.Fatalf("leaked probe entry at router %d port %v", id, d)
				}
			}
		}
	}
}

func TestProbeConflictFailsAndCleansUp(t *testing.T) {
	// Two overlapping probe circuits with different inputs and one output
	// conflict like any other circuits; the loser's prefix is torn down
	// by the backward walk and its reply takes the normal pipeline.
	r := newProbeRig(t, 4, 1, 7)
	markReplyEligible(r)
	r.probeRequest(3, 0, 5) // reply (and probe) travel 0 -> 3
	r.probeRequest(3, 1, 5) // reply 1 -> 3: at router 1 a different input
	// (Local vs West) wants the same East output: the later probe fails.
	r.runQuiet(8000)

	st := &r.mgr.Stats
	if st.ProbesSent != 2 {
		t.Fatalf("probes sent %d", st.ProbesSent)
	}
	if st.Replies[OutcomeCircuit] != 1 || st.Replies[OutcomeFailed] != 1 {
		t.Fatalf("want one ride and one failed setup: %+v", st.Replies)
	}
	if len(r.replies) != 2 {
		t.Fatalf("delivered %d replies", len(r.replies))
	}
	for id := range r.mgr.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			for _, e := range r.mgr.tables[id].inputs[d] {
				if e.built {
					t.Fatalf("leaked entry at router %d port %v after conflict", id, d)
				}
			}
		}
	}
}

func TestProbeStressNoCorruption(t *testing.T) {
	// Many overlapping probe transactions: everything delivers and the
	// wormhole invariants hold (the assertions would panic otherwise).
	r := newProbeRig(t, 4, 4, 7)
	markReplyEligible(r)
	for src := mesh.NodeID(0); int(src) < r.m.Nodes(); src++ {
		for k := 0; k < 3; k++ {
			if int(src) != 5 {
				r.probeRequest(src, 5, 5)
			}
		}
	}
	r.runQuiet(60000)
	if len(r.replies) != 45 {
		t.Fatalf("delivered %d replies, want 45", len(r.replies))
	}
	st := &r.mgr.Stats
	if st.ProbesSent != 45 {
		t.Fatalf("probes sent %d", st.ProbesSent)
	}
	if st.Replies[OutcomeCircuit]+st.Replies[OutcomeFailed] != 45 {
		t.Fatalf("classification mismatch: %+v", st.Replies)
	}
}

func TestProbeOptionsValidation(t *testing.T) {
	bad := []Options{
		{Mechanism: MechProbe},
		{Mechanism: MechProbe, MaxCircuitsPerPort: 5, Timed: true},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad probe options %d accepted", i)
		}
	}
	good := probeOpts()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid probe options rejected: %v", err)
	}
	if good.Mechanism.String() != "probe-setup" {
		t.Fatal("mechanism name")
	}
}

func TestSpeculativeRouterOptionValidation(t *testing.T) {
	good := Options{Mechanism: MechSpeculative}
	if err := good.Validate(); err != nil {
		t.Fatalf("speculative baseline rejected: %v", err)
	}
	if good.Enabled() {
		t.Fatal("the speculative router builds circuits")
	}
	bad := Options{Mechanism: MechSpeculative, MaxCircuitsPerPort: 5, NoAck: true}
	if err := bad.Validate(); err == nil {
		t.Fatal("speculation + circuits accepted")
	}
	cfg := NetConfigFor(mesh.New(4, 4), good)
	if !cfg.Speculative {
		t.Fatal("NetConfigFor dropped the speculative flag")
	}
}
