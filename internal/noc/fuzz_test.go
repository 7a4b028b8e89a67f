package noc

import (
	"fmt"
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// TestFuzzConfigsWithAudit pushes randomized traffic through every network
// configuration shape (baseline, extra reply VC, unbuffered circuit VC
// without a handler is invalid — skip, speculative) and audits conservation
// after the drain. The credit/buffer panics inside the router double as
// in-flight assertions.
func TestFuzzConfigsWithAudit(t *testing.T) {
	shapes := map[string]func(m mesh.Mesh) NetConfig{
		"baseline": BaselineConfig,
		"threeReplyVCs": func(m mesh.Mesh) NetConfig {
			cfg := BaselineConfig(m)
			cfg.VCsPerVN[VNReply] = 3
			return cfg
		},
		"yxReplies": func(m mesh.Mesh) NetConfig {
			cfg := BaselineConfig(m)
			cfg.RepRouting = mesh.RouteYX
			return cfg
		},
		"speculative": specConfig,
		"overtake": func(m mesh.Mesh) NetConfig {
			cfg := BaselineConfig(m)
			cfg.AllowQueueOvertake = true
			return cfg
		},
	}
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for name, mk := range shapes {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(iters); seed++ {
				m := mesh.New(4, 4)
				rng := sim.NewRNG(seed * 977)
				h := newHarness(mk(m), nil, nil)
				n := 0
				// Bursty injection over time, not just at cycle 0.
				for burst := 0; burst < 10; burst++ {
					for i := 0; i < 15; i++ {
						src := mesh.NodeID(rng.Intn(m.Nodes()))
						dst := mesh.NodeID(rng.Intn(m.Nodes()))
						size := 1
						if rng.Bool(0.5) {
							size = 5
						}
						h.net.Send(msg(src, dst, rng.Intn(NumVNs), size), h.kernel.Now())
						if src != dst {
							n++
						} else {
							n++
						}
					}
					h.kernel.Run(sim.Cycle(rng.Intn(40)))
				}
				if _, ok := h.kernel.RunUntil(h.net.Quiescent, 100000); !ok {
					t.Fatalf("seed %d: drain failed", seed)
				}
				if len(h.delivered) != n {
					t.Fatalf("seed %d: delivered %d of %d", seed, len(h.delivered), n)
				}
				if err := h.net.AuditQuiescent(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestAuditCatchesForgedState(t *testing.T) {
	m := mesh.New(2, 2)
	h := newHarness(BaselineConfig(m), nil, nil)
	h.kernel.Run(5)
	r := h.net.Router(0)
	// Forge a stuck flit in a buffer, behind the quiescence bookkeeping's
	// back.
	i := r.vcAt(mesh.Local, VNRequest, 0)
	r.store[i*r.depth] = &Flit{Msg: &Message{ID: 99, Size: 1}, Head: true, Tail: true}
	r.vcs[i].n = 1
	if err := h.net.AuditQuiescent(); err == nil {
		t.Fatal("forged buffered flit not detected")
	}
	r.vcs[i].n, r.store[i*r.depth] = 0, nil
	// Forge a held output VC.
	r.outs[r.vcAt(mesh.East, VNReply, 1)].owned = true
	if err := h.net.AuditQuiescent(); err == nil {
		t.Fatal("forged VC ownership not detected")
	}
	r.outs[r.vcAt(mesh.East, VNReply, 1)].owned = false
	// Forge a missing credit.
	r.outs[r.vcAt(mesh.East, VNRequest, 0)].credits--
	if err := h.net.AuditQuiescent(); err == nil {
		t.Fatal("missing credit not detected")
	}
	r.outs[r.vcAt(mesh.East, VNRequest, 0)].credits++
	if err := h.net.AuditQuiescent(); err != nil {
		t.Fatalf("restored state still failing: %v", err)
	}
}

func TestAuditNameErrors(t *testing.T) {
	// Error strings should carry enough context to debug from logs.
	m := mesh.New(2, 2)
	h := newHarness(BaselineConfig(m), nil, nil)
	r := h.net.Router(3)
	r.outs[r.vcAt(mesh.North, VNReply, 0)].credits = 0
	err := h.net.AuditQuiescent()
	if err == nil {
		t.Fatal("expected an error")
	}
	want := fmt.Sprintf("router %d", 3)
	if !contains(err.Error(), want) || !contains(err.Error(), "credits") {
		t.Fatalf("uninformative audit error: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestDumpStateShowsStuckWork(t *testing.T) {
	m := mesh.New(2, 2)
	h := newHarness(BaselineConfig(m), nil, nil)
	if s := h.net.DumpState(); s != "network idle\n" {
		t.Fatalf("fresh network dump: %q", s)
	}
	h.net.Send(msg(0, 3, VNReply, 5), 0)
	h.kernel.Run(6) // mid-flight
	s := h.net.DumpState()
	if s == "network idle\n" {
		t.Fatal("in-flight traffic not visible in the dump")
	}
	if !contains(s, "router") && !contains(s, "NI") {
		t.Fatalf("dump lacks context: %q", s)
	}
	h.runUntilQuiet(t, 500)
	if s := h.net.DumpState(); s != "network idle\n" {
		t.Fatalf("drained network dump: %q", s)
	}
}
