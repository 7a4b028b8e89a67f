package noc

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

func TestLinkDelay(t *testing.T) {
	l := &Link{}
	f := &Flit{}
	l.Send(f, 10)
	if l.Recv(10) != nil || l.Recv(11) != nil {
		t.Fatal("flit visible too early")
	}
	if got := l.Recv(12); got != f {
		t.Fatal("flit not visible at send+2")
	}
	if l.Recv(13) != nil {
		t.Fatal("flit delivered twice")
	}
}

func TestLinkOrdering(t *testing.T) {
	l := &Link{}
	a, b := &Flit{Seq: 0}, &Flit{Seq: 1}
	l.Send(a, 1)
	l.Send(b, 2)
	if got := l.Recv(3); got != a {
		t.Fatal("first flit should arrive first")
	}
	if got := l.Recv(4); got != b {
		t.Fatal("second flit should arrive second")
	}
}

func TestLinkDoubleDrivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double drive")
		}
	}()
	l := &Link{}
	l.Send(&Flit{}, 5)
	l.Send(&Flit{}, 5)
}

func TestLinkBusy(t *testing.T) {
	l := &Link{}
	if l.Busy() {
		t.Fatal("fresh link busy")
	}
	l.Send(&Flit{}, 0)
	if !l.Busy() {
		t.Fatal("link with in-flight flit not busy")
	}
	l.Recv(2)
	if l.Busy() {
		t.Fatal("drained link still busy")
	}
}

func TestCreditLinkBatching(t *testing.T) {
	l := &CreditLink{}
	a, b := UndoToken{Block: 0x40}, UndoToken{Block: 0x80}
	l.Send(a, 5)
	l.Send(b, 5)
	if _, ok := l.Recv(6); ok {
		t.Fatal("undo tokens visible too early")
	}
	var got []UndoToken
	for tok, ok := l.Recv(7); ok; tok, ok = l.Recv(7) {
		got = append(got, tok)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("undo tokens %v, want both in send order", got)
	}
	if l.q.Len() != 0 {
		t.Fatal("drained credit link still holds tokens")
	}
}

// TestCreditLandsAfterLinkDelay: a buffer credit returned in cycle t is not
// in its upstream counter during cycle t+1 and is there in cycle t+2 — the
// latency of the credit wire it replaces — although the router or NI that
// owns the counter sleeps throughout.
func TestCreditLandsAfterLinkDelay(t *testing.T) {
	for _, tc := range []struct {
		name     string
		upstream func(*Network) (*int32, sim.Component)
	}{
		{"router to NI", func(n *Network) (*int32, sim.Component) {
			return &n.NI(0).credits[VNRequest][0], n.NI(0)
		}},
		{"router to router", func(n *Network) (*int32, sim.Component) {
			r := n.Router(0)
			return &r.outs[r.vcAt(mesh.East, VNRequest, 0)].credits, r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(BaselineConfig(mesh.New(3, 1)), nil, nil)
			counter, owner := tc.upstream(h.net)
			h.net.Send(msg(0, 2, VNRequest, 1), 0)
			returned := func() bool {
				for _, c := range h.net.credits.prev {
					if c == counter {
						return true
					}
				}
				return false
			}
			for !returned() {
				if h.kernel.Now() > 50 {
					t.Fatal("no credit returned to the upstream counter")
				}
				h.kernel.Step()
			}
			sent := h.kernel.Now() - 1
			if !owner.Quiescent() {
				t.Fatalf("upstream still busy when its credit was returned in cycle %d", sent)
			}
			// The counter as cycle sent+1 reads it.
			if want := int32(h.net.cfg.BufDepth - 1); *counter != want {
				t.Fatalf("credit returned in cycle %d visible in cycle %d (counter %d, want %d)",
					sent, sent+1, *counter, want)
			}
			h.kernel.Step() // cycle sent+1; then the counter as sent+2 reads it
			if want := int32(h.net.cfg.BufDepth); *counter != want {
				t.Fatalf("credit returned in cycle %d not visible in cycle %d (counter %d, want %d)",
					sent, sent+2, *counter, want)
			}
			if !owner.Quiescent() {
				t.Fatal("a landed credit woke its upstream")
			}
		})
	}
}
