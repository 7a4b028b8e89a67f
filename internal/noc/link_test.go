package noc

import "testing"

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
	l.Send(Credit{VN: 0, VC: 1}, 5)
	l.Send(Credit{VN: 1, VC: 0}, 5)
	if _, ok := l.Recv(6); ok {
		t.Fatal("credits visible too early")
	}
	var got []Credit
	for {
		c, ok := l.Recv(7)
		if !ok {
			break
		}
		got = append(got, c)
	}
	if len(got) != 2 {
		t.Fatalf("got %d credits, want 2", len(got))
	}
	if got[0].VC != 1 || got[1].VN != 1 {
		t.Fatalf("credit order/content wrong: %+v", got)
	}
	if l.Busy() {
		t.Fatal("drained credit link busy")
	}
}
