package noc

import (
	"testing"
	"testing/quick"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// harness drives a network and collects deliveries.
type harness struct {
	net       *Network
	kernel    *sim.Kernel
	delivered []*Message
}

func newHarness(cfg NetConfig, handler CircuitHandler, hook NIHook) *harness {
	h := &harness{net: NewNetwork(cfg, handler, hook), kernel: sim.NewKernel()}
	for id := mesh.NodeID(0); int(id) < cfg.Mesh.Nodes(); id++ {
		h.net.NI(id).SetReceiver(func(m *Message, now sim.Cycle) {
			h.delivered = append(h.delivered, m)
		})
	}
	h.kernel.Register(h.net)
	return h
}

func (h *harness) runUntilQuiet(t *testing.T, horizon sim.Cycle) {
	t.Helper()
	_, ok := h.kernel.RunUntil(h.net.Quiescent, horizon)
	if !ok {
		t.Fatalf("network not quiescent after %d cycles (%d delivered)", horizon, len(h.delivered))
	}
}

func msg(src, dst mesh.NodeID, vn, size int) *Message {
	return &Message{Src: src, Dst: dst, VN: vn, Size: size}
}

// minLatency is the contention-free end-to-end latency from head injection
// to tail delivery: 5 cycles per router (4 pipeline stages + link) for each
// of hops+1 routers, plus the injection link, plus size-1 cycles of
// pipelined body flits.
func minLatency(m mesh.Mesh, src, dst mesh.NodeID, size int) sim.Cycle {
	h := sim.Cycle(m.Hops(src, dst))
	return 5*(h+1) + 2 + sim.Cycle(size-1)
}

func TestSingleFlitLatencyExact(t *testing.T) {
	m := mesh.New(4, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	mg := msg(0, 3, VNRequest, 1)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 200)
	if len(h.delivered) != 1 {
		t.Fatalf("delivered %d messages", len(h.delivered))
	}
	want := minLatency(m, 0, 3, 1) // 3 hops: 5*4+2 = 22
	if got := mg.DeliveredAt - mg.InjectedAt; got != want {
		t.Fatalf("latency %d, want %d", got, want)
	}
	if mg.InjectedAt != mg.EnqueuedAt {
		t.Fatalf("uncontended injection should be immediate: enq %d inj %d", mg.EnqueuedAt, mg.InjectedAt)
	}
}

func TestFiveFlitMessageLatency(t *testing.T) {
	m := mesh.New(4, 4)
	h := newHarness(BaselineConfig(m), nil, nil)
	mg := msg(0, 15, VNReply, 5)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 300)
	want := minLatency(m, 0, 15, 5) // 6 hops: 5*7+2+4 = 41
	if got := mg.DeliveredAt - mg.InjectedAt; got != want {
		t.Fatalf("latency %d, want %d", got, want)
	}
}

func TestOneHopLatency(t *testing.T) {
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	mg := msg(0, 1, VNRequest, 1)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 100)
	if got, want := mg.DeliveredAt-mg.InjectedAt, minLatency(m, 0, 1, 1); got != want {
		t.Fatalf("one-hop latency %d, want %d", got, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := mesh.New(2, 2)
	h := newHarness(BaselineConfig(m), nil, nil)
	mg := msg(2, 2, VNRequest, 5)
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 10)
	if len(h.delivered) != 1 {
		t.Fatal("local message not delivered")
	}
	if mg.DeliveredAt != 1 {
		t.Fatalf("local delivery at %d, want 1", mg.DeliveredAt)
	}
	if h.net.Events().LinkFlits != 0 {
		t.Fatal("local message must not touch the network")
	}
}

func TestManyToOneAllDelivered(t *testing.T) {
	m := mesh.New(4, 4)
	h := newHarness(BaselineConfig(m), nil, nil)
	n := 0
	for src := mesh.NodeID(0); int(src) < m.Nodes(); src++ {
		if src == 5 {
			continue
		}
		h.net.Send(msg(src, 5, VNReply, 5), 0)
		h.net.Send(msg(src, 5, VNRequest, 1), 0)
		n += 2
	}
	h.runUntilQuiet(t, 5000)
	if len(h.delivered) != n {
		t.Fatalf("delivered %d of %d", len(h.delivered), n)
	}
}

func TestWormholeFlitOrder(t *testing.T) {
	// Two 5-flit messages from the same source to the same destination
	// must arrive fully and in order.
	m := mesh.New(4, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	a, b := msg(0, 3, VNReply, 5), msg(0, 3, VNReply, 5)
	h.net.Send(a, 0)
	h.net.Send(b, 0)
	h.runUntilQuiet(t, 500)
	if len(h.delivered) != 2 {
		t.Fatalf("delivered %d", len(h.delivered))
	}
	if a.DeliveredAt >= b.DeliveredAt {
		t.Fatalf("same-NI messages reordered: a@%d b@%d", a.DeliveredAt, b.DeliveredAt)
	}
}

func TestVNIsolation(t *testing.T) {
	// Heavy reply traffic must not starve requests forever (separate VNs).
	m := mesh.New(4, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	for i := 0; i < 10; i++ {
		h.net.Send(msg(0, 3, VNReply, 5), 0)
	}
	req := msg(0, 3, VNRequest, 1)
	h.net.Send(req, 0)
	h.runUntilQuiet(t, 2000)
	if req.DeliveredAt == 0 {
		t.Fatal("request starved")
	}
	// The request shares only the physical links; it should not wait for
	// all 10 replies to fully drain.
	last := h.delivered[len(h.delivered)-1]
	if req == last {
		t.Fatal("request delivered dead last despite separate VN")
	}
}

func TestOppositeDirectionsShareNothing(t *testing.T) {
	m := mesh.New(2, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	a, b := msg(0, 1, VNRequest, 1), msg(1, 0, VNRequest, 1)
	h.net.Send(a, 0)
	h.net.Send(b, 0)
	h.runUntilQuiet(t, 100)
	want := minLatency(m, 0, 1, 1)
	if a.DeliveredAt-a.InjectedAt != want || b.DeliveredAt-b.InjectedAt != want {
		t.Fatalf("opposite flows interfered: %d and %d, want %d",
			a.DeliveredAt-a.InjectedAt, b.DeliveredAt-b.InjectedAt, want)
	}
}

func TestRandomTrafficProperty(t *testing.T) {
	// Property: under random traffic, every message is delivered, and no
	// message beats the contention-free minimum latency.
	m := mesh.New(4, 4)
	check := func(seed uint32) bool {
		rng := sim.NewRNG(uint64(seed))
		h := newHarness(BaselineConfig(m), nil, nil)
		var msgs []*Message
		for i := 0; i < 40; i++ {
			src := mesh.NodeID(rng.Intn(m.Nodes()))
			dst := mesh.NodeID(rng.Intn(m.Nodes()))
			vn := rng.Intn(NumVNs)
			size := 1
			if rng.Bool(0.5) {
				size = 5
			}
			mg := msg(src, dst, vn, size)
			msgs = append(msgs, mg)
			h.net.Send(mg, 0)
		}
		if _, ok := h.kernel.RunUntil(h.net.Quiescent, 20000); !ok {
			return false
		}
		if len(h.delivered) != len(msgs) {
			return false
		}
		for _, mg := range msgs {
			if mg.Src == mg.Dst {
				continue
			}
			if mg.DeliveredAt-mg.InjectedAt < minLatency(m, mg.Src, mg.Dst, mg.Size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPowerEventsAccumulate(t *testing.T) {
	m := mesh.New(4, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	h.net.Send(msg(0, 3, VNRequest, 1), 0)
	h.runUntilQuiet(t, 200)
	ev := h.net.Events()
	// 4 routers on the path, each buffers and reads the flit once.
	if ev.BufWrites != 4 || ev.BufReads != 4 {
		t.Fatalf("buffer events %d/%d, want 4/4", ev.BufWrites, ev.BufReads)
	}
	if ev.XbarTraversals != 4 {
		t.Fatalf("xbar traversals %d, want 4", ev.XbarTraversals)
	}
	// Link flits: injection + 3 inter-router (ejection to NI is local wiring).
	if ev.LinkFlits != 4 {
		t.Fatalf("link flits %d, want 4", ev.LinkFlits)
	}
	if ev.VAActivity != 4 || ev.SAActivity != 4 {
		t.Fatalf("allocator events %d/%d, want 4/4", ev.VAActivity, ev.SAActivity)
	}
}

func TestQuiescentInitially(t *testing.T) {
	h := newHarness(BaselineConfig(mesh.New(2, 2)), nil, nil)
	if !h.net.Quiescent() {
		t.Fatal("fresh network should be quiescent")
	}
}

func TestNetConfigValidate(t *testing.T) {
	good := BaselineConfig(mesh.New(4, 4))
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
	bad := good
	bad.BufDepth = 0
	if bad.Validate() == nil {
		t.Fatal("zero buffer depth accepted")
	}
	bad = good
	bad.ReplyCircuitVCs = 2 // would leave no non-circuit reply VC
	if bad.Validate() == nil {
		t.Fatal("all-circuit reply VN accepted")
	}
	bad = good
	bad.VCsPerVN[0] = 0
	if bad.Validate() == nil {
		t.Fatal("zero VCs accepted")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := BaselineConfig(mesh.New(4, 4))
	cfg.VCsPerVN = [NumVNs]int{2, 3}
	cfg.ReplyCircuitVCs = 2
	cfg.CircuitVCUnbuffered = false
	if cfg.CircuitVC() != 1 {
		t.Fatalf("CircuitVC = %d, want 1", cfg.CircuitVC())
	}
	if !cfg.IsCircuitVC(VNReply, 1) || !cfg.IsCircuitVC(VNReply, 2) || cfg.IsCircuitVC(VNReply, 0) {
		t.Fatal("IsCircuitVC wrong")
	}
	if cfg.IsCircuitVC(VNRequest, 1) {
		t.Fatal("request VN has no circuit VCs")
	}
	if cfg.AllocatableVCs(VNReply) != 1 || cfg.AllocatableVCs(VNRequest) != 2 {
		t.Fatal("AllocatableVCs wrong")
	}
	cfg.CircuitVCUnbuffered = true
	if cfg.VCBuffered(VNReply, 1) || !cfg.VCBuffered(VNReply, 0) || !cfg.VCBuffered(VNRequest, 1) {
		t.Fatal("VCBuffered wrong")
	}
	base := BaselineConfig(mesh.New(2, 2))
	if base.CircuitVC() != -1 {
		t.Fatal("baseline should have no circuit VC")
	}
}

// spyHandler records reservation-walk callbacks without ever bypassing.
type spyHandler struct {
	calls []spyCall
}

type spyCall struct {
	id      mesh.NodeID
	in, out mesh.Dir
	at      sim.Cycle
}

func (s *spyHandler) OnRequestVA(id mesh.NodeID, m *Message, in, out mesh.Dir, now sim.Cycle) {
	s.calls = append(s.calls, spyCall{id: id, in: in, out: out, at: now})
}
func (s *spyHandler) Bypass(mesh.NodeID, *Flit, mesh.Dir, sim.Cycle) (mesh.Dir, int, bool) {
	return 0, 0, false
}
func (s *spyHandler) Release(mesh.NodeID, *Flit, mesh.Dir, sim.Cycle) {}
func (s *spyHandler) OnUndo(mesh.NodeID, *UndoToken, mesh.Dir, sim.Cycle) (mesh.Dir, bool) {
	return 0, false
}
func (s *spyHandler) BypassBuffered() bool { return false }

// TestReservationWalkVisitsEveryRouter verifies the OnRequestVA hook fires
// exactly once per router on the request's XY path, with the in/out ports
// the reply will traverse in reverse.
func TestReservationWalkVisitsEveryRouter(t *testing.T) {
	m := mesh.New(4, 4)
	cfg := BaselineConfig(m)
	cfg.RepRouting = mesh.RouteYX
	spy := &spyHandler{}
	h := newHarness(cfg, spy, nil)
	src, dst := m.Node(0, 0), m.Node(2, 2)
	mg := msg(src, dst, VNRequest, 1)
	mg.WantCircuit = true
	mg.Block = 0x40
	h.net.Send(mg, 0)
	h.runUntilQuiet(t, 500)

	path := m.Path(mesh.RouteXY, src, dst)
	if len(spy.calls) != len(path) {
		t.Fatalf("OnRequestVA fired %d times, want %d", len(spy.calls), len(path))
	}
	for i, c := range spy.calls {
		if c.id != path[i] {
			t.Fatalf("call %d at router %d, want %d", i, c.id, path[i])
		}
		wantIn := mesh.Local
		if i > 0 {
			wantIn = m.NextDir(mesh.RouteXY, path[i-1], dst).Opposite()
		}
		wantOut := mesh.Local
		if i < len(path)-1 {
			wantOut = m.NextDir(mesh.RouteXY, path[i], dst)
		}
		if c.in != wantIn || c.out != wantOut {
			t.Fatalf("call %d ports in=%v out=%v, want %v/%v", i, c.in, c.out, wantIn, wantOut)
		}
		if i > 0 && c.at <= spy.calls[i-1].at {
			t.Fatalf("reservations not time-ordered: %d then %d", spy.calls[i-1].at, c.at)
		}
	}
}

// TestNonCircuitRequestSkipsHook checks requests without WantCircuit never
// trigger reservations.
func TestNonCircuitRequestSkipsHook(t *testing.T) {
	m := mesh.New(4, 4)
	spy := &spyHandler{}
	h := newHarness(BaselineConfig(m), spy, nil)
	h.net.Send(msg(0, 15, VNRequest, 1), 0)
	h.runUntilQuiet(t, 500)
	if len(spy.calls) != 0 {
		t.Fatalf("hook fired %d times for a non-circuit request", len(spy.calls))
	}
}

func TestSendPanicsOutsideMesh(t *testing.T) {
	h := newHarness(BaselineConfig(mesh.New(2, 2)), nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.net.Send(msg(0, 99, VNRequest, 1), 0)
}

func TestQueueingLatencyMeasured(t *testing.T) {
	// Saturate one NI so later messages wait in the injection queue.
	m := mesh.New(4, 1)
	h := newHarness(BaselineConfig(m), nil, nil)
	var last *Message
	for i := 0; i < 8; i++ {
		last = msg(0, 3, VNReply, 5)
		h.net.Send(last, 0)
	}
	h.runUntilQuiet(t, 3000)
	if q := last.InjectedAt - last.EnqueuedAt; q <= 0 {
		t.Fatalf("queueing latency %d, want > 0", q)
	}
}

func TestAccessorsAndEventAdd(t *testing.T) {
	h := newHarness(BaselineConfig(mesh.New(2, 2)), nil, nil)
	if h.net.Config().BufDepth != 5 {
		t.Fatal("Config accessor")
	}
	if h.net.Router(1).ID() != 1 || h.net.NI(2).ID() != 2 {
		t.Fatal("ID accessors")
	}
}

func TestSendFrontLocalFallsThrough(t *testing.T) {
	h := newHarness(BaselineConfig(mesh.New(2, 2)), nil, nil)
	mg := msg(1, 1, VNReply, 1)
	h.net.NI(1).SendFront(mg, 0)
	h.runUntilQuiet(t, 50)
	if !mg.LocalHop || len(h.delivered) != 1 {
		t.Fatal("local SendFront should deliver locally")
	}
}
