package coherence

import (
	"strings"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/noc"
)

func TestMsgTypeProperties(t *testing.T) {
	for mt := MsgGetS; mt < numMsgTypes; mt++ {
		if strings.HasPrefix(mt.String(), "MsgType(") {
			t.Errorf("type %d unnamed", mt)
		}
		if n := mt.SizeFlits(); n != 1 && n != 5 {
			t.Errorf("%v size %d", mt, n)
		}
		if mt.SizeFlits() == 5 && mt != MsgWBData && mt != MsgMemWB &&
			mt != MsgL2Reply && mt != MsgL1ToL1 && mt != MsgInvAckData && mt != MsgMemData {
			t.Errorf("%v should not carry data", mt)
		}
	}
	// Request/reply split matches the virtual-network mapping.
	requests := []MsgType{MsgGetS, MsgGetX, MsgFwd, MsgInv, MsgWBData, MsgMemFetch, MsgMemWB}
	for _, mt := range requests {
		if mt.IsReply() {
			t.Errorf("%v misclassified as reply", mt)
		}
	}
	replies := []MsgType{MsgL2Reply, MsgL1ToL1, MsgDataAck, MsgWBAck, MsgInvAck, MsgInvAckData, MsgMemData, MsgMemAck, MsgFwdMiss}
	for _, mt := range replies {
		if !mt.IsReply() {
			t.Errorf("%v misclassified as request", mt)
		}
	}
}

func TestExpectedReplies(t *testing.T) {
	cases := map[MsgType]struct {
		rep  MsgType
		proc int64
	}{
		MsgGetS:     {MsgL2Reply, int64(L2HitLatency)},
		MsgGetX:     {MsgL2Reply, int64(L2HitLatency)},
		MsgWBData:   {MsgWBAck, int64(L2HitLatency)},
		MsgMemFetch: {MsgMemData, int64(MemLatency)},
		MsgMemWB:    {MsgMemAck, int64(MemLatency)},
	}
	for req, want := range cases {
		rep, proc := req.ExpectedReply()
		if rep != want.rep || int64(proc) != want.proc {
			t.Errorf("%v expects (%v, %d), want (%v, %d)", req, rep, proc, want.rep, want.proc)
		}
		if !req.ReservesCircuit() {
			t.Errorf("%v should reserve a circuit", req)
		}
	}
	if rep, proc := MsgInv.ExpectedReply(); rep != 0 || proc != 0 {
		t.Error("Inv expects no circuit reply")
	}
	for _, mt := range []MsgType{MsgFwd, MsgInv, MsgDataAck, MsgL2Reply} {
		if mt.ReservesCircuit() {
			t.Errorf("%v must not reserve", mt)
		}
	}
}

func TestMsgStatsFractionAndTotals(t *testing.T) {
	var s MsgStats
	s.Network[MsgGetS] = 3
	s.Network[MsgL2Reply] = 6
	s.Network[MsgDataAck] = 3
	total, reqs := s.Totals()
	if total != 12 || reqs != 3 {
		t.Fatalf("totals %d/%d", total, reqs)
	}
	if f := s.Fraction(MsgL2Reply); f != 0.5 {
		t.Fatalf("fraction %v", f)
	}
	var empty MsgStats
	if empty.Fraction(MsgGetS) != 0 {
		t.Fatal("empty fraction should be 0")
	}
	if s.Count(MsgGetS) != 3 {
		t.Fatal("count wrong")
	}
}

func TestLatencyStatsAccessors(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	b.access(0, b.remoteAddr(3, 0), false)
	b.drain()
	if b.sys.Lat.TypeRecord(MsgGetS).Network.N() == 0 {
		t.Fatal("per-type latency not recorded")
	}
	if b.sys.Lat.ReplyPercentile(0.5) == 0 {
		t.Fatal("reply percentile empty after a data reply")
	}
	var empty LatencyStats
	if empty.ReplyPercentile(0.99) != 0 {
		t.Fatal("nil histogram should report 0")
	}
}

func TestResetStatsClearsEverything(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5})
	b.access(0, b.remoteAddr(3, 0), false)
	b.drain()
	total, _ := b.sys.Msgs.Totals()
	if total == 0 {
		t.Fatal("no traffic before reset")
	}
	b.sys.ResetStats()
	total, _ = b.sys.Msgs.Totals()
	if total != 0 {
		t.Fatal("message stats survived reset")
	}
	if b.sys.Lat.Requests.Network.N() != 0 {
		t.Fatal("latency stats survived reset")
	}
	if b.sys.Net.Events().LinkFlits != 0 {
		t.Fatal("power events survived reset")
	}
	if b.sys.Mgr.Stats.ReplyTotal() != 0 {
		t.Fatal("circuit stats survived reset")
	}
	if b.sys.L1s[0].Cache().Misses != 0 {
		t.Fatal("cache counters survived reset")
	}
	// Architectural state must survive: the line is still cached.
	if _, ok := b.sys.L1s[0].Cache().Peek(b.remoteAddr(3, 0)); !ok {
		t.Fatal("reset must not touch cache contents")
	}
}

func TestMemCtrlID(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	for _, mc := range b.sys.MCs {
		if !b.sys.M.Contains(mc.ID()) {
			t.Fatalf("MC on phantom tile %d", mc.ID())
		}
	}
	if len(b.sys.MCs) != 4 {
		t.Fatalf("%d MCs, want 4", len(b.sys.MCs))
	}
}

func TestInvOnWriteBackBufferedLine(t *testing.T) {
	// An invalidation reaching an L1 whose only copy sits in the
	// write-back buffer must answer with the buffered (dirty) data.
	b := newTB(t, 4, 4, core.Options{})
	addr := b.remoteAddr(0, 0)
	b.access(15, addr, true)
	b.drain()
	l1 := b.sys.L1s[15].Cache().Config()
	stride := cache.Addr(l1.Sets() * l1.LineBytes)
	for i := 1; i < l1.Ways; i++ {
		b.sys.Prefill(addr+cache.Addr(i)*stride, 15, true)
		b.access(15, addr+cache.Addr(i)*stride, false)
	}
	b.done[15] = false
	b.sys.L1s[15].Access(addr+cache.Addr(l1.Ways)*stride, false, b.kernel.Now()) // evicts dirty addr
	if _, ok := b.kernel.RunUntil(func() bool {
		_, pending := b.sys.L1s[15].wb[addr]
		return pending
	}, 100000); !ok {
		t.Fatal("write-back never started")
	}
	// A competing writer triggers Inv toward tile 15 while the WB flies.
	b.done[1] = false
	b.sys.L1s[1].Access(addr, true, b.kernel.Now())
	if _, ok := b.kernel.RunUntil(func() bool { return b.done[1] && b.done[15] }, 100000); !ok {
		t.Fatal("accesses did not finish")
	}
	b.drain()
	checkCoherenceInvariants(t, b.sys)
	line, ok := b.sys.L1s[1].Cache().Peek(addr)
	if !ok || line.State != l1M {
		t.Fatal("writer did not end with M")
	}
}

func TestSendRejectsNothing(t *testing.T) {
	// noc.Message construction path: eligible requests carry estimates.
	b := newTB(t, 2, 2, core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5})
	// Snapshot the message at delivery: the bank recycles it once the
	// transaction completes, so holding the pointer would read a zeroed
	// free-list object.
	var seen noc.Message
	b.sys.Net.NI(3).SetReceiver(func(m *noc.Message, now int64) {
		if seen.Type == 0 && m.Type == int(MsgGetS) {
			seen = *m
		}
		b.sys.L2s[3].deliver(m, now)
	})
	b.access(0, b.remoteAddr(3, 0), false)
	b.drain()
	if seen.Type == 0 {
		t.Fatal("GetS not observed")
	}
	if !seen.WantCircuit || seen.ExpectedReplySize != 5 || seen.ExpectedProcDelay != L2HitLatency {
		t.Fatalf("request metadata wrong: %+v", seen)
	}
}

// TestPayloadPackRoundTrip exhaustively checks every flag combination (and
// the requestor-id corners) through Pack/UnpackPayload: the packed uint64
// replaced an interface-boxed payload on the hot path, so any lost bit would
// silently corrupt the protocol.
func TestPayloadPackRoundTrip(t *testing.T) {
	for _, req := range []int{0, 1, 15, 63, 1<<16 - 1} {
		for bits := 0; bits < 1<<6; bits++ {
			p := Payload{
				Requestor:     req,
				Write:         bits&1 != 0,
				Exclusive:     bits&2 != 0,
				Dirty:         bits&4 != 0,
				OwnerKept:     bits&8 != 0,
				NoAck:         bits&16 != 0,
				CircuitUndone: bits&32 != 0,
			}
			if got := UnpackPayload(p.Pack()); got != p {
				t.Fatalf("round trip lost data: %+v -> %#x -> %+v", p, p.Pack(), got)
			}
		}
	}
	// The zero payload must pack to zero: freshly pooled messages carry a
	// zeroed Payload field and must decode as the empty payload.
	if (Payload{}).Pack() != 0 {
		t.Errorf("zero payload packs to %#x, want 0", (Payload{}).Pack())
	}
}
