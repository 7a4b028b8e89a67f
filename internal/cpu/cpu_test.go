package cpu

import (
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// scriptStream replays a fixed op list, then computes forever.
type scriptStream struct {
	ops []Op
	i   int
}

func (s *scriptStream) Next() Op {
	if s.i < len(s.ops) {
		op := s.ops[s.i]
		s.i++
		return op
	}
	return Op{Kind: OpCompute}
}

func testSystem(t *testing.T) (*coherence.System, *sim.Kernel) {
	t.Helper()
	sys := coherence.NewSystem(mesh.New(2, 2), core.Options{}, 4)
	k := sim.NewKernel()
	sys.Register(k)
	return sys, k
}

func TestComputeOpsRetireOnePerCycle(t *testing.T) {
	sys, k := testSystem(t)
	st := &scriptStream{}
	c := New(0, sys.L1s[0], st, 10)
	k.Register(tickOne{c})
	k.Run(10)
	if !c.Done() || c.Retired != 10 {
		t.Fatalf("retired %d done=%v after 10 cycles", c.Retired, c.Done())
	}
	if c.FinishedAt != 9 {
		t.Fatalf("finished at %d, want 9", c.FinishedAt)
	}
	if c.StallCycles != 0 {
		t.Fatalf("pure compute stalled %d cycles", c.StallCycles)
	}
}

type tickOne struct{ c *Core }

func (tk tickOne) Tick(now sim.Cycle) { tk.c.Tick(now) }

func TestMissStallsAndResumes(t *testing.T) {
	sys, k := testSystem(t)
	st := &scriptStream{ops: []Op{
		{Kind: OpLoad, Addr: 3 * 64}, // remote bank: a real miss
		{Kind: OpCompute},
	}}
	c := New(0, sys.L1s[0], st, 2)
	k.Register(tickOne{c})
	k.RunUntil(func() bool { return c.Done() }, 10000)
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Misses != 1 || c.Loads != 1 {
		t.Fatalf("misses=%d loads=%d", c.Misses, c.Loads)
	}
	if c.StallCycles == 0 {
		t.Fatal("a miss must stall the core")
	}
	// Second access to the same line hits.
	st2 := &scriptStream{ops: []Op{{Kind: OpLoad, Addr: 3 * 64}}}
	c2 := New(1, sys.L1s[1], st2, 1)
	_ = c2
}

func TestHitDoesNotStall(t *testing.T) {
	sys, k := testSystem(t)
	// Pre-warm the line into L1 and L2.
	sys.Prefill(cache.Addr(3*64), 0, true)
	st := &scriptStream{ops: []Op{
		{Kind: OpLoad, Addr: 3 * 64},
		{Kind: OpStore, Addr: 3 * 64},
	}}
	c := New(0, sys.L1s[0], st, 2)
	k.Register(tickOne{c})
	k.Run(2)
	if !c.Done() {
		t.Fatalf("two hits should retire in two cycles (retired %d)", c.Retired)
	}
	if c.StallCycles != 0 || c.Misses != 0 {
		t.Fatalf("hits stalled: stalls=%d misses=%d", c.StallCycles, c.Misses)
	}
	if c.Stores != 1 || c.Loads != 1 {
		t.Fatalf("loads=%d stores=%d", c.Loads, c.Stores)
	}
}

func TestResetStatsExtendsBudget(t *testing.T) {
	sys, k := testSystem(t)
	c := New(0, sys.L1s[0], &scriptStream{}, 5)
	k.Register(tickOne{c})
	k.Run(5)
	if !c.Done() {
		t.Fatal("should be done after 5")
	}
	c.ResetStats(3)
	if c.Done() {
		t.Fatal("reset should reopen the budget")
	}
	k.Run(3)
	if !c.Done() || c.Retired != 8 {
		t.Fatalf("retired %d, want 8", c.Retired)
	}
}

func TestDoneCoreIgnoresTicks(t *testing.T) {
	sys, k := testSystem(t)
	c := New(0, sys.L1s[0], &scriptStream{}, 1)
	k.Register(tickOne{c})
	k.Run(10)
	if c.Retired != 1 {
		t.Fatalf("done core kept retiring: %d", c.Retired)
	}
}

// opLog records every operation the core consumes, with its cycle.
type opLog struct {
	cores  []int
	cycles []sim.Cycle
	ops    []Op
}

func (l *opLog) Record(core int, now sim.Cycle, op Op) {
	l.cores = append(l.cores, core)
	l.cycles = append(l.cycles, now)
	l.ops = append(l.ops, op)
}

func TestRecorderSeesEveryConsumedOp(t *testing.T) {
	sys, k := testSystem(t)
	st := &scriptStream{ops: []Op{
		{Kind: OpCompute},
		{Kind: OpLoad, Addr: 3 * 64},  // remote bank: a real miss, stalls
		{Kind: OpStore, Addr: 3 * 64}, // now cached: hits
	}}
	c := New(7, sys.L1s[0], st, 4)
	rec := &opLog{}
	c.SetRecorder(rec)
	done := 0
	c.SetDoneSink(func() { done++ })
	reg := sim.NewRegistry()
	c.Describe(reg)
	k.Register(tickOne{c})
	k.RunUntil(func() bool { return c.Done() }, 10000)
	if !c.Done() {
		t.Fatalf("core never finished (retired %d)", c.Retired)
	}
	if !c.Quiescent() {
		t.Fatal("done core must be quiescent")
	}
	if done != 1 {
		t.Fatalf("done sink fired %d times, want exactly 1", done)
	}
	// The recorder saw one entry per consumed op — the stall cycles the
	// miss burned consume nothing and record nothing.
	if len(rec.ops) != 4 {
		t.Fatalf("recorded %d ops, want 4: %+v", len(rec.ops), rec.ops)
	}
	if int64(len(rec.ops)) != c.Retired {
		t.Fatalf("recorded %d ops but retired %d", len(rec.ops), c.Retired)
	}
	want := []OpKind{OpCompute, OpLoad, OpStore, OpCompute}
	for i, k := range want {
		if rec.ops[i].Kind != k {
			t.Fatalf("op %d kind %v, want %v", i, rec.ops[i].Kind, k)
		}
		if rec.cores[i] != 7 {
			t.Fatalf("op %d recorded for core %d, want 7", i, rec.cores[i])
		}
	}
	if c.StallCycles == 0 {
		t.Fatal("the remote-bank load should have stalled")
	}
	for i := 1; i < len(rec.cycles); i++ {
		if rec.cycles[i] <= rec.cycles[i-1] {
			t.Fatalf("recorded cycles not increasing: %v", rec.cycles)
		}
	}
	if got := reg.Snapshot(k.Now()).Value("core/retired"); got != c.Retired {
		t.Fatalf("registry sees %d retired, core says %d", got, c.Retired)
	}
}
