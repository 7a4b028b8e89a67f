package cpu

import (
	"slices"
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

func (s *scriptStream) ComputeRun(max int64) int64 {
	var n int64
	for ; n < max; n++ {
		if s.i == len(s.ops) {
			return max // compute forever
		}
		if s.ops[s.i].Kind != OpCompute {
			break
		}
		s.i++
	}
	return n
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
	k.Add(tickOne{c})
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

// tickOne ticks the core every cycle, asleep or not.
type tickOne struct{ c *Core }

func (tk tickOne) Tick(now sim.Cycle) { tk.c.Tick(now) }
func (tickOne) Quiescent() bool       { return false }

func TestMissStallsAndResumes(t *testing.T) {
	sys, k := testSystem(t)
	st := &scriptStream{ops: []Op{
		{Kind: OpLoad, Addr: 3 * 64}, // remote bank: a real miss
		{Kind: OpCompute},
	}}
	c := New(0, sys.L1s[0], st, 2)
	k.Add(tickOne{c})
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
	k.Add(tickOne{c})
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
	k.Add(tickOne{c})
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
	k.Add(tickOne{c})
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
	k.Add(tickOne{c})
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

// TestStalledCoreSleeps: a stalled core sleeps until its miss completes and
// is credited the whole stall at once, so it reads exactly as a core ticked
// every cycle (tickOne) — mid-stall through the registry and at the end —
// for fewer kernel ticks.
func TestStalledCoreSleeps(t *testing.T) {
	type obs struct{ mid, stalls, ticks int64 }
	run := func(sparse bool) obs {
		sys, k := testSystem(t)
		st := &scriptStream{ops: []Op{{Kind: OpLoad, Addr: 3 * 64}}} // remote bank: misses at cycle 0
		c := New(0, sys.L1s[0], st, 2)
		reg := sim.NewRegistry()
		c.Describe(reg)
		if sparse {
			c.SetWaker(k.Add(c))
		} else {
			k.Add(tickOne{c})
		}
		k.Run(5)
		if !c.stalled || !c.Quiescent() {
			t.Fatalf("sparse=%v: the core should sleep on its miss (stalled=%v)", sparse, c.stalled)
		}
		o := obs{mid: reg.Snapshot(k.Now()).Value("core/stall_cycles")}
		if _, ok := k.RunUntil(c.Done, 10000); !ok {
			t.Fatalf("sparse=%v: the core never finished", sparse)
		}
		o.stalls, o.ticks = c.StallCycles, k.Ticks()
		return o
	}
	sparse, every := run(true), run(false)
	if sparse.mid != 5 || every.mid != 5 {
		t.Fatalf("stall read after cycles 0-4 = %d (sparse) and %d (every cycle), want 5", sparse.mid, every.mid)
	}
	if sparse.stalls != every.stalls || sparse.stalls <= 5 {
		t.Fatalf("StallCycles = %d (sparse) vs %d (every cycle)", sparse.stalls, every.stalls)
	}
	if sparse.ticks >= every.ticks {
		t.Fatalf("sparse run took %d ticks, every-cycle run %d: the stalled core did not sleep", sparse.ticks, every.ticks)
	}
}

// TestComputeRunSleeps: a core sleeps through each compute run — one longer
// than the kernel wheel's reach, and a last one that reaches the
// retirement limit — and reads exactly as a core ticked every cycle: the
// registry's core/retired after every cycle, FinishedAt and the counters,
// for far fewer kernel ticks.
func TestComputeRunSleeps(t *testing.T) {
	type obs struct {
		retired              []int64
		finished             sim.Cycle
		loads, stores, ticks int64
	}
	run := func(sparse bool) obs {
		// Hits need no controller tick: the kernel holds the core alone.
		sys, k := coherence.NewSystem(mesh.New(2, 2), core.Options{}, 4), sim.NewKernel()
		sys.Prefill(cache.Addr(3*64), 0, true)
		var ops []Op
		for range 40 {
			ops = append(ops, Op{Kind: OpCompute})
		}
		ops = append(ops, Op{Kind: OpLoad, Addr: 3 * 64}, Op{Kind: OpCompute}, Op{Kind: OpCompute},
			Op{Kind: OpStore, Addr: 3 * 64})
		c := New(0, sys.L1s[0], &scriptStream{ops: ops}, 50)
		reg := sim.NewRegistry()
		c.Describe(reg)
		if sparse {
			c.SetWaker(k.Add(c))
		} else {
			k.Add(tickOne{c})
		}
		var o obs
		for !c.Done() && k.Now() < 100 {
			k.Step()
			o.retired = append(o.retired, reg.Snapshot(k.Now()).Value("core/retired"))
		}
		o.finished, o.loads, o.stores, o.ticks = c.FinishedAt, c.Loads, c.Stores, k.Ticks()
		return o
	}
	sparse, every := run(true), run(false)
	if !slices.Equal(sparse.retired, every.retired) {
		t.Fatalf("core/retired after each cycle:\nsparse %v\nevery  %v", sparse.retired, every.retired)
	}
	if sparse.finished != 49 || every.finished != 49 || sparse.retired[len(sparse.retired)-1] != 50 {
		t.Fatalf("finished at %d (sparse) and %d (every cycle) with %v retired, want 50 ops by cycle 49",
			sparse.finished, every.finished, sparse.retired)
	}
	if sparse.loads != 1 || sparse.stores != 1 || every.loads != 1 || every.stores != 1 {
		t.Fatalf("loads/stores %d/%d (sparse), %d/%d (every cycle)", sparse.loads, sparse.stores, every.loads, every.stores)
	}
	// Cycle 0 plans the first run, 32 re-sleeps at the wheel's reach, 40
	// and 43 issue the hits and plan the next runs, 49 retires the last op.
	if sparse.ticks != 5 || every.ticks != 50 {
		t.Fatalf("the core took %d ticks asleep and %d ticked every cycle, want 5 and 50", sparse.ticks, every.ticks)
	}
}

// TestRecycledCoreMatchesFresh: Init over a core abandoned mid-miss, with
// a recorder, a done sink, a waker and counters of its own, builds one that
// runs its new stream exactly as New's does, and reports to none of what
// the old core was wired to.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	script := func() *scriptStream {
		return &scriptStream{ops: []Op{
			{Kind: OpCompute}, {Kind: OpLoad, Addr: 3 * 64}, {Kind: OpCompute},
			{Kind: OpStore, Addr: 3 * 64}, {Kind: OpLoad, Addr: 2 * 64},
		}}
	}
	run := func(c *Core, k *sim.Kernel) [6]int64 {
		c.SetWaker(k.Add(c))
		k.Run(2000)
		return [6]int64{c.Retired, c.Loads, c.Stores, c.Misses, c.StallCycles, c.FinishedAt}
	}
	sys, k := testSystem(t)
	want := run(New(0, sys.L1s[0], script(), 6), k)

	old, oldK := testSystem(t)
	c := New(1, old.L1s[1], script(), 6)
	rec, done := &opLog{}, 0
	c.SetRecorder(rec)
	c.SetDoneSink(func() { done++ })
	c.SetWaker(oldK.Add(c))
	oldK.Run(4)
	if !c.stalled {
		t.Fatal("the abandoned core is not mid-miss")
	}
	logged := len(rec.ops)

	sys, k = testSystem(t)
	if got := run(c.Init(0, sys.L1s[0], script(), 6), k); got != want {
		t.Fatalf("rebuilt core ran to %v, a new one to %v", got, want)
	}
	if len(rec.ops) != logged || done != 0 {
		t.Fatalf("the rebuilt core reported to its old recorder (%d ops, was %d) or done sink (%d)", len(rec.ops), logged, done)
	}
}
