package sim

import "testing"

type countTicker struct {
	n     int
	seen  []Cycle
	other *countTicker
	diffs []int
}

func (c *countTicker) Tick(now Cycle) {
	c.n++
	c.seen = append(c.seen, now)
	if c.other != nil {
		c.diffs = append(c.diffs, c.other.n-c.n)
	}
}

func TestKernelStepAdvancesClock(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("fresh kernel at cycle %d", k.Now())
	}
	k.Run(10)
	if k.Now() != 10 {
		t.Fatalf("after Run(10) at cycle %d", k.Now())
	}
}

func TestKernelTicksEveryComponentOncePerCycle(t *testing.T) {
	k := NewKernel()
	a, b := &countTicker{}, &countTicker{}
	k.Register(a)
	k.Register(b)
	k.Run(5)
	if a.n != 5 || b.n != 5 {
		t.Fatalf("tick counts a=%d b=%d, want 5", a.n, b.n)
	}
	for i, c := range a.seen {
		if c != Cycle(i) {
			t.Fatalf("a saw cycle %d at step %d", c, i)
		}
	}
}

type tickFunc func(Cycle)

func (f tickFunc) Tick(now Cycle) { f(now) }

// always is an activity-tracked component that never goes quiescent.
type always struct{ tickFunc }

func (always) Quiescent() bool { return false }

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Register(tickFunc(func(Cycle) { n++ }))
	ran, ok := k.RunUntil(func() bool { return n >= 7 }, 100)
	if !ok {
		t.Fatal("RunUntil should have satisfied the predicate")
	}
	if ran != 7 {
		t.Fatalf("ran %d cycles, want 7", ran)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	ran, ok := k.RunUntil(func() bool { return false }, 50)
	if ok {
		t.Fatal("predicate can never be true")
	}
	if ran != 50 {
		t.Fatalf("ran %d cycles, want horizon 50", ran)
	}
	if k.Now() != 50 {
		t.Fatalf("kernel at cycle %d after horizon run, want 50", k.Now())
	}
}

// RunUntil must not step once the predicate holds, and a predicate that
// turns true exactly at the horizon is still reported as done.
func TestRunUntilDoneFiresWithoutStepping(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Register(tickFunc(func(Cycle) { n++ }))
	ran, ok := k.RunUntil(func() bool { return true }, 100)
	if !ok || ran != 0 || n != 0 {
		t.Fatalf("ran=%d ok=%v ticks=%d, want 0/true/0", ran, ok, n)
	}

	ran, ok = k.RunUntil(func() bool { return n >= 5 }, 5)
	if !ok {
		t.Fatal("predicate satisfied exactly at the horizon must report done")
	}
	if ran != 5 || n != 5 {
		t.Fatalf("ran=%d ticks=%d, want 5/5", ran, n)
	}
}

// Components tick in registration order, however always-on (Register) and
// activity-tracked (Add) registrations were interleaved.
func TestInterleavedRegisterKeepsPhaseOrder(t *testing.T) {
	k := NewKernel()
	order := []string{}
	rec := func(name string) tickFunc {
		return func(Cycle) { order = append(order, name) }
	}
	k.Register(rec("r1"))
	k.Add(always{rec("a1")})
	k.Register(rec("r2"))
	k.Add(always{rec("a2")})
	k.Register(rec("r3"))
	k.Step()
	want := []string{"r1", "a1", "r2", "a2", "r3"}
	if len(order) != len(want) {
		t.Fatalf("tick order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
}

// toggler is an activity-tracked component: it works for burst ticks after
// every wake, then reports quiescence.
type toggler struct {
	pending int
	ticks   int
}

func (c *toggler) Tick(Cycle) {
	if c.pending > 0 {
		c.pending--
		c.ticks++
	}
}
func (c *toggler) Quiescent() bool { return c.pending == 0 }

func TestKernelSkipsQuiescentComponents(t *testing.T) {
	k := NewKernel()
	c := &toggler{pending: 3}
	w := k.Add(c)
	k.Run(10)
	if c.ticks != 3 {
		t.Fatalf("component worked %d ticks, want its 3-cycle burst", c.ticks)
	}
	if k.ActiveCount() != 0 {
		t.Fatalf("%d components awake after quiescence", k.ActiveCount())
	}
	// A quiescent component must not be ticked at all (the skip is what
	// the activity tracker buys): 1 registered component x 10 cycles
	// would be 10 ticks dense; quiescence is re-checked after every tick,
	// so the 3-cycle burst costs exactly 3 executed ticks.
	if got := k.Ticks(); got != 3 {
		t.Fatalf("kernel executed %d component ticks, want 3", got)
	}

	w.Wake()
	c.pending = 2
	k.Run(5)
	if c.ticks != 5 {
		t.Fatalf("woken component worked %d ticks total, want 5", c.ticks)
	}
}

// The zero Waker is a no-op so components can run outside a kernel.
func TestZeroWakerIsNoop(t *testing.T) {
	var w Waker
	w.Wake()
}

// Dense mode must tick everything every cycle and still produce the same
// component-visible behaviour.
func TestDenseModeTicksEverything(t *testing.T) {
	k := NewKernel()
	k.SetDense(true)
	c := &toggler{pending: 3}
	k.Add(c)
	k.Run(10)
	if c.ticks != 3 {
		t.Fatalf("dense component worked %d ticks, want 3", c.ticks)
	}
	if got := k.Ticks(); got != 10 {
		t.Fatalf("dense kernel executed %d ticks, want 10", got)
	}
}

// Epilogues run once per Step with the pre-advance cycle value, in sparse
// and dense mode alike — they are where the circuit layer's deferred
// operations live, so a mode that skipped them would diverge.
func TestEpilogueRunsEveryCycleInAllModes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dense bool
	}{{"sparse", false}, {"dense", true}} {
		k := NewKernel()
		k.SetDense(tc.dense)
		var seen []Cycle
		k.AddEpilogue(func(now Cycle) { seen = append(seen, now) })
		k.Add(&toggler{pending: 1})
		k.Run(4)
		if len(seen) != 4 {
			t.Fatalf("%s: epilogue ran %d times over 4 cycles", tc.name, len(seen))
		}
		for i, c := range seen {
			if c != Cycle(i) {
				t.Fatalf("%s: epilogue saw cycle %d at step %d", tc.name, c, i)
			}
		}
	}
}
