package sim

// Cycle is a simulation timestamp measured in core clock cycles (2 GHz in
// the modelled chip). Cycles are int64 so arithmetic on windows and
// deadlines can go transiently negative without wrapping.
type Cycle = int64

// Ticker is implemented by every clocked component. The kernel calls Tick
// exactly once per cycle on each registered component.
//
// Components must only *read* state written by other components in earlier
// cycles: all inter-component channels (links, credit wires) are one-cycle
// double-buffered pipelines, which makes the tick order across components
// observationally irrelevant.
type Ticker interface {
	Tick(now Cycle)
}

// Component is a Ticker that reports quiescence. The contract is strict:
// Quiescent() may return true only when the next Tick would be a pure
// no-op — no architectural state, statistic or counter may change when a
// quiescent component ticks. Under that contract the kernel may skip
// sleeping components without perturbing the simulation by a single bit,
// which is exactly what the golden determinism suite asserts.
//
// A component goes back to sleep on its own (the kernel re-checks
// quiescence after every tick); it is revived by a Waker, which whoever
// hands it work — a link delivering a flit, an NI accepting a message, a
// controller queueing a response — must invoke at hand-off time.
type Component interface {
	Ticker
	Quiescent() bool
}

// Waker revives one registered component. The zero Waker is a no-op, so
// components wired outside a kernel (unit tests driving Tick by hand) need
// no special casing. Waking an already-active component is free; waking a
// component whose slot already passed this cycle takes effect next cycle —
// identical to the dense engine, where that component's earlier tick was a
// no-op by the quiescence contract.
type Waker struct {
	k   *Kernel
	idx int
}

// Wake marks the component active so the kernel ticks it again.
func (w Waker) Wake() {
	if w.k != nil {
		w.k.comps[w.idx].active = true
	}
}

// entry is one registered component with its scheduling state.
type entry struct {
	t Ticker
	// c is non-nil for activity-tracked components; nil entries (legacy
	// Register calls) are ticked unconditionally every cycle.
	c      Component
	active bool
}

// Kernel drives a set of Tickers with a shared clock. Components added
// through Add are activity-tracked: the kernel skips them while they are
// quiescent and revives them through their Waker. Components added through
// Register tick every cycle, preserving the original engine's behaviour
// for monolithic tickers.
type Kernel struct {
	now Cycle
	// comps tick in registration order.
	comps []entry
	// dense disables activity skipping: every component ticks every
	// cycle, exactly like the original engine. The golden determinism
	// suite cross-checks dense against sparse execution.
	dense bool
	// ticks counts component ticks actually executed; with the component
	// count and cycle count this yields the scheduler's skip ratio.
	ticks int64
	// epilogues run at the end of every Step — after every component,
	// before the cycle counter advances. The circuit layer drains its deferred
	// cross-tile operations here.
	epilogues []func(Cycle)
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Register adds a component that ticks every cycle.
func (k *Kernel) Register(t Ticker) {
	k.comps = append(k.comps, entry{t: t, active: true})
}

// Add registers an activity-tracked component and returns its Waker.
// Components start active and fall asleep after their first quiescent tick.
func (k *Kernel) Add(c Component) Waker {
	k.comps = append(k.comps, entry{t: c, c: c, active: true})
	return Waker{k: k, idx: len(k.comps) - 1}
}

// AddEpilogue appends f to the per-cycle epilogue chain. Epilogues run at
// the end of every Step, after every component and before the clock advances,
// in sparse and dense mode alike.
func (k *Kernel) AddEpilogue(f func(Cycle)) { k.epilogues = append(k.epilogues, f) }

// SetDense switches the kernel to dense (tick-everything) execution, the
// reference mode the activity tracker is verified against.
func (k *Kernel) SetDense(d bool) { k.dense = d }

// Components returns how many components are registered.
func (k *Kernel) Components() int { return len(k.comps) }

// ActiveCount returns how many registered components are currently awake.
func (k *Kernel) ActiveCount() int {
	n := 0
	for i := range k.comps {
		if k.comps[i].active {
			n++
		}
	}
	return n
}

// Ticks returns the number of component ticks executed since construction.
// Comparing it against Components() × Now() gives the skip ratio the
// activity tracker achieved.
func (k *Kernel) Ticks() int64 { return k.ticks }

// Step advances the simulation by one cycle.
func (k *Kernel) Step() {
	now := k.now
	for i := range k.comps {
		e := &k.comps[i]
		if !e.active && !k.dense {
			continue
		}
		e.t.Tick(now)
		k.ticks++
		if e.c != nil {
			// Re-evaluated after every tick: work the component handed
			// itself keeps it awake; work handed to it by a later-ticking
			// peer sets the flag directly and survives this check because
			// sends only happen after this component's slot.
			e.active = !e.c.Quiescent()
		}
	}
	for _, f := range k.epilogues {
		f(now)
	}
	k.now++
}

// Run advances n cycles.
func (k *Kernel) Run(n Cycle) {
	for i := Cycle(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil advances until done reports true or the horizon is hit,
// returning the cycle count actually simulated and whether done fired.
func (k *Kernel) RunUntil(done func() bool, horizon Cycle) (Cycle, bool) {
	start := k.now
	for k.now-start < horizon {
		if done() {
			return k.now - start, true
		}
		k.Step()
	}
	return k.now - start, done()
}
