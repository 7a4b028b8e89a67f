package sim

import "math/bits"

// Cycle is a simulation timestamp measured in core clock cycles (2 GHz in
// the modelled chip). Cycles are int64 so arithmetic on windows and
// deadlines can go transiently negative without wrapping.
type Cycle = int64

// Component is implemented by every clocked component. The kernel calls
// Tick at most once per cycle, in registration order.
//
// Components must only *read* state written by other components in earlier
// cycles: flit links and undo wires are one-cycle double-buffered
// pipelines, and buffer credits land at the cycle boundary, which makes the
// tick order across components observationally irrelevant.
//
// Quiescent's contract is strict: it may return true only when the next
// Tick would be a pure no-op — no architectural state, statistic or counter
// may change when a quiescent component ticks. Under that contract the
// kernel may skip sleeping components without perturbing the simulation by
// a single bit, which is exactly what the golden determinism suite asserts.
//
// A component goes back to sleep on its own (the kernel re-checks
// quiescence after every tick); it is revived by a Waker, which whoever
// hands it work — a link delivering a flit, an NI accepting a message, a
// controller queueing a response — must invoke at hand-off time.
type Component interface {
	Tick(now Cycle)
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
		w.k.active[w.idx>>6] |= 1 << (w.idx & 63)
	}
}

// Kernel drives a set of Components with a shared clock. It skips a
// component while it is quiescent and revives it through its Waker.
type Kernel struct {
	now Cycle
	// comps tick in registration order.
	comps []Component
	// active holds one bit per component, set while it is awake: bit i&63
	// of word i>>6 for component i.
	active []uint64
	// dense disables activity skipping: every component ticks every
	// cycle, exactly like the original engine. The golden determinism
	// suite cross-checks dense against sparse execution.
	dense bool
	// ticks counts component ticks actually executed; with the component
	// count and cycle count this yields the scheduler's skip ratio.
	ticks int64
	// epilogues run at the end of every Step — after every component,
	// before the cycle counter advances. The network applies the cycle's
	// credits and the circuit layer drains its deferred cross-tile
	// operations here.
	epilogues []func(Cycle)
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Add registers a component and returns its Waker. Components start active
// and fall asleep after their first quiescent tick.
func (k *Kernel) Add(c Component) Waker {
	i := len(k.comps)
	k.comps = append(k.comps, c)
	if i>>6 == len(k.active) {
		k.active = append(k.active, 0)
	}
	w := Waker{k: k, idx: i}
	w.Wake()
	return w
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
	for _, w := range k.active {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ticks returns the number of component ticks executed since construction.
// Comparing it against Components() × Now() gives the skip ratio the
// activity tracker achieved.
func (k *Kernel) Ticks() int64 { return k.ticks }

// Step advances the simulation by one cycle. It visits the awake
// components in registration order, re-reading the active word after every
// tick: a component woken during the step ticks this cycle if its slot is
// still ahead, and next cycle if it has passed.
func (k *Kernel) Step() {
	now := k.now
	if k.dense {
		for i := range k.comps {
			k.tick(i, now)
		}
	} else {
		for w := range k.active {
			// seen masks the bits at and below the last visited one.
			var seen uint64
			for m := k.active[w]; m != 0; m = k.active[w] &^ seen {
				b := bits.TrailingZeros64(m)
				seen = 2<<b - 1
				k.tick(w<<6|b, now)
			}
		}
	}
	for _, f := range k.epilogues {
		f(now)
	}
	k.now++
}

// tick runs component i and re-evaluates its active bit: work it handed
// itself keeps it awake; work handed to it by a later-ticking peer sets the
// bit directly and survives this check because sends only happen after
// this component's slot.
func (k *Kernel) tick(i int, now Cycle) {
	c := k.comps[i]
	c.Tick(now)
	k.ticks++
	if bit := uint64(1) << (i & 63); c.Quiescent() {
		k.active[i>>6] &^= bit
	} else {
		k.active[i>>6] |= bit
	}
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
