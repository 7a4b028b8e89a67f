package sim

import (
	"math/bits"

	"reactivenoc/internal/recycle"
)

// Cycle is a simulation timestamp measured in core clock cycles (2 GHz in
// the modelled chip). Cycles are int64 so arithmetic on windows and
// deadlines can go transiently negative without wrapping.
type Cycle = int64

// Component is implemented by every clocked component. A component is
// driven by one of three steppers, and must behave identically under each:
//
//   - the sparse Kernel ticks a component while it is awake, in
//     registration order, and skips it while it sleeps: from a quiescent
//     tick until a Waker wakes it, or from a SleepUntil until that cycle
//     comes round on the kernel's wheel;
//   - the dense Kernel (SetDense) ticks every component every cycle;
//   - a kernel-free stepper (rcbench's hand-stepped machine) ticks every
//     component that is not Quiescent every cycle, with no wakers at all.
//
// Components must only *read* state written by other components in earlier
// cycles: flit links and undo wires are one-cycle double-buffered
// pipelines, and buffer credits land at the cycle boundary, which makes the
// tick order across components observationally irrelevant.
//
// Quiescent's contract is strict: it may return true only when the next
// Tick would be a pure no-op — no architectural state, statistic or counter
// may change when a quiescent component ticks. A component that sleeps
// until a future cycle is not quiescent: the kernel-free stepper has no
// wheel, and must keep ticking it, so every Tick before the cycle it asked
// for must be a no-op instead. Under that contract all three steppers tick
// a component in every cycle it does work, and the simulation is the same
// bit for bit, which is exactly what the golden determinism suite asserts.
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
// components wired outside a kernel (unit tests driving Tick by hand, the
// kernel-free stepper) need no special casing. Waking an already-active
// component is free; waking a component whose slot already passed this
// cycle takes effect next cycle — identical to the dense engine, where
// that component's earlier tick was a no-op by the quiescence contract.
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

// WakeAt schedules the component to tick at cycle at, whoever calls it and
// whatever the component is doing: it sets only the component's wheel bit,
// so a sleeper sleeps on until then and an awake component is untouched.
// Whoever hands a component work that is not due before a known cycle — a
// controller's access latency — wakes it so, instead of waking it now to
// find nothing due and sleep until then. A cycle at or before this one is
// Wake, and so is any cycle under the dense kernel, which has no wheel. A
// cycle past the wheel's reach wakes the component early, as SleepUntil
// does, and its no-op tick puts it back to sleep.
func (w Waker) WakeAt(at Cycle) {
	k := w.k
	if k == nil {
		return
	}
	if k.dense || at <= k.now {
		w.Wake()
		return
	}
	k.wheel[w.idx>>6<<wheelBits|int(at&(wheelSlots-1))] |= 1 << (w.idx & 63)
}

// SleepUntil, called from the component's own Tick, puts it to sleep until
// cycle at: the sparse kernel skips it until then, or until an earlier
// Wake. A cycle at or before this one means the next. A cycle past the
// wheel's reach (wheelSlots cycles ahead) wakes it early, when its slot
// first comes round: that tick is a no-op, and the component sleeps again.
// The dense kernel ticks every component anyway, so there it does nothing.
func (w Waker) SleepUntil(at Cycle) {
	k := w.k
	if k == nil || k.dense {
		return
	}
	at = max(at, k.now+1)
	bit := uint64(1) << (w.idx & 63)
	k.wheel[w.idx>>6<<wheelBits|int(at&(wheelSlots-1))] |= bit
	k.active[w.idx>>6] &^= bit
}

// wheelBits sizes the timed-wake wheel: 2^wheelBits slots, one per cycle
// ahead. Its reach covers every cache latency and almost every compute
// run; a memory controller's 160-cycle wait costs four early ticks, and a
// wheel of 256 slots would save about 0.1% of a run's ticks.
const (
	wheelBits  = 5
	wheelSlots = 1 << wheelBits
)

// Kernel drives a set of Components with a shared clock. It skips a
// component while it is quiescent or asleep and revives it through its
// Waker or its wheel slot.
type Kernel struct {
	now Cycle
	// comps tick in registration order.
	comps []Component
	// active holds one bit per component, set while it is awake: bit i&63
	// of word i>>6 for component i.
	active []uint64
	// wheel holds the sleepers, wheelSlots words per active word: bit
	// i&63 of wheel[i>>6<<wheelBits | c&(wheelSlots-1)] wakes component i
	// at cycle c. Step ORs the current cycle's slot into active.
	wheel []uint64
	// dense disables activity skipping: every component ticks every
	// cycle, exactly like the original engine. The golden determinism
	// suite cross-checks dense against sparse execution.
	dense bool
	// class holds each component's tick class, an index into classNames
	// and classTicks (Class); class 0 is the unnamed one.
	class      []uint8
	cur        uint8
	classNames [maxClasses]string
	// classTicks counts the component ticks actually executed, per class;
	// with the component count and cycle count they yield the scheduler's
	// skip ratio.
	classTicks [maxClasses]int64
	// epilogues run at the end of every Step — after every component,
	// before the cycle counter advances. The network applies the cycle's
	// credits and the circuit layer drains its deferred cross-tile
	// operations here.
	epilogues []func(Cycle)
}

// maxClasses bounds a kernel's tick classes, the unnamed one included.
const maxClasses = 8

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return new(Kernel).Init() }

// Init empties k, a zero kernel or one an earlier run stepped, and returns
// it at cycle 0 with nothing registered. Only the memory of its arrays
// carries over, so a rebuilt kernel is a new one (DESIGN.md §4.11).
func (k *Kernel) Init() *Kernel {
	*k = Kernel{
		comps:     recycle.Slice(k.comps, 0),
		active:    recycle.Slice(k.active, 0),
		wheel:     recycle.Slice(k.wheel, 0),
		class:     recycle.Slice(k.class, 0),
		epilogues: recycle.Slice(k.epilogues, 0),
	}
	return k
}

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Class names the tick class of the components added from now on, whose
// ticks ClassTicks counts together; components added before any Class, or
// after Class(""), are in the unnamed class. A kernel holds at most seven
// named classes.
func (k *Kernel) Class(name string) {
	for i := range k.classNames {
		if k.classNames[i] == name || i > 0 && k.classNames[i] == "" {
			k.classNames[i], k.cur = name, uint8(i)
			return
		}
	}
	panic("sim: more than seven component classes")
}

// Classes returns the named tick classes in the order Class first named
// them.
func (k *Kernel) Classes() []string {
	var names []string
	for _, name := range k.classNames[1:] {
		if name != "" {
			names = append(names, name)
		}
	}
	return names
}

// ClassTicks returns the component ticks executed in the named class since
// Init (0 for a class the kernel does not hold).
func (k *Kernel) ClassTicks(name string) int64 {
	for i, n := range k.classNames {
		if n == name {
			return k.classTicks[i]
		}
	}
	return 0
}

// Add registers a component in the current class and returns its Waker.
// Components start active and fall asleep after their first quiescent
// tick.
func (k *Kernel) Add(c Component) Waker {
	i := len(k.comps)
	k.comps = append(k.comps, c)
	k.class = append(k.class, k.cur)
	if i>>6 == len(k.active) {
		k.active = append(k.active, 0)
		k.wheel = append(k.wheel, make([]uint64, wheelSlots)...)
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

// Ticks returns the number of component ticks executed since Init, in
// every class. Comparing it against Components() × Now() gives the skip
// ratio the activity tracker achieved.
func (k *Kernel) Ticks() int64 {
	var n int64
	for _, t := range k.classTicks {
		n += t
	}
	return n
}

// Step advances the simulation by one cycle. It wakes the sleepers due
// this cycle, then visits the awake components in registration order,
// re-reading the active word after every tick: a component woken during
// the step ticks this cycle if its slot is still ahead, and next cycle if
// it has passed. A component goes to sleep when its tick leaves it
// quiescent or it called SleepUntil.
func (k *Kernel) Step() {
	now := k.now
	if k.dense {
		for i, c := range k.comps {
			c.Tick(now)
			k.classTicks[k.class[i]&(maxClasses-1)]++
			if bit := uint64(1) << (i & 63); c.Quiescent() {
				k.active[i>>6] &^= bit
			} else {
				k.active[i>>6] |= bit
			}
		}
	} else {
		slot := int(now & (wheelSlots - 1))
		for w := range k.active {
			due := &k.wheel[w<<wheelBits|slot]
			k.active[w] |= *due
			*due = 0
			// seen masks the bits at and below the last visited one.
			var seen uint64
			for m := k.active[w]; m != 0; m = k.active[w] &^ seen {
				b := bits.TrailingZeros64(m)
				seen = 2<<b - 1
				i := w<<6 | b
				c := k.comps[i]
				c.Tick(now)
				k.classTicks[k.class[i]&(maxClasses-1)]++
				// The bit is still set unless the tick called SleepUntil:
				// nothing else clears it during a step.
				if c.Quiescent() {
					k.active[w] &^= 1 << b
				}
			}
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
