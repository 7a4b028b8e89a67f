// Package cpu models the chip's processors: in-order, IPC-1, single
// threaded cores (Table 2: UltraSPARC III Plus class) that execute a
// synthetic instruction stream and block on L1 misses. The cores only
// matter to the NoC through the memory-request stream they generate, so
// the model retires one operation per cycle and stalls on misses.
package cpu

import (
	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/sim"
)

// OpKind classifies one retired operation.
type OpKind uint8

const (
	// OpCompute occupies the pipeline for a cycle without touching memory.
	OpCompute OpKind = iota
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
)

// Op is one instruction of the synthetic stream.
type Op struct {
	Kind OpKind
	Addr cache.Addr
}

// Stream produces a core's instruction stream. Implementations must be
// deterministic for a given seed.
type Stream interface {
	// Next consumes the operation at the head of the stream.
	Next() Op
	// ComputeRun consumes the compute operations at the head of the
	// stream, at most max of them, and returns how many it consumed. When
	// it returns less than max the head is a memory operation, which the
	// next Next returns. Consuming a run this way leaves the stream
	// exactly where as many Next calls would.
	ComputeRun(max int64) int64
}

// Recorder observes every operation a core consumes from its stream, at
// the cycle it is issued — the tap point the trace recorder
// (internal/tracefeed) hangs off.
type Recorder interface {
	Record(core int, now sim.Cycle, op Op)
}

// Core is one in-order processor bound to its private L1.
type Core struct {
	id     int
	l1     *coherence.L1Ctrl
	stream Stream
	limit  int64

	stalled bool
	done    bool
	// held is the memory operation that ends the planned compute run; it
	// issues at cycle next. Kind is OpCompute when the core holds none.
	held Op
	// next is the first cycle the core acts again: it issues held then,
	// or, holding nothing after a run that reaches the limit, retires the
	// run's last operation. Every Tick before next is a no-op.
	next sim.Cycle
	// runEnd is the cycle after the planned run's last compute operation.
	// The run is credited to Retired when it is planned; RetiredAt hides
	// the part of it that has not retired yet.
	runEnd sim.Cycle
	// stallFrom is the cycle the outstanding miss was issued; the stall is
	// credited to StallCycles in closed form when the miss completes.
	stallFrom sim.Cycle
	// wake revives the core when its miss completes; the zero Waker (a
	// core stepped by hand) is a no-op.
	wake sim.Waker

	// recorder, when non-nil, observes each issued operation. Purely
	// passive: it never changes what the core does, so a recorded run is
	// bit-identical to an unrecorded one.
	recorder Recorder

	// doneSink fires once when the core retires its last operation; the
	// chip layer counts completions there instead of scanning every core
	// every cycle.
	doneSink func()
	// resume is onMissDone bound to c, the L1's miss handler: made once
	// per Core and kept by every rebuild (Init), since c outlives it.
	resume func(now sim.Cycle)

	// Retired counts completed operations; Loads/Stores/Misses and
	// StallCycles describe the memory behaviour; FinishedAt is the cycle
	// the core retired its last operation.
	Retired     int64
	Loads       int64
	Stores      int64
	Misses      int64
	StallCycles int64
	FinishedAt  sim.Cycle
}

// New binds a core to its L1 and stream; the core halts after limit
// retired operations.
func New(id int, l1 *coherence.L1Ctrl, stream Stream, limit int64) *Core {
	return new(Core).Init(id, l1, stream, limit)
}

// Init builds the core of New in c and returns c. c is zero or a core a
// finished run left (chip's machine shells, DESIGN.md §4.11): the rebuild
// names every field it sets, so counters, the done sink, the waker and the
// recorder come back zero, and only the bound miss handler carries over.
func (c *Core) Init(id int, l1 *coherence.L1Ctrl, stream Stream, limit int64) *Core {
	*c = Core{id: id, l1: l1, stream: stream, limit: limit, resume: c.resume}
	if c.resume == nil {
		c.resume = c.onMissDone
	}
	l1.SetMissHandler(c.resume)
	return c
}

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool { return c.done }

// SetDoneSink installs a callback invoked exactly once per done-transition.
func (c *Core) SetDoneSink(fn func()) { c.doneSink = fn }

// SetRecorder attaches a passive operation recorder to the core.
func (c *Core) SetRecorder(r Recorder) { c.recorder = r }

// SetWaker installs the Waker that revives the core when its miss
// completes.
func (c *Core) SetWaker(w sim.Waker) { c.wake = w }

// Quiescent reports whether the core's next Tick is a pure no-op: a
// finished core has nothing to retire, and a stalled one waits for its L1,
// which wakes it when the miss completes. A stall costs no tick per cycle:
// onMissDone credits StallCycles with the whole span at once. A core
// sleeping through a compute run is not quiescent — its Tick at next acts,
// and a stepper without a wheel must reach it — but costs the sparse
// kernel no ticks either: it sleeps until next (Waker.SleepUntil).
func (c *Core) Quiescent() bool { return c.done || c.stalled }

// Describe registers the core's counters with reg under the core/ scope;
// same-name registrations sum across the chip's cores. StallCycles is read
// with the open stall's cycles so far, as if it were bumped every cycle.
func (c *Core) Describe(reg *sim.Registry) {
	reg.CounterAt("core/retired", c.RetiredAt)
	reg.Counter("core/loads", &c.Loads)
	reg.Counter("core/stores", &c.Stores)
	reg.Counter("core/misses", &c.Misses)
	reg.CounterAt("core/stall_cycles", func(at sim.Cycle) int64 {
		if c.stalled {
			return c.StallCycles + at - c.stallFrom
		}
		return c.StallCycles
	})
}

// RetiredAt returns Retired as a core retiring one operation per cycle
// would read after cycle at-1: the operations of a planned compute run
// count only from the cycles they retire in.
func (c *Core) RetiredAt(at sim.Cycle) int64 {
	return c.Retired - max(c.runEnd-at, 0)
}

// ResetStats zeroes the core's counters after a warm-up phase and extends
// its retirement budget by limit additional operations.
func (c *Core) ResetStats(limit int64) {
	c.Loads, c.Stores, c.Misses, c.StallCycles = 0, 0, 0, 0
	c.limit = c.Retired + limit
	c.done = false
}

// onMissDone runs inside the L1's tick, which precedes the core's in every
// cycle, so the woken core resumes this very cycle: it stalled from the
// miss's cycle through the one before now.
func (c *Core) onMissDone(now sim.Cycle) {
	c.stalled = false
	c.StallCycles += now - c.stallFrom
	c.retire(now) // the memory operation completes with its miss
	c.wake.Wake()
}

func (c *Core) retire(now sim.Cycle) {
	c.Retired++
	if c.Retired >= c.limit {
		c.finish(now)
	}
}

func (c *Core) finish(now sim.Cycle) {
	c.done = true
	c.FinishedAt = now
	if c.doneSink != nil {
		c.doneSink()
	}
}

// Tick advances the core one cycle. A compute operation retires every
// cycle and a memory operation issues to the L1, retiring on a hit and
// stalling the core on a miss; the core draws each compute run whole
// (plan) and sleeps through it. A done or stalled core's Tick does
// nothing, and one before next only sleeps again: the wheel woke it early,
// or its stepper ticks every core that is not quiescent.
func (c *Core) Tick(now sim.Cycle) {
	if c.done || c.stalled {
		return
	}
	if now >= c.next && c.held.Kind == OpCompute && c.Retired < c.limit {
		c.plan(now)
	}
	if now < c.next {
		c.wake.SleepUntil(c.next)
		return
	}
	if c.held.Kind == OpCompute { // the run's last operation reaches the limit
		c.finish(now)
		return
	}
	op := c.held
	c.held = Op{}
	if c.recorder != nil {
		c.recorder.Record(c.id, now, op)
	}
	write := op.Kind == OpStore
	if write {
		c.Stores++
	} else {
		c.Loads++
	}
	if c.l1.Access(op.Addr, write, now) {
		c.retire(now)
		if !c.done {
			c.plan(now + 1)
			c.wake.SleepUntil(c.next)
		}
		return
	}
	c.Misses++
	c.stalled = true
	c.stallFrom = now
}

// plan draws the compute run that starts at cycle from, no longer than the
// retirement limit allows, and credits it to Retired at once. Unless the
// run reaches the limit it then holds the memory operation that ends it.
func (c *Core) plan(from sim.Cycle) {
	n := c.stream.ComputeRun(c.limit - c.Retired)
	if c.recorder != nil {
		for i := range n {
			c.recorder.Record(c.id, from+i, Op{Kind: OpCompute})
		}
	}
	c.Retired += n
	c.runEnd = from + n
	c.next = c.runEnd
	if c.Retired >= c.limit {
		c.next-- // n >= 1: the limit was not reached before the run
		return
	}
	c.held = c.stream.Next()
}
