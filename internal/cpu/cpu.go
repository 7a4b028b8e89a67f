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
	Next() Op
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

	// recorder, when non-nil, observes each issued operation. Purely
	// passive: it never changes what the core does, so a recorded run is
	// bit-identical to an unrecorded one.
	recorder Recorder

	// doneSink fires once when the core retires its last operation; the
	// chip layer counts completions there instead of scanning every core
	// every cycle.
	doneSink func()

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
	c := &Core{id: id, l1: l1, stream: stream, limit: limit}
	l1.SetMissHandler(c.onMissDone)
	return c
}

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool { return c.done }

// SetDoneSink installs a callback invoked exactly once per done-transition.
func (c *Core) SetDoneSink(fn func()) { c.doneSink = fn }

// SetRecorder attaches a passive operation recorder to the core.
func (c *Core) SetRecorder(r Recorder) { c.recorder = r }

// Quiescent reports whether the core's next Tick is a pure no-op. Only a
// finished core sleeps: a stalled core burns a StallCycles counter every
// cycle, and a running core retires work.
func (c *Core) Quiescent() bool { return c.done }

// Describe registers the core's counters with reg under the core/ scope;
// same-name registrations sum across the chip's cores.
func (c *Core) Describe(reg *sim.Registry) {
	reg.Counter("core/retired", &c.Retired)
	reg.Counter("core/loads", &c.Loads)
	reg.Counter("core/stores", &c.Stores)
	reg.Counter("core/misses", &c.Misses)
	reg.Counter("core/stall_cycles", &c.StallCycles)
}

// ResetStats zeroes the core's counters after a warm-up phase and extends
// its retirement budget by limit additional operations.
func (c *Core) ResetStats(limit int64) {
	c.Loads, c.Stores, c.Misses, c.StallCycles = 0, 0, 0, 0
	c.limit = c.Retired + limit
	c.done = false
}

func (c *Core) onMissDone(now sim.Cycle) {
	c.stalled = false
	c.retire(now) // the memory operation completes with its miss
}

func (c *Core) retire(now sim.Cycle) {
	c.Retired++
	if c.Retired >= c.limit {
		c.done = true
		c.FinishedAt = now
		if c.doneSink != nil {
			c.doneSink()
		}
	}
}

// Tick advances the core one cycle: retire one operation, or burn a stall
// cycle waiting for an outstanding miss.
func (c *Core) Tick(now sim.Cycle) {
	if c.done {
		return
	}
	if c.stalled {
		c.StallCycles++
		return
	}
	op := c.stream.Next()
	if c.recorder != nil {
		c.recorder.Record(c.id, now, op)
	}
	switch op.Kind {
	case OpCompute:
		c.retire(now)
	case OpLoad, OpStore:
		write := op.Kind == OpStore
		if write {
			c.Stores++
		} else {
			c.Loads++
		}
		if c.l1.Access(op.Addr, write, now) {
			c.retire(now)
			return
		}
		c.Misses++
		c.stalled = true
		c.StallCycles++
	}
}
