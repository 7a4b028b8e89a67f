// Package verify is the opt-in correctness layer of the simulator: a set of
// online invariant oracles that run on a configurable cadence inside the
// cycle loop and catch state corruption the moment it becomes observable,
// instead of cycles-to-never later as a hung run, a wrong metric, or a
// failed end-of-run audit. Each oracle is read-only and legal at any cycle
// boundary; violations name the oracle so a failure in a fault-injection
// run (internal/fault) or a differential run (verify/differ, cmd/rcverify)
// can assert exactly which detector fired.
package verify

import (
	"fmt"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/sim"
)

// A Violation is a broken invariant, attributed to the oracle that caught
// it and the cycle boundary it was observed at.
type Violation struct {
	Oracle string    // stable oracle name, e.g. "credit-conservation"
	Cycle  sim.Cycle // cycle boundary the check ran at
	Msg    string    // detail from the failing check
}

func (v *Violation) Error() string {
	return fmt.Sprintf("verify: oracle %q at cycle %d: %s", v.Oracle, v.Cycle, v.Msg)
}

// Config parameterizes a Suite.
type Config struct {
	Sys *coherence.System
	// ProgressStall is how many cycles of zero flit movement with a
	// non-quiescent network trigger the progress/deadlock oracle. It must
	// be below the run watchdog so a structural deadlock is diagnosed as a
	// waits-for cycle rather than a generic timeout.
	ProgressStall sim.Cycle
}

// Suite runs the invariant oracles against one system. It is stateful only
// for the progress oracle (last observed flit movement).
type Suite struct {
	cfg          Config
	lastMovement int64
	lastMoveAt   sim.Cycle
}

// NewSuite builds a suite for cfg.Sys, arming the system's delivery-order
// oracle when its policy can eliminate acks (core.Traits.NoAck).
func NewSuite(cfg Config) *Suite {
	if core.TraitsFor(cfg.Sys.Opts).NoAck {
		cfg.Sys.ArmDeliveryOrder()
	}
	return &Suite{cfg: cfg}
}

// Check runs every online oracle at the cycle boundary now and returns the
// first violation, or nil. Cheap structural checks run before the graph
// walks so the most local diagnosis wins.
func (s *Suite) Check(now sim.Cycle) *Violation {
	sys := s.cfg.Sys
	if err := sys.Net.CheckCreditConservation(); err != nil {
		return &Violation{Oracle: "credit-conservation", Cycle: now, Msg: err.Error()}
	}
	if err := sys.Net.CheckFlitConservation(); err != nil {
		return &Violation{Oracle: "flit-conservation", Cycle: now, Msg: err.Error()}
	}
	if err := sys.Net.CheckVCOrder(); err != nil {
		return &Violation{Oracle: "vc-order", Cycle: now, Msg: err.Error()}
	}
	if mg := sys.Mgr; mg != nil {
		if err := mg.CheckTables(now); err != nil {
			return &Violation{Oracle: "circuit-table", Cycle: now, Msg: err.Error()}
		}
		if err := mg.CheckRegistry(now); err != nil {
			return &Violation{Oracle: "circuit-registry", Cycle: now, Msg: err.Error()}
		}
		if err := mg.CheckLeaks(now); err != nil {
			return &Violation{Oracle: "circuit-leak", Cycle: now, Msg: err.Error()}
		}
	}
	if err := sys.CheckDeliveryOrder(); err != nil {
		return &Violation{Oracle: "noack-order", Cycle: now, Msg: err.Error()}
	}
	if err := sys.CheckSingleWriter(); err != nil {
		return &Violation{Oracle: "coherence", Cycle: now, Msg: err.Error()}
	}
	return s.checkProgress(now)
}

// checkProgress is the deadlock/livelock oracle: if no flit has been
// injected or ejected for ProgressStall cycles while the network still
// holds traffic, it builds the waits-for graph over the blocked virtual
// channels. A cycle in that graph is a structural deadlock and is dumped
// as such; no cycle means starvation or a livelock upstream of the
// network, reported with the most-starved channel.
func (s *Suite) checkProgress(now sim.Cycle) *Violation {
	mv := s.cfg.Sys.Net.FlitMovement()
	if mv != s.lastMovement || s.cfg.Sys.Net.Quiescent() {
		s.lastMovement = mv
		s.lastMoveAt = now
		return nil
	}
	if s.cfg.ProgressStall <= 0 || now-s.lastMoveAt < s.cfg.ProgressStall {
		return nil
	}
	desc, isCycle := s.cfg.Sys.Net.WaitsFor(now)
	oracle := "progress"
	if isCycle {
		oracle = "deadlock"
	}
	return &Violation{
		Oracle: oracle,
		Cycle:  now,
		Msg: fmt.Sprintf("no flit moved for %d cycles with traffic in flight: %s",
			now-s.lastMoveAt, desc),
	}
}

// CheckQuiescent runs the end-of-run audits under oracle attribution: the
// network conservation audit, the circuit-mechanism leak audit, and the
// full coherence audit, in that order. The system must be idle.
func (s *Suite) CheckQuiescent(now sim.Cycle) *Violation {
	sys := s.cfg.Sys
	if err := sys.Net.AuditQuiescent(); err != nil {
		return &Violation{Oracle: "credit-conservation", Cycle: now, Msg: err.Error()}
	}
	if mg := sys.Mgr; mg != nil {
		if err := mg.AuditQuiescent(now); err != nil {
			return &Violation{Oracle: "circuit-leak", Cycle: now, Msg: err.Error()}
		}
	}
	if err := sys.AuditCoherence(); err != nil {
		return &Violation{Oracle: "coherence", Cycle: now, Msg: err.Error()}
	}
	return nil
}
