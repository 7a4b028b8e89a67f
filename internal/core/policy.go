package core

import (
	"fmt"
	"strings"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Policy is the switching-policy seam: every circuit mechanism — the
// paper's variants and the post-paper policies from the related work — is
// one implementation, registered by name. All of them share one mechanism:
// a message reserves a circuit entry at every router it crosses, and the
// circuit ends one of three ways — its reply rides it, an undo token walks
// it on the credit wires, or, timed, it expires. The Manager owns the walk
// (OnRequestVA), the record it leaves at the NI and every way a circuit
// ends (OnUndo, teardown), together with the router tables, NI registries
// and statistics; which shape each takes follows from the policy's Traits —
// the facts the shared machinery, the invariant oracles and
// Options.Validate read. A policy adds the steps where it departs from the
// defaults in basePolicy:
//
//   - Arbitrate answers the walk's one question at each router: may the
//     candidate entry be installed? The walk installs it, or runs the one
//     failure path.
//   - Inject steers a message about to leave its NI: ride the circuit,
//     wait for a timed slot, scrounge, or fall back to packet switching.
//   - Deliver intercepts message arrival before the generic paths (the
//     probe comparator consumes its setup flits here).
//
// Hook ordering follows the double-buffered simulation phases: Arbitrate
// fires during the router phase (compute on the current cycle's state);
// Inject and Deliver fire during the NI phase, after every router of the
// cycle, so what they change is first read by the next cycle's Arbitrate.
type Policy interface {
	// Traits states the policy's facts for the given options.
	Traits(o *Options) Traits
	// Validate checks the policy's own knobs; the rules every policy
	// shares (mechanism, optimizations, storage, Section 4.7) are
	// Options.Validate's, driven by Traits.
	Validate(o *Options) error
	// NetConfig applies the policy's router microarchitecture (VC
	// inventory, routing, injection rules) to the baseline config.
	NetConfig(cfg *noc.NetConfig, o *Options)
	// Attach sizes per-manager policy state; called once from NewManager.
	Attach(mg *Manager)
	// DescribeMetrics registers policy-specific counters with the
	// sim.Registry scope the manager exports.
	DescribeMetrics(reg *sim.Registry)

	// Arbitrate decides whether candidate entry e may be installed at input
	// unit port of router id. It may refine e (window, lane, VCs) and the
	// walk's timing state, but installs nothing.
	Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict
	// Inject classifies and steers a message about to leave NI ni; it
	// returns the earliest cycle the message may be injected.
	Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle
	// Deliver runs before the generic delivery paths. handled=false hands
	// the message to the shared record/scrounger logic; handled=true makes
	// deliver the final verdict (false consumes the message).
	Deliver(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) (handled, deliver bool)
}

// Traits are the facts a policy states once. NewManager resolves them into
// a plain field, so the per-flit paths never ask the policy anything.
type Traits struct {
	// Mech is the mechanism the policy implements or builds on;
	// Options.Mechanism must name it.
	Mech Mechanism
	// Timed, Reuse and NoAck say which of the paper's optimizations the
	// policy can honour. Under Options.Timed a circuit's entries
	// self-expire, so nothing tears it down.
	Timed, Reuse, NoAck bool
	// Unbounded: circuit storage has no per-port capacity (the ideal
	// bound), so MaxCircuitsPerPort is neither required nor enforced, and
	// teardown clears the whole reply path at once: the bound charges no
	// undo walk.
	Unbounded bool
	// Forward: the reserving message is a reply-side setup flit and its
	// entries point the way it travels (the probe comparator), so an undo
	// walk scans back toward the setup source; otherwise a request reserves
	// reversed entries for its reply, and an undo walk follows them.
	Forward bool
	// Partial: a router that cannot reserve leaves a gap and the walk goes
	// on (fragmented circuits), and undo walks and teardowns follow the YX
	// reply path past the gaps; otherwise one failure fails the circuit.
	Partial bool
	// Lanes is the SDM lane count per mesh link (0 = undivided links); it
	// arms the lane-conservation oracle.
	Lanes int
	// ConflictChecked: the output-port construction rule applies, so the
	// circuit-table oracle must find no two inputs sharing an output.
	ConflictChecked bool
	// RegistryChecked: NI records promise built entries along the whole
	// reply path, so the registry oracle may cross-check them.
	RegistryChecked bool
	// LeakChecked: unclaimed built entries are leaks the online oracle may
	// flag (timed entries self-expire, so timed options turn it off).
	LeakChecked bool
}

// verdict is a policy's answer to the reservation walk at one router.
type verdict uint8

const (
	// declined: the message should not reserve at all; it drops its
	// circuit wish and travels on as a plain packet.
	declined verdict = iota
	// granted: install the candidate entry.
	granted
	// conflict: the output port, window or lane is taken.
	conflict
	// noStorage: no free entry or reserved VC at the input unit.
	noStorage
)

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

var (
	policyFactories = map[string]func() Policy{}
	policyOrder     []string
)

// RegisterPolicy adds a switching policy under name. The factory returns a
// fresh instance per manager so stateful policies never share state across
// runs. Registration happens at init time; duplicates panic.
func RegisterPolicy(name string, factory func() Policy) {
	if name == "" || factory == nil {
		panic("core: RegisterPolicy needs a name and a factory")
	}
	if _, dup := policyFactories[name]; dup {
		panic("core: policy " + name + " registered twice")
	}
	policyFactories[name] = factory
	policyOrder = append(policyOrder, name)
}

// PolicyNames lists every registered policy in registration order.
func PolicyNames() []string {
	return append([]string(nil), policyOrder...)
}

func init() {
	RegisterPolicy("baseline", func() Policy { return baselinePolicy{} })
	RegisterPolicy("fragmented", func() Policy { return fragmentedPolicy{} })
	RegisterPolicy("complete", func() Policy { return completePolicy{} })
	RegisterPolicy("ideal", func() Policy { return idealPolicy{} })
	RegisterPolicy("probe-setup", func() Policy { return probePolicy{} })
	RegisterPolicy("dynamic-vc", func() Policy { return &dynVCPolicy{} })
	RegisterPolicy("sdm", func() Policy { return sdmPolicy{} })
}

// PolicyName returns the registry name an Options selects: the explicit
// Policy when set, otherwise the mechanism's own name.
func PolicyName(o Options) string {
	if o.Policy != "" {
		return o.Policy
	}
	return o.Mechanism.String()
}

// PolicyFor resolves the policy an Options selects.
func PolicyFor(o Options) (Policy, error) {
	name := PolicyName(o)
	f := policyFactories[name]
	if f == nil {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return f(), nil
}

// mustPolicyFor resolves a policy for options that already validated.
func mustPolicyFor(o Options) Policy {
	p, err := PolicyFor(o)
	if err != nil {
		panic(err)
	}
	return p
}

// TraitsFor returns the facts of the policy the (valid) options select.
func TraitsFor(o Options) Traits { return mustPolicyFor(o).Traits(&o) }

// Validate rejects inconsistent option combinations: the rules every policy
// shares are checked here against the selected policy's Traits, then the
// policy validates its own knobs.
func (o *Options) Validate() error {
	pol, err := PolicyFor(*o)
	if err != nil {
		return err
	}
	tr, name := pol.Traits(o), PolicyName(*o)
	if o.Mechanism != tr.Mech {
		return fmt.Errorf("core: policy %q builds on the %v mechanism (Options.Mechanism is %v)", name, tr.Mech, o.Mechanism)
	}
	if o.SpeculativeRouter && o.Enabled() {
		return fmt.Errorf("core: speculative routers and circuits are alternative designs")
	}
	for _, opt := range []struct {
		name     string
		set, can bool
	}{{"Timed", o.Timed, tr.Timed}, {"Reuse", o.Reuse, tr.Reuse}, {"NoAck", o.NoAck, tr.NoAck}} {
		if opt.set && !opt.can {
			return fmt.Errorf("core: policy %q cannot honour %s", name, opt.name)
		}
	}
	if o.Enabled() && !tr.Unbounded && o.MaxCircuitsPerPort <= 0 {
		return fmt.Errorf("core: policy %q needs MaxCircuitsPerPort > 0", name)
	}
	if o.Timed {
		// Section 4.7 parameter rules.
		if o.SlackPerHop < 0 || o.DelayPerHop < 0 || o.PostponePerHop < 0 {
			return fmt.Errorf("core: negative timed parameters")
		}
		if o.DelayPerHop > 0 && o.SlackPerHop == 0 {
			return fmt.Errorf("core: delayed reservations require slack (Section 4.7)")
		}
		if o.PostponePerHop > 0 && (o.SlackPerHop > 0 || o.DelayPerHop > 0) {
			return fmt.Errorf("core: postponed circuits use exact windows, not slack/delay")
		}
	} else if o.Enabled() && (o.SlackPerHop > 0 || o.DelayPerHop > 0 || o.PostponePerHop > 0) {
		return fmt.Errorf("core: slack/delay/postpone require Timed")
	}
	return pol.Validate(o)
}

// ---------------------------------------------------------------------------
// Shared default behaviour
// ---------------------------------------------------------------------------

// basePolicy supplies the default of every hook but Traits: reserve nothing
// unless the policy arbitrates, and ride the reply on whatever its request
// reserved. Concrete policies embed it and override only the steps where
// they differ.
type basePolicy struct{}

func (basePolicy) Validate(*Options) error            { return nil }
func (basePolicy) NetConfig(*noc.NetConfig, *Options) {}
func (basePolicy) Attach(*Manager)                    {}
func (basePolicy) DescribeMetrics(*sim.Registry)      {}

func (basePolicy) Arbitrate(*Manager, mesh.NodeID, *noc.Message, mesh.Dir, *entry, *walk, sim.Cycle) verdict {
	return declined
}

// Inject rides the reply on whatever its request reserved — the whole
// circuit, or under Partial policies its fragments — observing timed
// windows and riding scroungers; a reply without a record falls back to the
// shared scrounge/classify path.
func (basePolicy) Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	key, rec := mg.ownRecord(ni, msg)
	if rec == nil {
		return mg.injectFallback(ni, msg, now)
	}
	if rec.empty() {
		delete(mg.regs[ni], key)
		mg.retire(rec)
		mg.classify(msg, OutcomeFailed)
		return now
	}
	if rec.inUse {
		return now + 1 // a scrounger is riding; wait for it to clear
	}
	if rec.timed {
		if now > rec.injEnd {
			// Missed the slot (cache delays, blocked lines): undo the
			// circuit and use the normal pipeline (Section 4.7).
			delete(mg.regs[ni], key)
			mg.Stats.CircuitsUndone++
			mg.classify(msg, OutcomeUndone)
			if mg.tracer != nil {
				mg.tracer.Record(now, trace.CircuitUndone, msg.ID, ni,
					fmt.Sprintf("missed window [%d,%d]", rec.injStart, rec.injEnd))
			}
			mg.retire(rec)
			return now
		}
		if now < rec.injStart {
			mg.Stats.WaitedForWindow++
			return rec.injStart
		}
	}
	delete(mg.regs[ni], key)
	mg.ride(ni, msg, rec, now)
	if rec.complete {
		mg.classify(msg, OutcomeCircuit)
	} else {
		mg.classify(msg, OutcomeFailed) // a partial path still rides its fragments
	}
	mg.retire(rec)
	return now
}

func (basePolicy) Deliver(*Manager, mesh.NodeID, *noc.Message, sim.Cycle) (bool, bool) {
	return false, true
}

// portRule is the paper's construction rule for untimed circuits: the
// candidate may not share its output port with a live entry of another
// input unit.
func portRule(mg *Manager, id mesh.NodeID, port mesh.Dir, e *entry, now sim.Cycle) verdict {
	if mg.tables[id].conflict(port, e.out, e.winStart, e.winEnd, now) {
		return conflict
	}
	return granted
}

// orDefault substitutes def for an unset (zero or negative) knob.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
