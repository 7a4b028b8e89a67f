// Package core implements the paper's contribution: Reactive Circuits, the
// dynamic construction of circuits for reply messages while their request
// traverses the network.
//
// A request that will provoke a reply (L2 data replies, write-back
// acknowledgements, memory replies) installs, in parallel with VC
// allocation at every router it crosses, a circuit entry for the reply: the
// reply enters the router on the port the request left through and leaves
// on the port the request entered through, because requests route XY and
// replies YX. A reply that finds its circuit built crosses each router in a
// single cycle instead of the four-stage pipeline.
//
// The package implements every variant evaluated in the paper: fragmented
// circuits (partial reservations, extra buffered VC), complete circuits
// (all-or-nothing, unbuffered circuit VC, up to five circuits per input
// port), circuit reuse by scrounger messages, elimination of
// L1_DATA_ACK coherence messages, timed reservations with slack, delay and
// postponement, and the unimplementable ideal upper bound.
package core

import "fmt"

// Mechanism selects the circuit-construction policy.
type Mechanism uint8

const (
	// MechNone is the baseline packet-switched network.
	MechNone Mechanism = iota
	// MechFragmented keeps partial reservations and adds a third,
	// buffered reply VC (Section 4.2, first alternative).
	MechFragmented
	// MechComplete builds all-or-nothing circuits on an unbuffered VC
	// (Section 4.2, second alternative).
	MechComplete
	// MechIdeal reserves every circuit regardless of conflicts and
	// resolves collisions with buffering (Section 4.8); an upper bound,
	// not a feasible router.
	MechIdeal
	// MechProbe is the related-work comparator of the paper's reference
	// [7] (Déjà-Vu switching): the circuit is set up by a probe flit sent
	// when the reply is ready, with the data following behind — the
	// approach the paper rejects because a fast L2 hit cannot hide the
	// setup traversal.
	MechProbe
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "baseline"
	case MechFragmented:
		return "fragmented"
	case MechComplete:
		return "complete"
	case MechIdeal:
		return "ideal"
	case MechProbe:
		return "probe-setup"
	}
	return fmt.Sprintf("Mechanism(%d)", uint8(m))
}

// Options configures one Reactive Circuits variant.
type Options struct {
	Mechanism Mechanism

	// MaxCircuitsPerPort bounds simultaneous circuit entries at one input
	// port: 5 for complete circuits, 2 for fragmented (one per reserved
	// VC), unlimited for ideal.
	MaxCircuitsPerPort int

	// NoAck eliminates L1_DATA_ACK messages when the data reply used a
	// complete circuit (Section 4.6). Consumed by the coherence layer.
	NoAck bool

	// Reuse lets circuit-less replies ride idle complete circuits to an
	// intermediate node (scrounger messages, Section 4.5).
	Reuse bool

	// Timed enables timed reservations (Section 4.7): the circuit holds
	// its ports only during the reply's predicted time window.
	Timed bool
	// SlackPerHop widens every window by this many cycles per path hop.
	SlackPerHop int
	// DelayPerHop allows shifting a conflicting window later by up to
	// this many cycles per path hop (requires slack to stay compatible
	// with reservations already made downstream).
	DelayPerHop int
	// PostponePerHop shifts the exact-length window later unconditionally;
	// the reply always waits for its slot.
	PostponePerHop int

	// NoPool disables flit/message recycling in the network, and makes
	// coherence.NewSystem build its cache arrays fresh and release nothing.
	// Pooled and unpooled runs are bit-identical — this exists only to
	// bisect pooling bugs and to cross-check that claim in tests.
	NoPool bool

	// SpeculativeRouter enables the related-work comparator of the
	// paper's references [16-19]: no circuits at all, but head flits may
	// cross an uncontended router in a single cycle. Only valid with
	// MechNone — it is an alternative design, not an addition.
	SpeculativeRouter bool

	// Policy selects a registered switching policy by name (see
	// RegisterPolicy); empty picks the Mechanism's default
	// implementation, so every pre-policy Options encodes — and
	// fingerprints — exactly as before. The omitempty tags below keep
	// that true for the new knobs too.
	Policy string `json:",omitempty"`

	// DynVCMin, DynVCMax and DynVCWindow tune the dynamic-vc policy:
	// each router's usable reserved-VC partition floats between DynVCMin
	// and DynVCMax (the hardware provisions DynVCMax), adapting once per
	// DynVCWindow reservation attempts. Zero means the policy's default
	// (1 / 3 / 16).
	DynVCMin    int `json:",omitempty"`
	DynVCMax    int `json:",omitempty"`
	DynVCWindow int `json:",omitempty"`

	// SDMLanes tunes the sdm policy: every mesh link splits into this many
	// equal-width lanes — lane 0 reserved for packet traffic, the rest held
	// one-per-circuit — and per-flit link serialization stretches by the
	// lane fraction. Zero means the policy's default (4); valid values are
	// 2..8.
	SDMLanes int `json:",omitempty"`
}

// Enabled reports whether any circuit machinery is active.
func (o *Options) Enabled() bool { return o.Mechanism != MechNone }

// Outcome classifies each reply for the paper's Figure 6 breakdown.
type Outcome uint8

const (
	// OutcomeNone is the zero value (unclassified).
	OutcomeNone Outcome = iota
	// OutcomeCircuit — the reply travelled on its own (fully built,
	// for fragmented: at least partially built) circuit.
	OutcomeCircuit
	// OutcomeFailed — the circuit could not be (completely) built.
	OutcomeFailed
	// OutcomeUndone — the circuit was completely built but had to be
	// undone before use (forwarded requests, missed timed windows).
	OutcomeUndone
	// OutcomeScrounger — the reply rode a circuit built for another
	// message to an intermediate node.
	OutcomeScrounger
	// OutcomeNotEligible — no request could reserve a circuit for this
	// reply type.
	OutcomeNotEligible
	// OutcomeEliminated — the L1_DATA_ACK was removed by the NoAck
	// optimization and never entered the network.
	OutcomeEliminated
	numOutcomes
)

// String names the outcome as in Figure 6's legend.
func (o Outcome) String() string {
	switch o {
	case OutcomeNone:
		return "none"
	case OutcomeCircuit:
		return "circuit"
	case OutcomeFailed:
		return "failed"
	case OutcomeUndone:
		return "undone"
	case OutcomeScrounger:
		return "scrounger"
	case OutcomeNotEligible:
		return "not-eligible"
	case OutcomeEliminated:
		return "eliminated"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Stats aggregates the mechanism's behaviour for the evaluation figures.
type Stats struct {
	// Replies counts network replies per Figure-6 outcome.
	Replies [numOutcomes]int64

	// Ordinals[i] counts reservations that were the (i+1)-th simultaneous
	// circuit at their input port (Table 5); ReserveFailedStorage counts
	// reservations rejected for lack of a free entry, and
	// ReserveFailedConflict those rejected by the output-port rule.
	Ordinals              [8]int64
	ReserveFailedStorage  int64
	ReserveFailedConflict int64

	// CircuitsBuilt counts complete end-to-end reservations;
	// CircuitsUndone counts built circuits torn down unused.
	CircuitsBuilt  int64
	CircuitsUndone int64

	// ScroungerRides counts circuit borrowings; EliminatedAcks counts
	// L1_DATA_ACK messages removed by NoAck.
	ScroungerRides int64
	EliminatedAcks int64

	// ProbesSent counts the Déjà-Vu comparator's setup flits.
	ProbesSent int64

	// WaitedForWindow accumulates cycles replies waited for a timed slot.
	WaitedForWindow int64
}

// ReplyTotal returns the Figure-6 denominator: all replies including the
// eliminated acknowledgements (counted at zero latency, as in the paper).
func (s *Stats) ReplyTotal() int64 {
	var t int64
	for _, v := range s.Replies {
		t += v
	}
	return t
}

// OutcomeFraction returns the share of replies with the given outcome.
func (s *Stats) OutcomeFraction(o Outcome) float64 {
	t := s.ReplyTotal()
	if t == 0 {
		return 0
	}
	return float64(s.Replies[o]) / float64(t)
}
