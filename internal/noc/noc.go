package noc

import (
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// Virtual network indices. The coherence protocol maps every message onto
// one of these two classes (Table 4: "2 virtual networks, requests and
// replies").
const (
	VNRequest = 0
	VNReply   = 1
	NumVNs    = 2
)

// FlitBytes is the link width (Table 4: 16-byte flits).
const FlitBytes = 16

// Message is one coherence-protocol message in flight. The NoC only
// interprets the fields it needs (geometry, size, virtual network); Type and
// Payload are opaque to it.
type Message struct {
	ID   uint64
	Type int // coherence message type; opaque tag for stats and hooks
	Src  mesh.NodeID
	Dst  mesh.NodeID
	VN   int // VNRequest or VNReply
	Size int // flits

	// Payload carries the coherence layer's transaction context, packed
	// into a word by the sender (coherence.Payload.Pack). A plain integer
	// rather than `any`: boxing a multi-word struct into an interface
	// heap-allocated on every protocol send.
	Payload uint64

	// Circuit-reservation state (written by internal/core hooks) and
	// per-message flags. The one-byte fields sit together: spread between
	// the words they would pad a Message from 208 bytes to the 256-byte
	// allocation class, and a run allocates its peak of in-flight messages.

	// WantCircuit marks a request that should reserve a reactive circuit
	// for its reply as it traverses the network.
	WantCircuit bool
	// SetupProbe marks the Déjà-Vu comparator's setup flit: a 1-flit
	// reply-class message that builds a forward circuit for the data
	// reply travelling right behind it.
	SetupProbe bool
	// BuildFailed is set by the circuit handler when a reservation could
	// not be (completely) made; the destination NI reads it on delivery.
	BuildFailed bool
	// UseCircuit marks a reply that rides its reactive circuit.
	UseCircuit bool
	// Scrounging marks a reply riding a circuit built for another message
	// to the intermediate node Dst; FinalDst is its true destination.
	Scrounging bool
	// Classified marks a reply whose Figure-6 outcome is booked: an NI
	// offers a held-back reply to the injection hook again every cycle,
	// and a scrounger's continuation leg re-enters the network.
	Classified bool
	// LocalHop marks a message whose source and destination tile
	// coincide: it never traversed the network.
	LocalHop bool

	// Block is the cache-line address identifying the circuit; together
	// with the requestor id it names the circuit at every router.
	Block uint64
	// ReservedHops counts routers where this request successfully
	// installed a reservation (fragmented circuits keep partial paths).
	ReservedHops int
	// AccumDelay is the injection delay accumulated by the timed
	// "delay" variant while the request reserved shifted windows.
	AccumDelay sim.Cycle
	// ExpectedProcDelay is the requestor's estimate of the destination's
	// processing latency (cache hit latency in the paper's timing
	// formula), used by timed reservations.
	ExpectedProcDelay sim.Cycle
	// ExpectedReplySize is the anticipated reply length in flits, which
	// sets the duration of a timed reservation window.
	ExpectedReplySize int

	// InjectVC forces the virtual channel used at the source NI when > 0
	// (circuit VCs are always index >= 1); <= 0 lets the NI choose among
	// the allocatable VCs.
	InjectVC int
	// CircDest and CircBlock identify the circuit a reply rides; for a
	// reply on its own circuit they equal (Dst, Block), for a scrounger
	// they name the borrowed circuit.
	CircDest  mesh.NodeID
	CircBlock uint64
	// FinalDst is a scrounging reply's true destination (see Scrounging).
	FinalDst mesh.NodeID

	// Walk and Ride carry the circuit layer's per-message context (the
	// reservation walk a request is building; the borrowed record a
	// scrounger rides). They live on the message rather than in
	// manager-side maps keyed by message id: the context travels with the
	// message and dies with it, with no lookup on the hot path. Both hold
	// pointers the circuit layer type-asserts back; they are opaque to the
	// NoC.
	Walk any
	Ride any

	// Latency bookkeeping (cycles).
	EnqueuedAt  sim.Cycle // entered the source NI queue
	InjectedAt  sim.Cycle // head flit left the NI
	DeliveredAt sim.Cycle // tail flit reached the destination NI
	// QueueCredit preserves queueing delay accumulated before a scrounger
	// re-injection so end-to-end latency accounting survives the hop.
	QueueCredit sim.Cycle
	NetCredit   sim.Cycle
}

// Flit is the unit of flow control: 1/Size-th of a message.
type Flit struct {
	Msg  *Message
	Seq  int
	Head bool
	Tail bool
	// VC is the virtual channel the flit occupies on the link it most
	// recently traversed (within its message's virtual network).
	VC int
	// OnCircuit marks a flit travelling on the reactive-circuit bypass.
	OnCircuit bool
	// Lane is the SDM lane the flit occupies on the next lane-divided link
	// it traverses: 0 (the reserved packet lane) for granted traffic, the
	// circuit's claimed lane for bypass traffic. Ignored by undivided links.
	Lane int

	// arrivedAt is the cycle the flit became visible at the current
	// router, gating switch-allocation eligibility.
	arrivedAt sim.Cycle
}

// UndoToken names a circuit being torn down before use. It travels on the
// credit wire ("we send the data of the circuit to be undone towards the
// circuit destination using credits").
type UndoToken struct {
	// Dest is the circuit destination (the node the reply would have
	// reached, i.e. the original requestor).
	Dest mesh.NodeID
	// Block is the cache-line address of the circuit.
	Block uint64
}

// CircuitHandler is the seam between the generic wormhole router and the
// Reactive Circuits mechanism. A nil handler yields the baseline network.
// The concrete handler is core.Manager: it owns the reservation walk and
// the bypass check, and asks the registered switching policy (core.Policy)
// the run's options select only where variants decide differently — the
// routers never see which policy is driving them.
//
// All methods are invoked synchronously from within Router.Tick.
type CircuitHandler interface {
	// OnRequestVA fires in the cycle a circuit-wanting message's head flit
	// wins VC allocation at router id (entering via in, leaving via out):
	// the paper reserves the reply's circuit "in parallel with VC
	// allocation". The handler may set msg.BuildFailed or msg.AccumDelay,
	// or clear msg.WantCircuit to stop reserving.
	OnRequestVA(id mesh.NodeID, msg *Message, in, out mesh.Dir, now sim.Cycle)

	// Bypass inspects a flit arriving at input port in of router id and
	// reports whether it travels on a built circuit, returning the
	// circuit's output port and the virtual channel the flit occupies on
	// the next link. Bypass flits cross the router in one cycle.
	Bypass(id mesh.NodeID, f *Flit, in mesh.Dir, now sim.Cycle) (out mesh.Dir, outVC int, ok bool)

	// Release fires when the tail flit of a circuit message leaves router
	// id: "when the tail flit of the message leaves the router, it frees
	// the circuit resources by clearing the B bit".
	Release(id mesh.NodeID, f *Flit, in mesh.Dir, now sim.Cycle)

	// OnUndo fires when an undo token reaches router id via the credit
	// wire on input port in. The handler clears matching reservations and
	// returns the output port to forward the token on (toward the circuit
	// destination), or ok=false when the walk ends here.
	OnUndo(id mesh.NodeID, tok *UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool)

	// BypassBuffered reports whether a bypass flit may wait in a buffer
	// when it loses the crossbar (the circuit VC kept its buffer). When
	// false, a stalled bypass flit violates the complete-circuit
	// invariant and the router panics: circuits must never block.
	BypassBuffered() bool
}

// NIHook lets the circuit layer steer injection and delivery at the
// network interfaces. A nil hook yields baseline behaviour. Like
// CircuitHandler, the concrete hook is core.Manager dispatching to the
// selected switching policy's Inject and Deliver steps.
type NIHook interface {
	// OnInject is consulted when msg reaches the head of its NI queue. It
	// may set UseCircuit / Scrounging / route metadata and returns the
	// earliest cycle injection may start (timed variants make replies wait
	// for their slot); return now to start immediately.
	OnInject(ni mesh.NodeID, msg *Message, now sim.Cycle) sim.Cycle

	// OnDeliver fires when msg fully arrives at NI ni. Returning false
	// consumes the message inside the hook (scrounger re-injection)
	// instead of delivering it to the tile.
	OnDeliver(ni mesh.NodeID, msg *Message, now sim.Cycle) bool
}
