// Package noc implements the baseline network on chip of the paper's
// Table 4: a 2-D mesh of 4-stage wormhole routers with two virtual networks
// (requests and replies), two virtual channels per virtual network, 5-flit
// buffers, credit-based flow control, 16-byte flits and 1-cycle links.
//
// The package is mechanism-agnostic: the Reactive Circuits layer
// (internal/core) plugs in through the CircuitHandler and NIHook interfaces
// without noc knowing anything about reservation policies.
//
// # Pipeline and timing reference
//
// The router implements the paper's Table 4 microarchitecture. A buffered
// head flit crosses a router in four stages plus the link:
//
//	cycle t     BW+RC   flit written into its input VC, route computed
//	cycle t+1   VA      two-phase VC allocation, in input-port order
//	                    (circuit reservation happens here, in parallel)
//	cycle t+2   SA      two-phase round-robin switch allocation
//	cycle t+3   ST      crossbar traversal, flit put on the link
//	cycle t+4   LT      link traversal
//	cycle t+5           visible at the next router's input
//
// giving the paper's five cycles per hop for requests. Body flits skip
// RC/VA and pipeline one per cycle behind the head. A reply whose reactive
// circuit is built skips everything:
//
//	cycle t     circuit check hits -> crossbar the same cycle
//	cycle t+1   LT
//	cycle t+2           visible at the next router
//
// two cycles per hop, one cycle inside the router — "it can go straight
// through the crossbar leaving the router in just one cycle".
//
// Within Router.Tick the stage order is: circuit-undo token reception,
// flit reception (with the Figure-3 circuit check at the input units),
// switch traversal executing last cycle's grants (circuit flits first —
// they own the crossbar; in the speculative comparator the bypass queue
// runs last instead), VC allocation, then switch allocation for the next
// cycle. Each stage visits
// only live state: reception only the wires whose bit is set in the
// router's inbound mask (a wire sets it on Send and clears it when
// drained), traversal only the set bits of the grant and bypass-latch
// masks, and the allocators only the set bits of each input port's
// waiting-for-VA and active-with-a-flit masks, arbitrated by the mask
// round robin arbitrate. The same words make Router.Quiescent O(1) and
// exact. All inter-router channels are one-cycle pipelines, so the tick
// order of routers within a cycle is observationally irrelevant.
//
// Flow control is credit-based with one credit per buffer slot. A credit is
// not a message: Router.returnCredit queues a pointer to the upstream
// counter, and Network.FlushBoundary, the network's cycle epilogue, applies
// the previous cycle's credits, so a credit returned in cycle t is first
// seen in cycle t+2 — the flits' link latency — without waking the router
// or NI it returns to. Only circuit-undo tokens ride the credit wires. The
// complete-circuit variants remove the buffer from the circuit VC
// entirely: flits on a complete circuit are never stored, which is what
// shrinks the router (Table 6) — and the router panics if one would have
// to wait, turning the paper's central invariant into an executable
// assertion.
package noc
