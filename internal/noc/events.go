package noc

import "reactivenoc/internal/sim"

// PowerEvents tallies the microarchitectural events the DSENT-substitute
// energy model charges for. One instance is shared by all routers and NIs
// of a network; the simulator is single-goroutine so plain fields suffice.
type PowerEvents struct {
	BufWrites      int64 // flit written into an input VC buffer
	BufReads       int64 // flit read out of an input VC buffer
	XbarTraversals int64 // flit through the crossbar (incl. circuit bypass)
	LinkFlits      int64 // flit on an inter-router link
	VAActivity     int64 // VC-allocator grants
	SAActivity     int64 // switch-allocator grants
	CreditsSent    int64 // flow-control credits on the reverse wires
	CircuitChecks  int64 // circuit-table lookups at input units
	CircuitWrites  int64 // circuit-table entry installs/clears
	Retries        int64 // SA grants cancelled by circuit priority
}

// Describe registers every event counter with reg under the noc/ scope.
func (e *PowerEvents) Describe(reg *sim.Registry) {
	reg.Counter("noc/buf_writes", &e.BufWrites)
	reg.Counter("noc/buf_reads", &e.BufReads)
	reg.Counter("noc/xbar_traversals", &e.XbarTraversals)
	reg.Counter("noc/link_flits", &e.LinkFlits)
	reg.Counter("noc/va_activity", &e.VAActivity)
	reg.Counter("noc/sa_activity", &e.SAActivity)
	reg.Counter("noc/credits_sent", &e.CreditsSent)
	reg.Counter("noc/circuit_checks", &e.CircuitChecks)
	reg.Counter("noc/circuit_writes", &e.CircuitWrites)
	reg.Counter("noc/retries", &e.Retries)
}

// roundRobin picks the first true index in req starting from *ptr,
// wrapping around, and advances *ptr past the winner. It returns -1 when no
// index is requested. This is the arbiter primitive behind the paper's
// "round-robin 2-phase VC/switch allocators".
func roundRobin(req []bool, ptr *int) int {
	n := len(req)
	if n == 0 {
		return -1
	}
	if *ptr >= n {
		*ptr = 0
	}
	for i := 0; i < n; i++ {
		idx := (*ptr + i) % n
		if req[idx] {
			*ptr = (idx + 1) % n
			return idx
		}
	}
	return -1
}
