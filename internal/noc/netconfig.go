package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
)

// NetConfig describes the network microarchitecture. The baseline follows
// Table 4; the Reactive Circuits variants adjust the reply virtual network's
// channel inventory.
type NetConfig struct {
	Mesh mesh.Mesh

	// VCsPerVN is the virtual-channel count of each virtual network.
	// Baseline: {2, 2}. Fragmented circuits add a third reply VC.
	VCsPerVN [NumVNs]int

	// BufDepth is the per-VC buffer depth in flits (Table 4: 5, enough to
	// store a whole data message).
	BufDepth int

	// ReplyCircuitVCs is how many reply VCs (the highest-numbered ones)
	// are dedicated to circuits: 0 baseline, 1 complete, 2 fragmented.
	ReplyCircuitVCs int

	// CircuitVCUnbuffered removes the buffers from circuit VCs (the
	// complete-circuits simplification that shrinks router area).
	CircuitVCUnbuffered bool

	// ReqRouting / RepRouting are the dimension-order algorithms for each
	// virtual network. The baseline uses XY for both; every circuit
	// variant uses XY/YX so requests and replies share routers.
	ReqRouting mesh.Routing
	RepRouting mesh.Routing

	// AllowQueueOvertake lets an NI inject a queued message past an
	// earlier one whose injection hook is still holding it back (used by
	// the probe-setup comparator, where replies wait for their setup
	// flit to finish and would otherwise serialize the interface).
	AllowQueueOvertake bool

	// Speculative enables the related-work comparator of the paper's
	// references [16-19]: a head flit arriving at an idle input VC may
	// cross the router in a single cycle when an output VC is free and
	// no other flit wants the crossbar ports — "routers that speculate by
	// using paths without prior reservation, which only work if there is
	// no contention". Mutually exclusive with a circuit handler.
	Speculative bool

	// NoPool disables the flit/message free-lists, keeping the allocating
	// path as the reference the differ's no-pool leg and the golden
	// cross-check compare against. Pooled and unpooled runs are
	// bit-identical — the free-lists only change where objects come from,
	// never what the simulation does with them.
	NoPool bool

	// LinkLanes divides every inter-router link into that many equal-width
	// lanes (spatial-division multiplexing): lane 0 carries packet traffic,
	// lanes 1..LinkLanes-1 carry one circuit each. A flit on a 1/L-width
	// lane serializes over L cycles, so per-flit link latency grows by
	// LinkLanes-1 cycles and each lane accepts a new flit only every
	// LinkLanes cycles. 0 or 1 leaves links undivided. NI injection and
	// ejection links are never divided.
	LinkLanes int
}

// Validate checks internal consistency.
func (c *NetConfig) Validate() error {
	if c.Mesh.Width <= 0 || c.Mesh.Height <= 0 {
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Mesh.Width, c.Mesh.Height)
	}
	if c.BufDepth <= 0 {
		return fmt.Errorf("noc: invalid buffer depth %d", c.BufDepth)
	}
	for vn, n := range c.VCsPerVN {
		if n <= 0 {
			return fmt.Errorf("noc: VN %d has %d VCs", vn, n)
		}
	}
	if c.ReplyCircuitVCs < 0 || c.ReplyCircuitVCs >= c.VCsPerVN[VNReply] {
		return fmt.Errorf("noc: %d circuit VCs leaves no non-circuit reply VC (reply VN has %d)",
			c.ReplyCircuitVCs, c.VCsPerVN[VNReply])
	}
	if c.LinkLanes != 0 && (c.LinkLanes < 2 || c.LinkLanes > 8) {
		return fmt.Errorf("noc: %d link lanes (want 0, or 2..8)", c.LinkLanes)
	}
	if c.LinkLanes > 1 && c.Speculative {
		return fmt.Errorf("noc: speculative router cannot drive lane-divided links")
	}
	return nil
}

// Routing returns the routing function used by virtual network vn.
func (c *NetConfig) Routing(vn int) mesh.Routing {
	if vn == VNRequest {
		return c.ReqRouting
	}
	return c.RepRouting
}

// IsCircuitVC reports whether (vn, vc) is dedicated to circuit traffic and
// therefore never assigned by the VC allocator.
func (c *NetConfig) IsCircuitVC(vn, vc int) bool {
	return vn == VNReply && vc >= c.VCsPerVN[VNReply]-c.ReplyCircuitVCs
}

// VCBuffered reports whether (vn, vc) has buffer storage.
func (c *NetConfig) VCBuffered(vn, vc int) bool {
	return !(c.CircuitVCUnbuffered && c.IsCircuitVC(vn, vc))
}

// AllocatableVCs returns the VC indices of vn the allocator (and NI
// injection) may choose freely.
func (c *NetConfig) AllocatableVCs(vn int) int {
	if vn == VNReply {
		return c.VCsPerVN[VNReply] - c.ReplyCircuitVCs
	}
	return c.VCsPerVN[vn]
}

// CircuitVC returns the index of the first circuit VC in the reply VN, or
// -1 when the configuration has none.
func (c *NetConfig) CircuitVC() int {
	if c.ReplyCircuitVCs == 0 {
		return -1
	}
	return c.VCsPerVN[VNReply] - c.ReplyCircuitVCs
}

// BaselineConfig returns the Table 4 network for the given mesh.
func BaselineConfig(m mesh.Mesh) NetConfig {
	return NetConfig{
		Mesh:       m,
		VCsPerVN:   [NumVNs]int{2, 2},
		BufDepth:   5,
		ReqRouting: mesh.RouteXY,
		RepRouting: mesh.RouteXY,
	}
}
