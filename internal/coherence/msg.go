// Package coherence implements the directory-based MESI protocol of the
// modelled chip (Tables 2 and 3): private L1s, a shared inclusive L2
// distributed one bank per tile with the directory embedded in the banks,
// direct L1-to-L1 data transfers, write-back L1 replacements, and memory
// controllers at the chip edges.
//
// The protocol is the traffic generator Reactive Circuits exploits: every
// message sequence of Table 3 is produced here, requests reserve circuits
// for their replies, and the NoAck optimization (Section 4.6) eliminates
// L1_DATA_ACK messages when the data reply is guaranteed to ride a complete
// circuit.
package coherence

import (
	"fmt"

	"reactivenoc/internal/sim"
)

// MsgType enumerates the protocol messages of Table 3. The values are
// carried in noc.Message.Type.
type MsgType int

const (
	// Requests (virtual network 0).

	// MsgGetS asks the home L2 bank for read access to a line.
	MsgGetS MsgType = iota + 1
	// MsgGetX asks the home L2 bank for write access to a line.
	MsgGetX
	// MsgFwd is the L2 forwarding a request to the L1 that owns the line
	// exclusively; ownership migrates to the requestor.
	MsgFwd
	// MsgInv invalidates an L1 copy (writes and L2 replacements).
	MsgInv
	// MsgWBData carries a replaced L1 line's data to the home L2 bank.
	MsgWBData
	// MsgMemFetch asks a memory controller for a line on an L2 miss.
	MsgMemFetch
	// MsgMemWB carries a replaced L2 line's data to a memory controller.
	MsgMemWB

	// Replies (virtual network 1).

	// MsgL2Reply is data from an L2 bank to an L1 (circuit-eligible).
	MsgL2Reply
	// MsgL1ToL1 is data sent directly from the owning L1 to the
	// requesting L1 (not eligible: its path has no prior request).
	MsgL1ToL1
	// MsgDataAck acknowledges data reception to the home L2 bank; the
	// NoAck optimization eliminates it when the data rode a circuit.
	MsgDataAck
	// MsgWBAck acknowledges a write-back to the replacing L1
	// (circuit-eligible: the WBData reserves it).
	MsgWBAck
	// MsgInvAck acknowledges an invalidation to the home L2 bank.
	MsgInvAck
	// MsgInvAckData is an invalidation acknowledgement carrying modified
	// data — the recall path when the L2 evicts a line an L1 owns.
	MsgInvAckData
	// MsgMemData is line data from a memory controller to an L2 bank
	// (circuit-eligible).
	MsgMemData
	// MsgMemAck acknowledges an L2 write-back at the memory controller
	// (circuit-eligible; the paper's MEMORY class covers both).
	MsgMemAck
	// MsgFwdMiss tells the home L2 that a forwarded request found no copy
	// (the owner silently replaced a clean line); the L2 serves the data
	// itself.
	MsgFwdMiss

	numMsgTypes
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgGetS:
		return "GetS"
	case MsgGetX:
		return "GetX"
	case MsgFwd:
		return "Fwd"
	case MsgInv:
		return "Inv"
	case MsgWBData:
		return "WB_Data"
	case MsgMemFetch:
		return "Mem_Fetch"
	case MsgMemWB:
		return "Mem_WB"
	case MsgL2Reply:
		return "L2_Reply"
	case MsgL1ToL1:
		return "L1_to_L1"
	case MsgDataAck:
		return "L1_DATA_ACK"
	case MsgWBAck:
		return "L2_WB_ACK"
	case MsgInvAck:
		return "L1_INV_ACK"
	case MsgInvAckData:
		return "L1_INV_ACK_Data"
	case MsgMemData:
		return "MEMORY_Data"
	case MsgMemAck:
		return "MEMORY_Ack"
	case MsgFwdMiss:
		return "Fwd_Miss"
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// IsReply reports whether the type travels on the reply virtual network.
func (t MsgType) IsReply() bool { return t >= MsgL2Reply }

// SizeFlits returns the message length: data messages carry a 64-byte line
// over 16-byte flits plus a header flit; control messages are one flit.
func (t MsgType) SizeFlits() int {
	switch t {
	case MsgWBData, MsgMemWB, MsgL2Reply, MsgL1ToL1, MsgInvAckData, MsgMemData:
		return 5
	}
	return 1
}

// CircuitEligibleReply reports whether this reply type can ride a reactive
// circuit (the Circuit_Rep class of Figure 7).
func (t MsgType) CircuitEligibleReply() bool {
	switch t {
	case MsgL2Reply, MsgWBAck, MsgMemData, MsgMemAck:
		return true
	}
	return false
}

// ReservesCircuit reports whether a request of this type reserves a
// reactive circuit for its reply (Section 4.1: L2_Replies, L2_WB_ACK and
// MEMORY replies; Table 1's circuit-eligible share).
func (t MsgType) ReservesCircuit() bool {
	switch t {
	case MsgGetS, MsgGetX, MsgWBData, MsgMemFetch, MsgMemWB:
		return true
	}
	return false
}

// ExpectedReply returns the reply type a circuit-reserving request
// anticipates and the processing-latency estimate used by timed
// reservations (cache hit latency / memory latency).
func (t MsgType) ExpectedReply() (MsgType, sim.Cycle) {
	switch t {
	case MsgGetS, MsgGetX:
		return MsgL2Reply, L2HitLatency
	case MsgWBData:
		return MsgWBAck, L2HitLatency
	case MsgMemFetch:
		return MsgMemData, MemLatency
	case MsgMemWB:
		return MsgMemAck, MemLatency
	}
	return 0, 0
}

// Protocol latencies (Table 2).
const (
	// L1HitLatency is the L1 access pipe, also charged to snoop-style
	// lookups (forwards, invalidations).
	L1HitLatency sim.Cycle = 2
	// L2HitLatency is the bank access pipe.
	L2HitLatency sim.Cycle = 7
	// MemLatency is the memory controller's service latency.
	MemLatency sim.Cycle = 160
)

// Payload is the transaction context carried inside noc.Message.Payload,
// packed into a uint64 so sending never boxes (Pack/UnpackPayload are
// lossless inverses; see TestPayloadPackRoundTrip).
type Payload struct {
	// Requestor is the original requesting tile (needed by forwards).
	Requestor int
	// Write distinguishes GetX-origin forwards and replies.
	Write bool
	// Exclusive marks an L2 data reply granting E instead of S.
	Exclusive bool
	// Dirty marks data that is modified relative to memory (migrated
	// M lines, recalled modified data). On an L1_DATA_ACK it tells the
	// directory the forwarded data was modified.
	Dirty bool
	// OwnerKept, on L1-to-L1 transfers and their acks, reports that the
	// previous owner kept a shared copy (GetS downgrades; GetX and
	// replacement-race forwards do not).
	OwnerKept bool
	// NoAck marks a data reply whose L1_DATA_ACK was eliminated.
	NoAck bool
}

// Payload bit layout: Requestor in the low 16 bits, one flag bit each above.
const (
	plWrite uint64 = 1 << (16 + iota)
	plExclusive
	plDirty
	plOwnerKept
	plNoAck
)

// Pack encodes the payload into the word carried by noc.Message.
func (p Payload) Pack() uint64 {
	v := uint64(uint16(p.Requestor))
	if p.Write {
		v |= plWrite
	}
	if p.Exclusive {
		v |= plExclusive
	}
	if p.Dirty {
		v |= plDirty
	}
	if p.OwnerKept {
		v |= plOwnerKept
	}
	if p.NoAck {
		v |= plNoAck
	}
	return v
}

// UnpackPayload decodes a word packed by Pack.
func UnpackPayload(v uint64) Payload {
	return Payload{
		Requestor: int(uint16(v)),
		Write:     v&plWrite != 0,
		Exclusive: v&plExclusive != 0,
		Dirty:     v&plDirty != 0,
		OwnerKept: v&plOwnerKept != 0,
		NoAck:     v&plNoAck != 0,
	}
}
