// Package trace records message-lifecycle events — enqueue, injection,
// delivery, circuit reservation, rides, teardowns, eliminations — into a
// bounded ring buffer, cheap enough to leave attached during experiments
// and precise enough to reconstruct any transaction cycle by cycle.
package trace

import (
	"fmt"
	"strings"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// Enqueue: the message entered its source NI queue.
	Enqueue Kind = iota + 1
	// Inject: the head flit left the NI.
	Inject
	// Deliver: the tail flit reached the destination NI.
	Deliver
	// Reserve: a request installed one router's circuit entry.
	Reserve
	// CircuitBuilt: a reservation walk completed end to end.
	CircuitBuilt
	// CircuitFailed: a reservation walk hit a conflict or full storage.
	CircuitFailed
	// CircuitRide: a reply committed to its circuit at injection.
	CircuitRide
	// CircuitUndone: a built circuit was torn down before use.
	CircuitUndone
	// Scrounge: a reply borrowed a foreign circuit.
	Scrounge
	// AckEliminated: an L1_DATA_ACK was removed by NoAck.
	AckEliminated
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Enqueue:
		return "enqueue"
	case Inject:
		return "inject"
	case Deliver:
		return "deliver"
	case Reserve:
		return "reserve"
	case CircuitBuilt:
		return "circuit-built"
	case CircuitFailed:
		return "circuit-failed"
	case CircuitRide:
		return "circuit-ride"
	case CircuitUndone:
		return "circuit-undone"
	case Scrounge:
		return "scrounge"
	case AckEliminated:
		return "ack-eliminated"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Cycle
	Kind Kind
	// Msg is the message id (0 when the event is not message-bound).
	Msg uint64
	// Node is where the event happened.
	Node mesh.NodeID
	// Note carries free-form context (message type, ports, windows).
	Note string
}

// String renders one event.
func (e Event) String() string {
	return fmt.Sprintf("@%-7d %-14s msg=%-6d node=%-3d %s", e.At, e.Kind, e.Msg, e.Node, e.Note)
}

// Buffer is a bounded ring of events. A nil *Buffer is a valid no-op
// tracer, so call sites need no guards beyond the nil receiver check Go
// performs anyway.
type Buffer struct {
	events []Event
	next   int
	full   bool
	total  int64
}

// New returns a buffer keeping the last capacity events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Record appends an event; the oldest is overwritten when full. Recording
// on a nil buffer is a no-op.
func (b *Buffer) Record(at sim.Cycle, kind Kind, msg uint64, node mesh.NodeID, note string) {
	if b == nil {
		return
	}
	b.events[b.next] = Event{At: at, Kind: kind, Msg: msg, Node: node, Note: note}
	b.next++
	b.total++
	if b.next == len(b.events) {
		b.next = 0
		b.full = true
	}
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	if b.full {
		return len(b.events)
	}
	return b.next
}

// Total returns the number of events ever recorded.
func (b *Buffer) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Events returns the retained events, oldest first.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, b.Len())
	if b.full {
		out = append(out, b.events[b.next:]...)
	}
	out = append(out, b.events[:b.next]...)
	return out
}

// String renders the whole buffer.
func (b *Buffer) String() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
