package coherence

import (
	"fmt"
	"slices"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
)

// CheckSingleWriter is the online slice of the coherence audit: at most one
// L1 may hold a line exclusively (E or M) at any cycle boundary, even
// mid-transaction. The remaining AuditCoherence invariants (inclusion,
// directory owner/sharer agreement) are legitimately violated while a
// transfer is in flight and stay quiescent-only; two simultaneous writers
// never are.
//
// Every L1 is a private cache of one geometry with no interleave (one
// cache.Group of cache.L1Config), so a block maps to the same set index
// on every tile, and equal tags in one set index are the same block. The
// check therefore walks set by set, gathers that set's exclusive tags
// across tiles into one reused slice, and looks for a repeat.
func (s *System) CheckSingleWriter() error {
	cfg := s.L1s[0].Cache().Config()
	tags := s.exclusiveTags
	for set := 0; set < cfg.Sets(); set++ {
		hint := cache.Addr(set * cfg.LineBytes)
		tags = tags[:0]
		for _, l1 := range s.L1s {
			for _, line := range l1.Cache().Lines(hint) {
				if line.Valid && (line.State == l1M || line.State == l1E) {
					tags = append(tags, line.Tag)
				}
			}
		}
		if len(tags) < 2 {
			continue
		}
		slices.Sort(tags)
		for i := 1; i < len(tags); i++ {
			if tags[i] == tags[i-1] {
				return s.doubleWriter(s.L1s[0].Cache().AddrOf(&cache.Line{Tag: tags[i]}, hint))
			}
		}
	}
	s.exclusiveTags = tags
	return nil
}

// doubleWriter names the first two tiles holding block a exclusively.
func (s *System) doubleWriter(a cache.Addr) error {
	var tiles []int
	for tile, l1 := range s.L1s {
		if line, ok := l1.Cache().Peek(a); ok && (line.State == l1M || line.State == l1E) {
			tiles = append(tiles, tile)
		}
	}
	return fmt.Errorf("coherence: %#x held exclusively by both tile %d and tile %d", a, tiles[0], tiles[1])
}

// orderOracle is the NoAck delivery-order oracle (DESIGN.md §5, "NoAck
// soundness"): a data reply whose L1_DATA_ACK the bank eliminated must
// reach its L1 before any message the same bank sent that L1 after it, or
// the line the bank unblocked at send time could be invalidated, forwarded
// or written back around the data. It compares message ids, which the
// network hands out in send order, per (bank, L1) pair: pending[t] holds
// tile t's NoAck replies not yet taken, and err the first breach.
type orderOracle struct {
	pending [][]sentReply
	err     error
}

type sentReply struct {
	bank mesh.NodeID
	id   uint64
}

// ArmDeliveryOrder arms the delivery-order oracle, which the verification
// suite does for every policy that can eliminate acks. A rebuilt system
// comes back disarmed.
func (s *System) ArmDeliveryOrder() {
	s.order = &orderOracle{pending: make([][]sentReply, s.M.Nodes())}
}

// CheckDeliveryOrder returns the first breach the delivery-order oracle
// saw, or nil (also when it is not armed).
func (s *System) CheckDeliveryOrder() error {
	if s.order == nil {
		return nil
	}
	return s.order.err
}

// sent records a NoAck data reply the network numbered id.
func (o *orderOracle) sent(bank, tile mesh.NodeID, id uint64) {
	o.pending[tile] = append(o.pending[tile], sentReply{bank, id})
}

// took checks a message L1 tile takes from its queue: a message from a
// bank must not overtake a NoAck reply that bank sent the tile first. L1 to
// L1 transfers come from no bank and are not ordered against its replies.
func (o *orderOracle) took(tile mesh.NodeID, msg *noc.Message) {
	if MsgType(msg.Type) == MsgL1ToL1 {
		return
	}
	p := o.pending[tile]
	for i := 0; i < len(p); i++ {
		r := p[i]
		switch {
		case r.bank != msg.Src:
		case r.id == msg.ID:
			p = slices.Delete(p, i, i+1)
			i--
		case r.id < msg.ID && o.err == nil:
			o.err = fmt.Errorf("coherence: L1 %d took %v #%d from bank %d ahead of the NoAck data reply #%d the bank sent it first",
				tile, MsgType(msg.Type), msg.ID, r.bank, r.id)
		}
	}
	o.pending[tile] = p
}
