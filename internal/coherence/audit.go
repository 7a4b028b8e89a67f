package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/sim"
)

// AuditCoherence verifies the protocol's steady-state invariants across
// every cache and directory: inclusion (an L1 line is present in its home
// bank), ownership (a directory owner actually holds the line exclusively),
// sharer soundness (an L1 shared copy has its directory record) and
// single-writer (at most one exclusive copy, never alongside others).
// It may be called at any quiescent point.
func (s *System) AuditCoherence() error {
	type holder struct {
		tile  int
		state uint8
	}
	lines := map[cache.Addr][]holder{}
	for tile, l1 := range s.L1s {
		c := l1.Cache()
		cfg := c.Config()
		for set := 0; set < cfg.Sets(); set++ {
			hint := cache.Addr(set * cfg.LineBytes)
			for _, line := range c.Lines(hint) {
				if !line.Valid {
					continue
				}
				a := c.AddrOf(&line, hint)
				lines[a] = append(lines[a], holder{tile: tile, state: line.State})
			}
		}
	}
	for a, hs := range lines {
		home := s.HomeBank(a)
		bank := s.L2s[home].Cache()
		l2line, ok := bank.Peek(a)
		if !ok {
			return fmt.Errorf("coherence: inclusion violated: %#x cached in L1 but absent from bank %d", a, home)
		}
		exclusive := 0
		for _, h := range hs {
			switch h.state {
			case l1M, l1E:
				exclusive++
				if int(l2line.Owner) != h.tile {
					return fmt.Errorf("coherence: %#x: tile %d holds E/M but directory owner is %d",
						a, h.tile, l2line.Owner)
				}
			case l1S:
				if !bank.Dir(l2line).Has(h.tile) && int(l2line.Owner) != h.tile {
					return fmt.Errorf("coherence: %#x: tile %d holds S without a directory record", a, h.tile)
				}
			}
		}
		if exclusive > 1 {
			return fmt.Errorf("coherence: %#x has %d exclusive holders", a, exclusive)
		}
		if exclusive == 1 && len(hs) > 1 {
			return fmt.Errorf("coherence: %#x: exclusive copy coexists with %d other copies", a, len(hs))
		}
	}
	return nil
}

// AuditQuiescent runs every layer's leak and conservation audit: the
// protocol controllers, the network and — when circuits are enabled — the
// mechanism state. The system must be idle.
func (s *System) AuditQuiescent(now sim.Cycle) error {
	if s.Busy() {
		return fmt.Errorf("coherence: audit requires an idle system")
	}
	for i := range s.L1s {
		if s.L1s[i].txn != nil {
			return fmt.Errorf("coherence: L1 %d retains a transaction", i)
		}
		if n := len(s.L1s[i].wb); n != 0 {
			return fmt.Errorf("coherence: L1 %d retains %d write-back entries", i, n)
		}
		if n := len(s.L2s[i].txns); n != 0 {
			return fmt.Errorf("coherence: L2 %d retains %d blocked lines", i, n)
		}
		for a, q := range s.L2s[i].waiting {
			if len(q) != 0 {
				return fmt.Errorf("coherence: L2 %d retains %d queued requests for %#x", i, len(q), a)
			}
		}
	}
	if err := s.AuditCoherence(); err != nil {
		return err
	}
	if err := s.Net.AuditQuiescent(); err != nil {
		return err
	}
	if s.Mgr != nil {
		if err := s.Mgr.AuditQuiescent(now); err != nil {
			return err
		}
	}
	return nil
}
