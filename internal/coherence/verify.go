package coherence

import (
	"fmt"
	"slices"

	"reactivenoc/internal/cache"
)

// CheckSingleWriter is the online slice of the coherence audit: at most one
// L1 may hold a line exclusively (E or M) at any cycle boundary, even
// mid-transaction. The remaining AuditCoherence invariants (inclusion,
// directory owner/sharer agreement) are legitimately violated while a
// transfer is in flight and stay quiescent-only; two simultaneous writers
// never are.
//
// Every L1 is a private cache of one geometry with no interleave (one
// cache.NewGroup of cache.L1Config), so a block maps to the same set index
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
