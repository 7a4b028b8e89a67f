package coherence

import (
	"fmt"
	"strings"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/sim"
)

// mapScanSingleWriter is the single-writer check as it was first written: a
// map from block address to the tile holding it exclusively, rebuilt over
// every valid L1 line. CheckSingleWriter must agree with it.
func mapScanSingleWriter(s *System) error {
	owner := map[cache.Addr]int{}
	for tile, l1 := range s.L1s {
		c := l1.Cache()
		cfg := c.Config()
		for set := 0; set < cfg.Sets(); set++ {
			hint := cache.Addr(set * cfg.LineBytes)
			for _, line := range c.Lines(hint) {
				if !line.Valid || (line.State != l1M && line.State != l1E) {
					continue
				}
				a := c.AddrOf(&line, hint)
				if prev, dup := owner[a]; dup {
					return fmt.Errorf("coherence: %#x held exclusively by both tile %d and tile %d", a, prev, tile)
				}
				owner[a] = tile
			}
		}
	}
	return nil
}

// install puts block a in tile's L1 in state st, in place when it is there.
func install(s *System, tile int, a cache.Addr, st uint8) {
	c := s.L1s[tile].Cache()
	if l, ok := c.Peek(a); ok {
		l.State = st
		return
	}
	c.Fill(c.Victim(a), a, st)
}

// TestCheckSingleWriter: two exclusive copies fail naming both tiles, an
// exclusive copy beside a shared one passes (only exclusive holders count),
// and random fills agree with the map scan, error text included.
func TestCheckSingleWriter(t *testing.T) {
	b := newTB(t, 4, 4, core.Options{})
	s := b.sys
	cfg := s.L1s[0].Cache().Config()
	block := func(set, tag int) cache.Addr { return cache.Addr((tag*cfg.Sets() + set) * cfg.LineBytes) }
	clearL1s := func() {
		for _, l1 := range s.L1s {
			for set := 0; set < cfg.Sets(); set++ {
				for tag := 0; tag < 16; tag++ {
					l1.Cache().Invalidate(block(set, tag))
				}
			}
		}
	}

	a := block(5, 3)
	install(s, 0, a, l1E)
	install(s, 2, a, l1S)
	install(s, 1, block(5, 4), l1M) // same set, other block
	if err := s.CheckSingleWriter(); err != nil {
		t.Fatalf("E beside S flagged: %v", err)
	}
	install(s, 3, a, l1M)
	err := s.CheckSingleWriter()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x held exclusively by both tile 0 and tile 3", a)) {
		t.Fatalf("double writer of %#x on tiles 0 and 3: got %v", a, err)
	}

	// Random fills over 4 sets x 12 tags: every tile takes shared copies of
	// any block and exclusive copies of the blocks it owns (tag mod tiles),
	// so a fill is clean until half the trials forge one more exclusive copy.
	rng := sim.NewRNG(11)
	tiles := len(s.L1s)
	forged := 0
	for trial := 0; trial < 300; trial++ {
		clearL1s()
		var exclusive []cache.Addr
		for tile := 0; tile < tiles; tile++ {
			for range 24 {
				set, tag := rng.Intn(4), rng.Intn(12)
				st := l1S
				if tag%tiles == tile {
					st = uint8(1 + rng.Intn(3)) // S, E or M
				}
				install(s, tile, block(set, tag), st)
			}
		}
		for tile, l1 := range s.L1s {
			for set := 0; set < 4; set++ {
				for tag := 0; tag < 12; tag++ {
					if l, ok := l1.Cache().Peek(block(set, tag)); ok && l.State != l1S && tag%tiles == tile {
						exclusive = append(exclusive, block(set, tag))
					}
				}
			}
		}
		if trial%2 == 1 && len(exclusive) > 0 {
			a := exclusive[rng.Intn(len(exclusive))]
			tile := (int(a/cache.Addr(cfg.LineBytes))/cfg.Sets()%tiles + 1 + rng.Intn(tiles-1)) % tiles
			install(s, tile, a, l1E)
			forged++
		}
		want, got := mapScanSingleWriter(s), s.CheckSingleWriter()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: CheckSingleWriter = %v, map scan %v", trial, got, want)
		}
	}
	if forged < 100 {
		t.Fatalf("only %d of 300 trials forged a second writer", forged)
	}
}
