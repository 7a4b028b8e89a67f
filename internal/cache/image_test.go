package cache

import (
	"slices"
	"testing"

	"reactivenoc/internal/sim"
)

// TestImageRoundTrip: a group left sparse and dirty by fills, lookups,
// scribbles and invalidations, captured and restored over a fresh group of
// its geometry, is that group again — slab for slab, counter for counter.
// Capture honours its byte limit exactly, Diff sees a single changed PLRU
// word, and Restore refuses another geometry.
func TestImageRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 2048, Ways: 8, LineBytes: 64, Interleave: 6},
		{SizeBytes: 1024, Ways: 4, LineBytes: 64},
	} {
		g := NewGroup(cfg, 6, true)
		rng := sim.NewRNG(uint64(cfg.Ways))
		span := 2 * 6 * cfg.Sets() * cfg.Ways
		for step := 0; step < 400; step++ {
			line := rng.Intn(span)
			a := Addr(line * cfg.LineBytes)
			c := g.Cache(rng.Intn(6))
			if cfg.Interleave > 1 {
				c = g.Cache(line % 6)
			}
			switch rng.Intn(4) {
			case 0:
				c.Invalidate(a)
			case 1:
				if l, ok := c.Peek(a); ok {
					l.Sharers, l.Owner = rng.Uint64(), int16(rng.Intn(6))
				}
			default:
				if _, ok := c.Lookup(a); !ok {
					c.Fill(c.Victim(a), a, 1)
				}
			}
		}

		img := g.Capture(1 << 30)
		if n := len(img.lines); n == 0 || n == len(g.slab.lines) {
			t.Fatalf("%+v: captured %d of %d lines, want a sparse group", cfg, n, len(g.slab.lines))
		}
		if g.Capture(img.Bytes()-1) != nil || g.Capture(img.Bytes()) == nil || g.Capture(0) != nil {
			t.Fatalf("%+v: Capture does not honour a limit of exactly %d bytes", cfg, img.Bytes())
		}

		back := NewGroup(cfg, 6, true)
		back.Restore(img)
		if err := g.Diff(back); err != nil {
			t.Fatalf("%+v: restored group differs: %v", cfg, err)
		}
		if !slices.Equal(g.slab.lines, back.slab.lines) || !slices.Equal(g.slab.plru, back.slab.plru) {
			t.Fatalf("%+v: restored slab differs while Diff reports none", cfg)
		}
		for what, change := range map[string]func(*Group){
			"a PLRU word": func(o *Group) { o.slab.plru[len(o.slab.plru)-1] ^= 1 },
			"a line":      func(o *Group) { o.slab.lines[len(o.slab.lines)-1].Busy = true },
			"a counter":   func(o *Group) { o.Cache(5).Evictions++ },
		} {
			other := NewGroup(cfg, 6, true)
			other.Restore(img)
			change(other)
			if g.Diff(other) == nil {
				t.Fatalf("%+v: Diff missed a change to %s", cfg, what)
			}
		}
		if g.Diff(NewGroup(Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}, 2, true)) == nil {
			t.Fatalf("%+v: Diff missed another geometry", cfg)
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: restoring over another geometry did not panic", cfg)
				}
			}()
			other := cfg
			other.Interleave = 0
			NewGroup(other, 3, true).Restore(img)
		}()
	}
}
