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
// word, and Build refuses an image of another geometry.
func TestImageRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 2048, Ways: 8, LineBytes: 64, Interleave: 6},
		{SizeBytes: 1024, Ways: 4, LineBytes: 64},
	} {
		g := newGroup(cfg, 6, true)
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
					l.sharers, l.Owner = rng.Uint64(), int16(rng.Intn(6))
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

		back := new(Group).Build(cfg, 6, true, img)
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
			other := new(Group).Build(cfg, 6, true, img)
			change(other)
			if g.Diff(other) == nil {
				t.Fatalf("%+v: Diff missed a change to %s", cfg, what)
			}
		}
		if g.Diff(newGroup(Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}, 2, true)) == nil {
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
			new(Group).Build(other, 3, true, img)
		}()
	}
}

// scatter fills a fresh group of geometry cfg from seed — lines in about a
// third of the sets, each with a directory entry — and returns it.
func scatter(cfg Config, n int, seed uint64) *Group {
	g := newGroup(cfg, n, true)
	rng := sim.NewRNG(seed)
	for step := 0; step < n*cfg.Sets()*cfg.Ways/3; step++ {
		b, local := rng.Intn(n), rng.Intn(4*cfg.Sets())
		c, a := g.Cache(b), bankAddr(cfg, b, local)
		if _, ok := c.Lookup(a); !ok {
			v := c.Victim(a)
			c.Fill(v, a, 1)
			c.Dir(v).Add(rng.Intn(n))
		}
	}
	return g
}

// TestRebuildMatchesFresh is the slab invariant's property test: a group
// built over image A and written through every path a run writes by — a
// Lookup hit, a Peek and a state write, directory adds (into the spill
// words past 64 banks), a Victim pinned, a Fill and an Invalidate — is
// released and rebuilt on the same slab with A again (only the dirty sets
// are rewritten), with another image B, and with none, and each time must
// equal a fresh group built the same way and the group its image was
// captured from.
func TestRebuildMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		n   int
	}{
		{Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Interleave: 96}, 96}, // a spill word a line
		{Config{SizeBytes: 2048, Ways: 8, LineBytes: 64, Interleave: 6}, 6},
		{Config{SizeBytes: 1024, Ways: 4, LineBytes: 128}, 5}, // private caches
	} {
		cfg, n := tc.cfg, tc.n
		srcA, srcB := scatter(cfg, n, 1), scatter(cfg, n, 2)
		imgA, imgB := srcA.Capture(1<<30), srcB.Capture(1<<30)
		src := map[*Image]*Group{imgA: srcA, imgB: srcB, nil: newGroup(cfg, n, true)}
		rng := sim.NewRNG(uint64(n))
		for round, want := range []*Image{imgA, imgB, nil, imgA, imgA, nil, imgB} {
			g := new(Group).Build(cfg, n, false, imgA)
			// Lines A holds, found without marking their sets (Lines).
			var held []Addr
			var owner []int
			for b := 0; b < n; b++ {
				c := g.Cache(b)
				for s := 0; s < cfg.Sets(); s++ {
					hint := bankAddr(cfg, b, s)
					for w, l := range c.Lines(hint) {
						if l.Valid {
							held = append(held, c.AddrOf(&c.Lines(hint)[w], hint))
							owner = append(owner, b)
						}
					}
				}
			}
			pick := func() (*Cache, Addr, int) {
				i := rng.Intn(len(held))
				return g.Cache(owner[i]), held[i], i
			}
			for k := 0; k < 4; k++ {
				c, a, _ := pick()
				if _, ok := c.Lookup(a); !ok {
					t.Fatalf("n=%d: %#x is not held", n, a)
				}
				c, a, _ = pick()
				l, _ := c.Peek(a)
				l.State = 3
				c, a, _ = pick()
				l, _ = c.Peek(a)
				c.Dir(l).Add(n - 1)
				c, a, i := pick()
				c.Invalidate(a)
				held[i], owner[i] = held[len(held)-1], owner[len(owner)-1]
				held, owner = held[:len(held)-1], owner[:len(owner)-1]
			}
			// Writes that may evict, once the hits above are done.
			for k := 0; k < 4; k++ {
				b := rng.Intn(n)
				c, a := g.Cache(b), bankAddr(cfg, b, rng.Intn(4*cfg.Sets()))
				if v := c.Victim(a); v != nil {
					c.Fill(v, a, 2)
				}
				b = rng.Intn(n)
				c, a = g.Cache(b), bankAddr(cfg, b, rng.Intn(4*cfg.Sets()))
				if v := c.Victim(a); v != nil {
					v.Busy = true
				}
			}
			h := g.slab
			g.Release()
			got := new(Group).Build(cfg, n, false, want)
			if got.slab != h {
				t.Fatalf("n=%d round %d: the released slab did not come back", n, round)
			}
			if err := new(Group).Build(cfg, n, true, want).Diff(got); err != nil {
				t.Fatalf("n=%d round %d: the rebuilt group differs from a fresh one: %v", n, round, err)
			}
			if err := src[want].Diff(got); err != nil {
				t.Fatalf("n=%d round %d: the rebuilt group differs from its image's source: %v", n, round, err)
			}
			got.Release()
		}
	}
}
