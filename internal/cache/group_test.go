package cache

import (
	"runtime"
	"testing"
	"unsafe"

	"reactivenoc/internal/sim"
)

// TestLineSize pins the packed line. Growing it is ROADMAP item 1's
// deliberate decision (a sharer set wider than 64 tiles), not an accident:
// a 64-tile chip holds a million lines, so every 8 bytes here is 8 MB.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 24", got)
	}
}

// bankAddr returns the address of local line number local in cache b of a
// group of geometry cfg.
func bankAddr(cfg Config, b, local int) Addr {
	if cfg.Interleave > 1 {
		local = local*cfg.Interleave + b
	}
	return Addr(local * cfg.LineBytes)
}

// wayOf returns which way of a's set l is, or -1 for nil.
func wayOf(t *testing.T, c *Cache, l *Line, a Addr) int {
	t.Helper()
	if l == nil {
		return -1
	}
	lines, _, _ := c.set(a)
	for w := range lines {
		if &lines[w] == l {
			return w
		}
	}
	t.Fatalf("line for %#x is not in its set", a)
	return -1
}

// TestGroupMatchesStandalone is the proof that the slab layout is only a
// layout: every cache of a group and a standalone New of the same
// Interleave/InterleaveIndex are driven through one seeded random sequence
// of every operation, and must agree on every return, every way choice,
// the PLRU word after every step and the three counters. Bank counts cover
// the non-power-of-two meshes the suites build (3x3, 4x3).
func TestGroupMatchesStandalone(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 1024, Ways: 4, LineBytes: 64},   // 4 sets
		{SizeBytes: 16384, Ways: 16, LineBytes: 64}, // 16 sets, the L2's associativity
	}
	for _, n := range []int{1, 4, 9, 12, 64} {
		for _, geom := range geoms {
			for _, banked := range []bool{true, false} {
				cfg := geom
				if banked {
					cfg.Interleave = n
				}
				g := NewGroup(cfg, n, true)
				refs := make([]*Cache, n)
				for b := range refs {
					rc := cfg
					if banked {
						rc.InterleaveIndex = b
					}
					refs[b] = New(rc)
				}
				rng := sim.NewRNG(uint64(1000*n + cfg.Ways))
				// Three times the group's capacity in distinct lines, so
				// sets fill, conflict and evict.
				span := 3 * n * cfg.Sets() * cfg.Ways
				for step := 0; step < 2000*min(n, 8); step++ {
					line := rng.Intn(span)
					a := Addr(line*cfg.LineBytes + rng.Intn(cfg.LineBytes))
					b := rng.Intn(n)
					if banked {
						b = line % n // the home bank, as coherence routes it
					}
					got, want := g.Cache(b), refs[b]
					switch op := rng.Intn(8); op {
					case 0, 1:
						gl, gok := got.Lookup(a)
						wl, wok := want.Lookup(a)
						if gok != wok || wayOf(t, got, gl, a) != wayOf(t, want, wl, a) {
							t.Fatalf("n=%d step %d: Lookup(%#x) = way %d/%v, standalone way %d/%v",
								n, step, a, wayOf(t, got, gl, a), gok, wayOf(t, want, wl, a), wok)
						}
					case 2:
						gl, gok := got.Peek(a)
						wl, wok := want.Peek(a)
						if gok != wok || wayOf(t, got, gl, a) != wayOf(t, want, wl, a) {
							t.Fatalf("n=%d step %d: Peek(%#x) diverged", n, step, a)
						}
						if gok { // scribble the protocol-owned fields identically
							st, sh, own, busy := uint8(rng.Intn(4)), rng.Uint64(), int16(rng.Intn(n)), rng.Bool(0.2)
							gl.State, gl.Sharers, gl.Owner, gl.Busy = st, sh, own, busy
							wl.State, wl.Sharers, wl.Owner, wl.Busy = st, sh, own, busy
						}
					case 3, 4:
						if _, ok := want.Peek(a); ok {
							continue
						}
						gv, wv := got.Victim(a), want.Victim(a)
						if wayOf(t, got, gv, a) != wayOf(t, want, wv, a) {
							t.Fatalf("n=%d step %d: Victim(%#x) = way %d, standalone way %d",
								n, step, a, wayOf(t, got, gv, a), wayOf(t, want, wv, a))
						}
						if wv == nil {
							continue
						}
						if ga, wa := got.AddrOf(gv, a), want.AddrOf(wv, a); ga != wa {
							t.Fatalf("n=%d step %d: AddrOf = %#x, standalone %#x", n, step, ga, wa)
						}
						st := uint8(1 + rng.Intn(3))
						got.Fill(gv, a, st)
						want.Fill(wv, a, st)
					case 5:
						got.Invalidate(a)
						want.Invalidate(a)
					case 6:
						gl, wl := got.Lines(a), want.Lines(a)
						for w := range wl {
							if gl[w] != wl[w] {
								t.Fatalf("n=%d step %d: Lines(%#x)[%d] = %+v, standalone %+v", n, step, a, w, gl[w], wl[w])
							}
						}
					case 7: // unpin a set so Victim keeps finding ways
						gl, _, _ := got.set(a)
						wl, _, _ := want.set(a)
						for w := range wl {
							gl[w].Busy, wl[w].Busy = false, false
						}
					}
					_, gp, _ := got.set(a)
					_, wp, _ := want.set(a)
					if *gp != *wp {
						t.Fatalf("n=%d step %d: PLRU word %#x, standalone %#x", n, step, *gp, *wp)
					}
					if got.Hits != want.Hits || got.Misses != want.Misses || got.Evictions != want.Evictions {
						t.Fatalf("n=%d step %d: counters %d/%d/%d, standalone %d/%d/%d", n, step,
							got.Hits, got.Misses, got.Evictions, want.Hits, want.Misses, want.Evictions)
					}
				}
				// Whole-array agreement at the end: nothing leaked across banks.
				for b := 0; b < n; b++ {
					for s := 0; s < cfg.Sets(); s++ {
						hint := bankAddr(cfg, b, s)
						gl, wl := g.Cache(b).Lines(hint), refs[b].Lines(hint)
						for w := range wl {
							if gl[w] != wl[w] {
								t.Fatalf("n=%d bank %d set %d way %d: %+v, standalone %+v", n, b, s, w, gl[w], wl[w])
							}
						}
					}
				}
			}
		}
	}
}

// TestBanksInterleaveLikeAddresses pins the point of the layout: in a
// banked group the set of line a+1 starts where the set of line a ends, so
// a walk over consecutive lines (System.Prefill's order) is a sequential
// walk of the slab; private caches sit one after another instead.
func TestBanksInterleaveLikeAddresses(t *testing.T) {
	for _, n := range []int{4, 9, 64} {
		cfg := Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Interleave: n}
		g := NewGroup(cfg, n, true)
		for line := 0; line < n*cfg.Sets(); line++ {
			lines, plru, _ := g.Cache(line % n).set(Addr(line * 64))
			if &lines[0] != &g.slab.lines[line*cfg.Ways] || plru != &g.slab.plru[line] {
				t.Fatalf("n=%d: line %d's set is not slot %d of the slab", n, line, line)
			}
		}
		cfg.Interleave = 0
		p := NewGroup(cfg, n, true)
		for b := 0; b < n; b++ {
			lines, _, _ := p.Cache(b).set(0)
			if &lines[0] != &p.slab.lines[b*cfg.Sets()*cfg.Ways] {
				t.Fatalf("n=%d: private cache %d does not start at its own block", n, b)
			}
		}
	}
}

func TestNewGroupRejectsMismatchedInterleave(t *testing.T) {
	for _, tc := range []struct{ interleave, n int }{{4, 3}, {0, 0}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGroup accepted %d caches over interleave %d", tc.n, tc.interleave)
				}
			}()
			NewGroup(Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Interleave: tc.interleave}, tc.n, true)
		}()
	}
}

// dirty scribbles on everything a run can leave behind: every field of
// every line, every PLRU word (through lookups) and the three counters.
func dirty(g *Group, cfg Config) {
	for b := range g.caches {
		c := g.Cache(b)
		// Two rounds of every way and one more fill per set: ending on way 0
		// leaves every PLRU word non-zero.
		for i := 0; i < (2*cfg.Ways+1)*cfg.Sets(); i++ {
			a := bankAddr(cfg, b, i)
			if _, ok := c.Lookup(a); !ok {
				c.Fill(c.Victim(a), a, 3)
			}
			c.Lookup(a)
		}
	}
	for i := range g.slab.lines {
		g.slab.lines[i] = Line{Tag: ^uint64(0), Sharers: ^uint64(0), Owner: 7, State: 255, Valid: true, Busy: true}
	}
}

// mustBeEmpty requires the state a fresh build has.
func mustBeEmpty(t *testing.T, g *Group) {
	t.Helper()
	for i, l := range g.slab.lines {
		if l != (Line{Owner: -1}) {
			t.Fatalf("line %d = %+v, want Line{Owner: -1}", i, l)
		}
	}
	for i, p := range g.slab.plru {
		if p != 0 {
			t.Fatalf("PLRU word %d = %#x, want 0", i, p)
		}
	}
	for b := range g.caches {
		if c := g.Cache(b); c.Hits != 0 || c.Misses != 0 || c.Evictions != 0 {
			t.Fatalf("cache %d counters %d/%d/%d, want zero", b, c.Hits, c.Misses, c.Evictions)
		}
	}
}

// TestRecycledGroupIsFresh gives recycling its teeth: a group dirtied in
// every field comes back — the same backing arrays, so the reset is what is
// being tested — indistinguishable from a fresh build, under either layout.
func TestRecycledGroupIsFresh(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 8, LineBytes: 64, Interleave: 6}
	g := NewGroup(cfg, 6, false)
	mustBeEmpty(t, g)
	dirty(g, cfg)
	for i, p := range g.slab.plru {
		if p == 0 {
			t.Fatalf("PLRU word %d untouched: the test did not dirty the group", i)
		}
	}
	lines, plru := &g.slab.lines[0], &g.slab.plru[0]
	g.Release()

	again := NewGroup(cfg, 6, false)
	if &again.slab.lines[0] != lines || &again.slab.plru[0] != plru {
		t.Fatal("the released arrays did not come back: the free list missed")
	}
	mustBeEmpty(t, again)
	dirty(again, cfg)
	again.Release()

	// The same totals under the private layout draw the same slab.
	cfg.Interleave = 0
	private := NewGroup(cfg, 6, false)
	if &private.slab.lines[0] != lines {
		t.Fatal("equal geometry under the other layout missed the free list")
	}
	mustBeEmpty(t, private)

	// The reference behaviour neither draws from the list nor feeds it.
	private.Release()
	idle := Idle()
	fresh := NewGroup(cfg, 6, true)
	if &fresh.slab.lines[0] == lines || Idle() != idle {
		t.Fatal("a fresh group drew from the free list")
	}
	mustBeEmpty(t, fresh)
	fresh.Release()
	if Idle() != idle {
		t.Fatal("a fresh group's release fed the free list")
	}
}

// TestGroupUseAfterReleasePanics: a stale *Cache must fail loudly rather
// than scribble on the lines of whichever run drew the slab next, and a
// group cannot be put on the list twice.
func TestGroupUseAfterReleasePanics(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Interleave: 2}
	for _, fresh := range []bool{false, true} {
		g := NewGroup(cfg, 2, fresh)
		c := g.Cache(1)
		v := c.Victim(0x40)
		c.Fill(v, 0x40, 1)
		g.Release()
		for name, use := range map[string]func(){
			"Lookup":     func() { c.Lookup(0x40) },
			"Peek":       func() { c.Peek(0x40) },
			"Victim":     func() { c.Victim(0x40) },
			"Fill":       func() { c.Fill(v, 0x40, 1) },
			"Lines":      func() { c.Lines(0x40) },
			"Invalidate": func() { c.Invalidate(0x40) },
			"Release":    g.Release,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("fresh=%v: %s after Release did not panic", fresh, name)
					}
				}()
				use()
			}()
		}
	}
}

// TestRecyclingListIsBounded: a list keeps GOMAXPROCS slabs of a geometry
// and lets the rest go to the GC.
func TestRecyclingListIsBounded(t *testing.T) {
	cfg := Config{SizeBytes: 256, Ways: 2, LineBytes: 64} // a geometry no other test uses
	limit := runtime.GOMAXPROCS(0)
	groups := make([]*Group, limit+1)
	for i := range groups {
		groups[i] = NewGroup(cfg, 3, false)
	}
	before := Idle()
	slabs := make([]*slab, len(groups))
	for i, g := range groups {
		slabs[i] = g.slab
		g.Release()
	}
	if got := Idle() - before; got != limit {
		t.Fatalf("releasing %d groups kept %d, want GOMAXPROCS = %d", limit+1, got, limit)
	}
	// LIFO: the last slab kept is the first one drawn.
	if g := NewGroup(cfg, 3, false); g.slab != slabs[limit-1] {
		t.Fatal("the free list is not LIFO")
	}
}
