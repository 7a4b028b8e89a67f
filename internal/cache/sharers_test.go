package cache

import (
	"slices"
	"testing"
)

// tiles lists s in the order Each visits it.
func tiles(s Sharers) []int {
	var out []int
	s.Each(func(t int) { out = append(out, t) })
	return out
}

// TestSharers pins the sharer set of a 256-bank directory: tiles in the
// inline word and in every spill word go in and out one at a time, Each
// visits them in ascending order, a line's words are its own, fills,
// invalidations and recycling clear them, and an image carries them.
// A 64-bank directory has no spill words, and naming tile 64 panics.
func TestSharers(t *testing.T) {
	cfg := Config{SizeBytes: 256, Ways: 2, LineBytes: 64, Interleave: 256} // 2 sets per bank
	g := newGroup(cfg, 256, false)
	if w := g.slab.shape().words; w != 3 {
		t.Fatalf("a 256-bank group has %d spill words per line, want 3", w)
	}
	c := g.Cache(5)
	a, next := bankAddr(cfg, 5, 0), bankAddr(cfg, 5, 2) // one set, both ways
	for _, x := range []Addr{a, next} {
		c.Fill(c.Victim(x), x, 1)
	}
	l, _ := c.Peek(a)
	n, _ := c.Peek(next)
	dir := c.Dir(l)
	want := []int{0, 63, 64, 80, 255}
	for _, tile := range []int{255, 64, 0, 80, 63} {
		dir.Add(tile)
	}
	for tile := 0; tile < 256; tile++ {
		if dir.Has(tile) != slices.Contains(want, tile) {
			t.Fatalf("Has(%d) = %v after adding %v", tile, dir.Has(tile), want)
		}
	}
	if got := tiles(dir); !slices.Equal(got, want) {
		t.Fatalf("Each visits %v, want %v", got, want)
	}
	if got := tiles(c.Dir(n)); !c.Dir(n).Empty() || got != nil {
		t.Fatalf("the neighbouring line's set holds %v", got)
	}
	for i, tile := range want {
		dir.Remove(tile)
		if dir.Has(tile) || !slices.Equal(tiles(dir), want[i+1:]) {
			t.Fatalf("after removing %d the set is %v, want %v", tile, tiles(dir), want[i+1:])
		}
	}
	if !dir.Empty() {
		t.Fatal("a set with every tile removed is not empty")
	}
	for _, tile := range want {
		dir.Add(tile)
	}
	dir.Clear()
	if !dir.Empty() || tiles(dir) != nil {
		t.Fatalf("Clear left %v", tiles(dir))
	}

	// An image of a directory past 64 tiles carries the spill words.
	dir.Add(80)
	c.Dir(n).Add(255)
	img := g.Capture(1 << 30)
	back := new(Group).Build(cfg, 256, true, img)
	if err := g.Diff(back); err != nil {
		t.Fatalf("restored group differs: %v", err)
	}
	bl, _ := back.Cache(5).Peek(a)
	bn, _ := back.Cache(5).Peek(next)
	if got := tiles(back.Cache(5).Dir(bl)); !slices.Equal(got, []int{80}) {
		t.Fatalf("restored set is %v, want [80]", got)
	}
	if got := tiles(back.Cache(5).Dir(bn)); !slices.Equal(got, []int{255}) {
		t.Fatalf("restored neighbour is %v, want [255]", got)
	}
	back.Cache(5).Dir(bl).Add(200)
	if g.Diff(back) == nil {
		t.Fatal("Diff missed a spill word")
	}

	// Fill and Invalidate start the line's set empty; so does recycling.
	c.Fill(l, a, 1)
	if !c.Dir(l).Empty() {
		t.Fatalf("a filled line keeps sharers %v", tiles(c.Dir(l)))
	}
	c.Invalidate(next)
	if !c.Dir(n).Empty() {
		t.Fatalf("an invalidated line keeps sharers %v", tiles(c.Dir(n)))
	}
	// Every spill word of a few banks' lines, written the way a run writes
	// them: through the sharer sets of filled lines.
	for _, b := range []int{0, 5, 255} {
		bc := g.Cache(b)
		for local := 0; local < 4; local++ { // both ways of both sets
			x := bankAddr(cfg, b, local)
			if _, ok := bc.Peek(x); !ok {
				bc.Fill(bc.Victim(x), x, 1)
			}
			xl, _ := bc.Peek(x)
			for tile := 64; tile < 256; tile++ {
				bc.Dir(xl).Add(tile)
			}
		}
	}
	spill := &g.slab.spill[0]
	g.Release()
	again := newGroup(cfg, 256, false)
	if &again.slab.spill[0] != spill {
		t.Fatal("the released spill words did not come back: the free list missed")
	}
	for i, w := range again.slab.spill {
		if w != 0 {
			t.Fatalf("recycled spill word %d = %#x, want 0", i, w)
		}
	}

	narrow := newGroup(Config{SizeBytes: 256, Ways: 2, LineBytes: 64, Interleave: 64}, 64, true)
	if len(narrow.slab.spill) != 0 {
		t.Fatalf("a 64-bank group has %d spill words", len(narrow.slab.spill))
	}
	nc := narrow.Cache(0)
	nc.Fill(nc.Victim(0), 0, 1)
	nl, _ := nc.Peek(0)
	nc.Dir(nl).Add(63)
	defer func() {
		if recover() == nil {
			t.Fatal("a 64-tile set accepted tile 64")
		}
	}()
	nc.Dir(nl).Add(64)
}
