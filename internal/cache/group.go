package cache

import (
	"fmt"

	"reactivenoc/internal/recycle"
)

// Group is the n caches of one level of a chip laid over a single slab.
//
// Lifetime rules (DESIGN.md §5b): whoever built the group releases it, once,
// when nothing will touch its caches again — chip.RunCtx does as it returns,
// on every path. Releasing is optional (an unreleased group is garbage), but
// a released group's caches panic on any further use, as does a second
// Release, until Build rebuilds the group.
type Group struct {
	caches []Cache
	slab   *held
	fresh  bool
}

// held is a slab as a group holds it and the free list keeps it: together
// with the image it equals outside its dirty sets, nil for the empty state.
// The image rides here, not in the slab every Cache view embeds, so a view
// stays 224 bytes.
type held struct {
	slab
	img *Image
}

// restore makes h hold img with no set dirty, allocating its arrays first if
// it has none. A slab that holds img already rewrites only its dirty sets
// from img. Any other is cleared — its dirty sets and the sets its own
// image differs from empty in (Image.dirty) — and then takes all of img.
func (h *held) restore(g geometry, img *Image) {
	if h.lines == nil {
		h.alloc(g)
	}
	if h.img == img {
		h.rewrite(h.dirty, img)
	} else {
		h.img.addDirty(h.dirty)
		h.rewrite(h.dirty, nil)
		h.put(img)
	}
	clear(h.dirty)
	h.img = img
}

// geometry keys the free lists: a rebuild erases layout, so equal totals
// match. words counts each line's spill words (Cache.Dir).
type geometry struct{ sets, ways, words int }

// free holds the released slabs, per geometry (recycle.List: LIFO, at
// most GOMAXPROCS a key). The image a slab holds is not part of the key, so
// that a sweep cycling through several apps keeps one slab per worker, not
// one per app.
var free recycle.List[geometry, *held]

// Build makes g — a zero Group or one Release left — the n caches of
// geometry cfg over one slab, in img's state, or empty when img is nil. With
// cfg.Interleave == n they are the banks of one line-interleaved cache (bank
// b takes InterleaveIndex b) ordered set-major, bank-minor: set i of bank b
// sits next to set i of bank b+1 as line a sits next to line a+1, so a walk
// over consecutive lines walks the slab in order. Otherwise they are n
// private caches, one after another. Banks carry the directory: a banked
// group of more than 64 caches gives each line the spill words its sharer
// set needs past the inline word. It panics on invalid geometry, on an image
// of another, and on a group still holding a slab.
//
// The slab comes off the free list when one of this geometry is there —
// preferably one that holds img already, which rewrites only the sets the
// run before wrote — and is allocated otherwise; fresh is the reference
// behaviour (Spec.NoPool): always allocate, recycle nothing. The caches are
// rebuilt in place, so a group that outlives its run (coherence.System's
// shell) allocates nothing on a recycled slab.
func (g *Group) Build(cfg Config, n int, fresh bool, img *Image) *Group {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	banked := cfg.Interleave > 1
	if n <= 0 || (banked && cfg.Interleave != n) {
		panic(fmt.Sprintf("cache: group of %d over interleave %d", n, cfg.Interleave))
	}
	if g.slab != nil {
		panic("cache: building over a group that holds a slab")
	}
	sets := cfg.Sets()
	key := geometry{n * sets, cfg.Ways, 0}
	if banked {
		key.words = (n - 1) / 64
	}
	if img != nil && (img.geometry != key || len(img.stats) != n) {
		panic(fmt.Sprintf("cache: building over an image of %+v/%d caches as %+v/%d",
			img.geometry, len(img.stats), key, n))
	}
	var h *held
	if !fresh {
		h, _ = free.Prefer(key, func(h *held) bool { return h.img == img })
	}
	if h == nil {
		h = new(held)
	}
	h.restore(key, img)
	g.caches, g.slab, g.fresh = recycle.Slice(g.caches, n), h, fresh
	for b := range g.caches {
		c := &g.caches[b]
		if banked {
			cfg.InterleaveIndex = b
			c.bind(cfg, &h.slab, n, b)
		} else {
			c.bind(cfg, &h.slab, 1, b*sets)
		}
		if img != nil {
			st := img.stats[b]
			c.Hits, c.Misses, c.Evictions = st.hits, st.misses, st.evictions
		}
	}
	return g
}

// Cache returns the group's i-th cache.
func (g *Group) Cache(i int) *Cache { return &g.caches[i] }

// Release detaches every cache from the slab and, unless the group was
// built fresh, puts the slab on its geometry's free list with the image it
// holds outside its dirty sets.
func (g *Group) Release() {
	h := g.slab
	if h == nil {
		panic("cache: group released twice")
	}
	g.slab = nil
	for i := range g.caches {
		g.caches[i].slab = slab{}
	}
	if g.fresh {
		return
	}
	free.Put(h.shape(), h)
}

// Idle returns how many slabs the free lists hold (tests, diagnostics).
func Idle() int { return free.Idle() }
