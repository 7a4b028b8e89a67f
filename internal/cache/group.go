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
// a released group's caches panic on any further use, as does a second Release.
type Group struct {
	caches []Cache
	slab   *slab
	fresh  bool
}

// geometry keys the free lists: reset erases layout, so equal totals match.
// words counts each line's spill words (Cache.Dir).
type geometry struct{ sets, ways, words int }

// free holds the released slabs, per geometry (recycle.List: LIFO, at
// most GOMAXPROCS a key).
var free recycle.List[geometry, *slab]

// NewGroup builds n caches of geometry cfg over one slab. With
// cfg.Interleave == n they are the banks of one line-interleaved cache
// (bank b takes InterleaveIndex b) ordered set-major, bank-minor: set i of
// bank b sits next to set i of bank b+1 as line a sits next to line a+1, so
// a walk over consecutive lines walks the slab in order. Otherwise they are
// n private caches, one after another. The slab comes off the free list if
// one of this geometry is there, and is reset either way; fresh is the
// reference behaviour (Spec.NoPool): always allocate, recycle nothing.
// Banks carry the directory: a banked group of more than 64 caches gives
// each line the spill words its sharer set needs past the inline word.
func NewGroup(cfg Config, n int, fresh bool) *Group {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	banked := cfg.Interleave > 1
	if n <= 0 || (banked && cfg.Interleave != n) {
		panic(fmt.Sprintf("cache: group of %d over interleave %d", n, cfg.Interleave))
	}
	g := &Group{caches: make([]Cache, n), slab: &slab{}, fresh: fresh}
	sets := cfg.Sets()
	key := geometry{n * sets, cfg.Ways, 0}
	if banked {
		key.words = (n - 1) / 64
	}
	if !fresh {
		if s, ok := free.Get(key); ok {
			g.slab = s
		}
	}
	g.slab.reset(key)
	for b := range g.caches {
		if banked {
			cfg.InterleaveIndex = b
			g.caches[b].bind(cfg, g.slab, n, b)
		} else {
			g.caches[b].bind(cfg, g.slab, 1, b*sets)
		}
	}
	return g
}

// Cache returns the group's i-th cache.
func (g *Group) Cache(i int) *Cache { return &g.caches[i] }

// Release detaches every cache from the slab and, unless the group was
// built fresh, puts the slab on its geometry's free list.
func (g *Group) Release() {
	s := g.slab
	if s == nil {
		panic("cache: group released twice")
	}
	g.slab = nil
	for i := range g.caches {
		g.caches[i].slab = slab{}
	}
	if g.fresh {
		return
	}
	free.Put(s.shape(), s)
}

// Idle returns how many slabs the free lists hold (tests, diagnostics).
func Idle() int { return free.Idle() }
