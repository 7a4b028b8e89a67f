// Package cache provides the set-associative cache arrays of the modelled
// chip: 32 KB 4-way L1s and 1 MB 16-way L2 banks with 64-byte lines and
// tree-PLRU replacement (Table 2). The coherence protocol lives in
// internal/coherence; this package only manages tags, state bytes and the
// directory fields embedded in L2 lines ("the directory, which is included
// in the L2 cache bank").
//
// Storage is a slab — one array of lines, one PLRU word per set and, for a
// directory wider than 64 tiles, each line's spill words. New gives a cache
// its own; Group.Build lays a chip's N caches over one (set-major,
// bank-minor when line-interleaved) holding an Image or empty, and
// Group.Release recycles it through a free list (group.go, DESIGN.md §5b);
// Group.Capture copies a group's state as a sparse Image (image.go).
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"reactivenoc/internal/sim"
)

// Addr is a physical byte address.
type Addr = uint64

// Config describes one cache's geometry. For a bank of an interleaved
// cache, Interleave is the bank count and InterleaveIndex this bank's
// residue: the bank-select bits are stripped before set indexing, so the
// bank's sets see a dense local line space.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency sim.Cycle

	Interleave      int
	InterleaveIndex int
}

// L1Config returns the paper's L1 geometry: 32 KB, 4-way, 64 B lines,
// 2-cycle hit.
func L1Config() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2}
}

// L2BankConfig returns the paper's per-bank L2 geometry: 1 MB, 16-way,
// 64 B lines, 7-cycle hit.
func L2BankConfig() Config {
	return Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 7}
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: way count %d not a power of two", c.Ways)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Interleave < 0 || (c.Interleave > 1 &&
		(c.InterleaveIndex < 0 || c.InterleaveIndex >= c.Interleave)) {
		return fmt.Errorf("cache: invalid interleave %d/%d", c.InterleaveIndex, c.Interleave)
	}
	return nil
}

// Block returns the line-aligned address containing a.
func (c Config) Block(a Addr) Addr { return a &^ Addr(c.LineBytes-1) }

// Line is one cache line's bookkeeping. State is owned by the coherence
// protocol; the sharer set and Owner embed the directory for L2 banks.
// Widest field first packs 21 bytes of payload into 24 (TestLineSize): a
// 64-tile chip instantiates a million of these.
type Line struct {
	Tag uint64
	// Directory payload (L2 banks only), read and written through
	// Cache.Dir: sharers is the inline word of the sharer set (tiles 0–63);
	// a bank of a group wider than 64 tiles keeps tiles 64 and up in the
	// line's spill words, in the slab beside it. Owner >= 0 names the tile
	// holding the line exclusively.
	sharers uint64
	Owner   int16
	State   uint8
	Valid   bool
	// Busy marks lines pinned by an in-flight transaction; the victim
	// picker never selects them.
	Busy bool
}

// slab is the storage under one cache or one group: every line in one array,
// every set's tree-PLRU bit vector in another (bit i is the direction flag
// of internal node i, 0 = left subtree is older), and the directory's spill
// words in a third: with w = len(spill)/len(lines), line i's are
// spill[i*w : (i+1)*w]. dirty holds one bit per set, set as soon as the
// cache hands out a pointer into the set, so a rebuild rewrites only the
// sets written since the last one (held.restore).
type slab struct {
	lines []Line
	plru  []uint64
	spill []uint64
	dirty []uint64
}

// shape returns the geometry the slab was built for.
func (s *slab) shape() geometry {
	return geometry{len(s.plru), len(s.lines) / len(s.plru), len(s.spill) / len(s.lines)}
}

// alloc gives s new arrays of geometry g, every line Line{Owner: -1}, every
// PLRU and spill word zero and no set dirty.
func (s *slab) alloc(g geometry) *slab {
	s.lines = make([]Line, g.sets*g.ways)
	s.plru = make([]uint64, g.sets)
	s.spill = make([]uint64, g.sets*g.ways*g.words)
	s.dirty = make([]uint64, (g.sets+63)/64)
	fill(s.lines)
	return s
}

// rewrite puts every set marked in mask in img's state, or in the empty
// state when img is nil: the set's lines become img's lines of the set and
// Line{Owner: -1} elsewhere, its spill words img's or zero, its PLRU word
// img's or zero. An image's lines are found by binary search in its
// ascending slot list, once per run of consecutive marked sets.
func (s *slab) rewrite(mask []uint64, img *Image) {
	g := s.shape()
	lw := g.ways * g.words
	for k, m := range mask {
		// One run of consecutive marked sets [i, j) at a time.
		for m != 0 {
			lo := bits.TrailingZeros64(m)
			n := bits.TrailingZeros64(^(m >> lo))
			m &^= (1<<n - 1) << lo
			i, j := k<<6+lo, k<<6+lo+n
			fill(s.lines[i*g.ways : j*g.ways])
			clear(s.plru[i:j])
			clear(s.spill[i*lw : j*lw])
			if img == nil {
				continue
			}
			copy(s.plru[i:j], img.plru[i:j])
			end := uint32(j * g.ways)
			x, _ := slices.BinarySearch(img.slots, uint32(i*g.ways))
			for ; x < len(img.slots) && img.slots[x] < end; x++ {
				slot := int(img.slots[x])
				s.lines[slot] = img.lines[x]
				copy(s.spill[slot*g.words:(slot+1)*g.words], img.spill[x*g.words:(x+1)*g.words])
			}
		}
	}
}

// put copies img's lines, spill words and PLRU words into s, which must be
// empty; a nil image, the empty state, copies nothing.
func (s *slab) put(img *Image) {
	if img == nil {
		return
	}
	w := img.words
	for i, slot := range img.slots {
		s.lines[slot] = img.lines[i]
		copy(s.spill[int(slot)*w:], img.spill[i*w:(i+1)*w])
	}
	copy(s.plru, img.plru)
}

// fill sets every line to Line{Owner: -1} by doubling copies: memmove
// beats a per-line loop on a million lines.
func fill(lines []Line) {
	lines[0] = Line{Owner: -1}
	for i := 1; i < len(lines); i *= 2 {
		copy(lines[i:], lines[:i])
	}
}

// mark flags the set whose PLRU word is p as written.
func (s *slab) mark(p *uint64) {
	i := int((uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(unsafe.SliceData(s.plru)))) / unsafe.Sizeof(*p))
	s.dirty[i>>6] |= 1 << (i & 63)
}

// Cache is one set-associative array: a view of a slab in which set i
// occupies slot i*stride+off.
type Cache struct {
	cfg Config
	slab
	stride, off int
	// words counts each line's spill words (Dir).
	words int

	setMask uint64
	div     uint64 // interleave divisor (1 for private caches)
	rem     uint64 // this bank's residue

	setShift uint8 // log2 line bytes
	tagShift uint8 // log2 sets
	// lineShift, when div is a power of two (pow2), is setShift +
	// log2(div): localLine is then one shift, not a division.
	lineShift uint8
	pow2      bool

	// Access statistics.
	Hits, Misses, Evictions int64
}

// New builds a cache on its own slab; it panics on invalid geometry.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{}
	c.bind(cfg, new(slab).alloc(geometry{cfg.Sets(), cfg.Ways, 0}), 1, 0)
	return c
}

// bind makes c the cache of geometry cfg whose sets sit at stride/off in s.
func (c *Cache) bind(cfg Config, s *slab, stride, off int) {
	*c = Cache{cfg: cfg, slab: *s, stride: stride, off: off, words: len(s.spill) / len(s.lines)}
	c.setShift = uint8(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.tagShift = uint8(bits.TrailingZeros(uint(cfg.Sets())))
	c.setMask = uint64(cfg.Sets() - 1)
	c.div = 1
	if cfg.Interleave > 1 {
		c.div = uint64(cfg.Interleave)
		c.rem = uint64(cfg.InterleaveIndex)
	}
	c.pow2 = c.div&(c.div-1) == 0
	c.lineShift = c.setShift + uint8(bits.TrailingZeros64(c.div))
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// localLine maps a global address to this bank's dense line number.
func (c *Cache) localLine(a Addr) uint64 {
	if c.pow2 {
		return a >> c.lineShift
	}
	return (a >> c.setShift) / c.div
}

// set returns the lines and the PLRU word of the set holding a, and a's
// tag. On a cache whose group was released the arrays are gone and this
// panics.
func (c *Cache) set(a Addr) ([]Line, *uint64, uint64) {
	local := c.localLine(a)
	i := int(local&c.setMask)*c.stride + c.off
	w := c.cfg.Ways
	return c.lines[i*w : (i+1)*w : (i+1)*w], &c.plru[i], local >> c.tagShift
}

// Lookup returns the line holding a, touching PLRU state and hit counters.
// A hit hands out the line, so its set counts as written.
func (c *Cache) Lookup(a Addr) (*Line, bool) {
	lines, plru, t := c.set(a)
	for w := range lines {
		if lines[w].Valid && lines[w].Tag == t {
			c.mark(plru)
			c.Hits++
			touch(plru, w, len(lines))
			return &lines[w], true
		}
	}
	c.Misses++
	return nil, false
}

// Peek returns the line holding a without touching replacement state or
// counters (used by snoop-style lookups: invalidations, forwards). A hit
// hands out the line, so its set counts as written.
func (c *Cache) Peek(a Addr) (*Line, bool) {
	lines, plru, t := c.set(a)
	for w := range lines {
		if lines[w].Valid && lines[w].Tag == t {
			c.mark(plru)
			return &lines[w], true
		}
	}
	return nil, false
}

// Victim picks the fill way for address a: an invalid way if one exists,
// else the tree-PLRU victim among non-busy lines. It returns nil when every
// way is pinned by an in-flight transaction. The caller may pin or fill the
// line, so the set counts as written.
func (c *Cache) Victim(a Addr) *Line {
	lines, plru, _ := c.set(a)
	c.mark(plru)
	for w := range lines {
		if !lines[w].Valid && !lines[w].Busy {
			return &lines[w]
		}
	}
	w := plruVictim(*plru, len(lines))
	if !lines[w].Busy {
		return &lines[w]
	}
	// The PLRU choice is pinned: fall back to any non-busy way.
	for w := range lines {
		if !lines[w].Busy {
			return &lines[w]
		}
	}
	return nil
}

// Fill installs address a into the given line of a's set (normally the one
// Victim picked), resetting directory fields and touching PLRU. The caller
// must have handled any eviction first.
func (c *Cache) Fill(l *Line, a Addr, state uint8) {
	if l.Valid {
		c.Evictions++
	}
	lines, plru, t := c.set(a)
	c.mark(plru)
	*l = Line{Valid: true, Tag: t, State: state, Owner: -1}
	c.Dir(l).Clear()
	for w := range lines {
		if &lines[w] == l {
			touch(plru, w, len(lines))
			return
		}
	}
	panic("cache: Fill with a line from another set")
}

// AddrOf reconstructs the block address stored in line l of the set that
// contains address hint (same index).
func (c *Cache) AddrOf(l *Line, hint Addr) Addr {
	local := l.Tag<<c.tagShift | c.localLine(hint)&c.setMask
	return (local*c.div + c.rem) << c.setShift
}

// Lines returns the lines of the set containing hint in place, for
// invariant checkers and state dumps; callers only read them.
func (c *Cache) Lines(hint Addr) []Line {
	lines, _, _ := c.set(hint)
	return lines
}

// Invalidate clears the line holding a, if present.
func (c *Cache) Invalidate(a Addr) {
	if l, ok := c.Peek(a); ok {
		*l = Line{Owner: -1}
		c.Dir(l).Clear()
	}
}

// touch marks way w most recently used in the PLRU tree.
func touch(plru *uint64, w, ways int) {
	node := 0
	for span := ways; span > 1; {
		span /= 2
		var dir uint64
		if w&span != 0 { // w is in the node's upper half
			dir = 1
		}
		// Point the node away from the touched side.
		if dir == 1 {
			*plru &^= 1 << uint(node)
		} else {
			*plru |= 1 << uint(node)
		}
		node = node*2 + 1 + int(dir)
	}
}

// plruVictim walks the tree toward the pseudo-least-recently-used way.
func plruVictim(plru uint64, ways int) int {
	node, w := 0, 0
	for span := ways; span > 1; {
		span /= 2
		dir := (plru >> uint(node)) & 1
		if dir == 1 {
			w += span
		}
		node = node*2 + 1 + int(dir)
	}
	return w
}
