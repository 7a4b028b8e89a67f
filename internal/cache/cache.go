// Package cache provides the set-associative cache arrays of the modelled
// chip: 32 KB 4-way L1s and 1 MB 16-way L2 banks with 64-byte lines and
// tree-PLRU replacement (Table 2). The coherence protocol lives in
// internal/coherence; this package only manages tags, state bytes and the
// directory fields embedded in L2 lines ("the directory, which is included
// in the L2 cache bank").
//
// Storage is a slab — one array of lines, one PLRU word per set — built or
// reset by slab.reset alone. New gives a cache its own; NewGroup lays a
// chip's N caches over one (set-major, bank-minor when line-interleaved) and
// Group.Release recycles it through a free list (group.go, DESIGN.md §5b).
package cache

import (
	"fmt"
	"math/bits"

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
// protocol; Sharers and Owner embed the directory for L2 banks.
// Widest field first packs 21 bytes of payload into 24 (TestLineSize): a
// 64-tile chip instantiates a million of these.
type Line struct {
	Tag uint64
	// Directory payload (L2 banks only): bit i of Sharers set means tile
	// i's L1 holds the line in shared state; Owner >= 0 names the tile
	// holding it exclusively.
	Sharers uint64
	Owner   int16
	State   uint8
	Valid   bool
	// Busy marks lines pinned by an in-flight transaction; the victim
	// picker never selects them.
	Busy bool
}

// slab is the storage under one cache or one group: every line in one array,
// every set's tree-PLRU bit vector in another (bit i is the direction flag
// of internal node i, 0 = left subtree is older).
type slab struct {
	lines []Line
	plru  []uint64
}

// reset puts the slab in the empty-cache state — every line Line{Owner:
// -1}, every PLRU word zero — allocating the arrays first if it has none.
// A fresh slab and a recycled one leave here indistinguishable.
func (s *slab) reset(sets, ways int) *slab {
	if s.lines == nil {
		s.lines = make([]Line, sets*ways)
		s.plru = make([]uint64, sets)
	}
	// Doubling copies: memmove beats a per-line loop on a million lines.
	s.lines[0] = Line{Owner: -1}
	for i := 1; i < len(s.lines); i *= 2 {
		copy(s.lines[i:], s.lines[:i])
	}
	clear(s.plru)
	return s
}

// Cache is one set-associative array: a view of a slab in which set i
// occupies slot i*stride+off.
type Cache struct {
	cfg Config
	slab
	stride, off int

	setShift uint // log2 line bytes
	tagShift uint // log2 sets
	setMask  uint64
	div      uint64 // interleave divisor (1 for private caches)
	rem      uint64 // this bank's residue

	// Access statistics.
	Hits, Misses, Evictions int64
}

// New builds a cache on its own slab; it panics on invalid geometry.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{}
	c.bind(cfg, new(slab).reset(cfg.Sets(), cfg.Ways), 1, 0)
	return c
}

// bind makes c the cache of geometry cfg whose sets sit at stride/off in s.
func (c *Cache) bind(cfg Config, s *slab, stride, off int) {
	*c = Cache{cfg: cfg, slab: *s, stride: stride, off: off}
	c.setShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.tagShift = uint(bits.TrailingZeros(uint(cfg.Sets())))
	c.setMask = uint64(cfg.Sets() - 1)
	c.div = 1
	if cfg.Interleave > 1 {
		c.div = uint64(cfg.Interleave)
		c.rem = uint64(cfg.InterleaveIndex)
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// localLine maps a global address to this bank's dense line number.
func (c *Cache) localLine(a Addr) uint64 { return (a >> c.setShift) / c.div }

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
func (c *Cache) Lookup(a Addr) (*Line, bool) {
	lines, plru, t := c.set(a)
	for w := range lines {
		if lines[w].Valid && lines[w].Tag == t {
			c.Hits++
			touch(plru, w, len(lines))
			return &lines[w], true
		}
	}
	c.Misses++
	return nil, false
}

// Peek returns the line holding a without touching replacement state or
// counters (used by snoop-style lookups: invalidations, forwards).
func (c *Cache) Peek(a Addr) (*Line, bool) {
	lines, _, t := c.set(a)
	for w := range lines {
		if lines[w].Valid && lines[w].Tag == t {
			return &lines[w], true
		}
	}
	return nil, false
}

// Victim picks the fill way for address a: an invalid way if one exists,
// else the tree-PLRU victim among non-busy lines. It returns nil when every
// way is pinned by an in-flight transaction.
func (c *Cache) Victim(a Addr) *Line {
	lines, plru, _ := c.set(a)
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

// Fill installs address a into the given line (obtained from Victim),
// resetting directory fields and touching PLRU. The caller must have
// handled any eviction first.
func (c *Cache) Fill(l *Line, a Addr, state uint8) {
	if l.Valid {
		c.Evictions++
	}
	lines, plru, t := c.set(a)
	*l = Line{Valid: true, Tag: t, State: state, Owner: -1}
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

// Lines returns a copy of the lines in the set containing hint, for
// invariant checkers and state dumps.
func (c *Cache) Lines(hint Addr) []Line {
	lines, _, _ := c.set(hint)
	return append([]Line(nil), lines...)
}

// Invalidate clears the line holding a, if present.
func (c *Cache) Invalidate(a Addr) {
	if l, ok := c.Peek(a); ok {
		*l = Line{Owner: -1}
	}
}

// touch marks way w most recently used in the PLRU tree.
func touch(plru *uint64, w, ways int) {
	node := 0
	for span := ways; span > 1; {
		span /= 2
		var dir uint64
		if w%(span*2) >= span {
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
