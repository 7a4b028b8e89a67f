package cache

import (
	"math/bits"
	"unsafe"
)

// Sharers is the directory's sharer set of one L2 line: the tiles whose L1
// holds the line in shared state. Tiles 0–63 are bits of the line's inline
// word; a bank of a group wider than 64 tiles keeps tile t ≥ 64 in bit t%64
// of the line's spill word t/64-1. A tile no word holds panics. The
// set is a view: every change writes through to the line.
type Sharers struct {
	inline *uint64
	spill  []uint64
}

// Dir returns the sharer set of l, which must be a line of c: l's slot in
// the slab names its spill words, none in a group of 64 tiles or fewer.
func (c *Cache) Dir(l *Line) Sharers {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.lines)))
	i, w := int(off/unsafe.Sizeof(Line{})), c.words
	return Sharers{&l.sharers, c.spill[i*w : (i+1)*w : (i+1)*w]}
}

// word returns the word holding tile and tile's bit in it.
func (s Sharers) word(tile int) (*uint64, uint64) {
	if tile < 64 {
		return s.inline, 1 << uint(tile)
	}
	return &s.spill[tile/64-1], 1 << uint(tile%64)
}

// Has reports whether tile is in the set.
func (s Sharers) Has(tile int) bool {
	w, b := s.word(tile)
	return *w&b != 0
}

// Add puts tile in the set.
func (s Sharers) Add(tile int) {
	w, b := s.word(tile)
	*w |= b
}

// Remove takes tile out of the set.
func (s Sharers) Remove(tile int) {
	w, b := s.word(tile)
	*w &^= b
}

// Empty reports whether no tile is in the set.
func (s Sharers) Empty() bool {
	or := *s.inline
	for _, w := range s.spill {
		or |= w
	}
	return or == 0
}

// Clear empties the set.
func (s Sharers) Clear() {
	*s.inline = 0
	clear(s.spill)
}

// Each calls fn with every tile in the set, in ascending order.
func (s Sharers) Each(fn func(tile int)) {
	eachBit(*s.inline, 0, fn)
	for k, w := range s.spill {
		eachBit(w, 64*(k+1), fn)
	}
}

func eachBit(w uint64, base int, fn func(int)) {
	for ; w != 0; w &= w - 1 {
		fn(base + bits.TrailingZeros64(w))
	}
}
