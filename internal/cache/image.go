package cache

import (
	"fmt"
	"unsafe"
)

// Image is a sparse, immutable copy of a group's state: every line that
// differs from Line{Owner: -1} with its slot in the slab and its spill
// words, every PLRU word, and each cache's counters. Nothing writes an
// image after Capture returns it, so any number of groups may restore one
// at the same time.
type Image struct {
	geometry          // of the captured slab
	slots    []uint32 // slab slot of each captured line, ascending
	lines    []Line
	spill    []uint64 // each captured line's spill words, in slot order
	plru     []uint64
	stats    []counters
}

type counters struct{ hits, misses, evictions int64 }

// Capture returns g's image, or nil when the image would take more than
// limit bytes (Image.Bytes); the dense part is weighed before the lines are
// counted, so a limit below it costs no scan.
func (g *Group) Capture(limit int) *Image {
	s := g.slab
	img := &Image{geometry: s.shape()}
	fixed := img.bytes(0, len(s.plru), len(g.caches))
	if fixed > limit {
		return nil
	}
	n := 0
	for i := range s.lines {
		if s.lines[i] != (Line{Owner: -1}) {
			n++
		}
	}
	if img.bytes(n, len(s.plru), len(g.caches)) > limit {
		return nil
	}
	img.slots, img.lines = make([]uint32, 0, n), make([]Line, 0, n)
	w := img.words
	img.spill = make([]uint64, 0, n*w)
	for i := range s.lines {
		if s.lines[i] != (Line{Owner: -1}) {
			img.slots = append(img.slots, uint32(i))
			img.lines = append(img.lines, s.lines[i])
			img.spill = append(img.spill, s.spill[i*w:(i+1)*w]...)
		}
	}
	img.plru = append([]uint64(nil), s.plru...)
	img.stats = make([]counters, len(g.caches))
	for i := range g.caches {
		c := &g.caches[i]
		img.stats[i] = counters{c.Hits, c.Misses, c.Evictions}
	}
	return img
}

// Restore puts img's state into g, which must be as NewGroup left it (every
// line empty) and of the captured group's geometry; it panics on a geometry
// mismatch. The result is indistinguishable from the captured group.
func (g *Group) Restore(img *Image) {
	s := g.slab
	if s.shape() != img.geometry || len(g.caches) != len(img.stats) {
		panic(fmt.Sprintf("cache: restoring an image of %+v/%d caches over %+v/%d",
			img.geometry, len(img.stats), s.shape(), len(g.caches)))
	}
	w := img.words
	for i, slot := range img.slots {
		s.lines[slot] = img.lines[i]
		copy(s.spill[int(slot)*w:], img.spill[i*w:(i+1)*w])
	}
	copy(s.plru, img.plru)
	for i := range g.caches {
		c, st := &g.caches[i], img.stats[i]
		c.Hits, c.Misses, c.Evictions = st.hits, st.misses, st.evictions
	}
}

// Bytes returns the memory the image holds.
func (img *Image) Bytes() int { return img.bytes(len(img.lines), len(img.plru), len(img.stats)) }

func (img *Image) bytes(lines, sets, caches int) int {
	word := int(unsafe.Sizeof(uint64(0)))
	return int(unsafe.Sizeof(*img)) + lines*(int(unsafe.Sizeof(uint32(0))+unsafe.Sizeof(Line{}))+img.words*word) +
		sets*word + caches*int(unsafe.Sizeof(counters{}))
}

// Diff returns nil when g and o hold the same lines, spill words, PLRU
// words and counters, and otherwise names the first difference (state
// checks in tests across packages).
func (g *Group) Diff(o *Group) error {
	a, b := g.slab, o.slab
	if a.shape() != b.shape() || len(g.caches) != len(o.caches) {
		return fmt.Errorf("geometry %+v/%d caches vs %+v/%d", a.shape(), len(g.caches), b.shape(), len(o.caches))
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Errorf("slot %d: %+v vs %+v", i, a.lines[i], b.lines[i])
		}
	}
	for i, w := range a.spill {
		if w != b.spill[i] {
			return fmt.Errorf("spill word %d: %#x vs %#x", i, w, b.spill[i])
		}
	}
	for i := range a.plru {
		if a.plru[i] != b.plru[i] {
			return fmt.Errorf("PLRU word %d: %#x vs %#x", i, a.plru[i], b.plru[i])
		}
	}
	for i := range g.caches {
		c, d := &g.caches[i], &o.caches[i]
		if c.Hits != d.Hits || c.Misses != d.Misses || c.Evictions != d.Evictions {
			return fmt.Errorf("cache %d counters %d/%d/%d vs %d/%d/%d",
				i, c.Hits, c.Misses, c.Evictions, d.Hits, d.Misses, d.Evictions)
		}
	}
	return nil
}
