// Package recycle holds what lets one run reuse the memory of the run
// before it (DESIGN.md §4.11): the process-wide keyed free list that cache
// slabs and chip shells return to, and the helpers a constructor uses to
// rebuild an object in place over either its zero value or a recycled one.
package recycle

import (
	"runtime"
	"sync"
)

// List is a process-wide free list: a mutex-guarded LIFO per key, not a
// sync.Pool, whose per-P slots miss at random — whether a build hits must
// follow from what the program did, so that allocation per run repeats.
// LIFO hands back what was released last, the copy most likely still in
// the host's caches. A key keeps at most GOMAXPROCS values (no more runs
// than that make progress at once); a Put beyond it falls to the GC. The
// zero List is empty and ready to use.
type List[K comparable, V any] struct {
	mu   sync.Mutex
	idle map[K][]V
}

// Get pops the value released last under k, if any.
func (l *List[K, V]) Get(k K) (v V, ok bool) { return l.Prefer(k, nil) }

// Prefer pops the value released last under k that match accepts or, when
// none does (or match is nil), the value released last, if any. The others
// keep their order.
func (l *List[K, V]) Prefer(k K, match func(V) bool) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.idle[k]
	if len(s) == 0 {
		return v, false
	}
	i := len(s) - 1
	for j := i; match != nil && j >= 0; j-- {
		if match(s[j]) {
			i = j
			break
		}
	}
	v = s[i]
	copy(s[i:], s[i+1:])
	var zero V
	s[len(s)-1] = zero
	l.idle[k] = s[:len(s)-1]
	return v, true
}

// Put pushes v under k, unless k already holds GOMAXPROCS values.
func (l *List[K, V]) Put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.idle == nil {
		l.idle = map[K][]V{}
	}
	if s := l.idle[k]; len(s) < runtime.GOMAXPROCS(0) {
		l.idle[k] = append(s, v)
	}
}

// Idle returns how many values the list holds under every key (tests,
// diagnostics).
func (l *List[K, V]) Idle() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.idle {
		n += len(s)
	}
	return n
}

// Object returns *p, first pointing it at a new T when it is nil: the
// object a rebuild reuses, or the one a first build makes.
func Object[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Slice returns s with length n, on its own backing array when that has
// room. The elements it keeps hold their values — objects a rebuild reuses
// — and the rest are zero.
func Slice[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s)
		return t
	}
	clear(s[n:cap(s)])
	return s[:n]
}

// Zeroed is Slice with every element zero.
func Zeroed[T any](s []T, n int) []T {
	s = Slice(s, n)
	clear(s)
	return s
}

// Map returns m emptied, or a new map when m is nil.
func Map[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	clear(m)
	return m
}
