package recycle

import (
	"runtime"
	"sync"
	"testing"
)

func TestListIsLIFOPerKeyAndCapped(t *testing.T) {
	var l List[string, int]
	if _, ok := l.Get("a"); ok {
		t.Fatal("an empty list handed out a value")
	}
	l.Put("a", 1)
	l.Put("b", 10)
	l.Put("a", 2)
	if v, ok := l.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v; want the last put, 2", v, ok)
	}
	if v, ok := l.Get("b"); !ok || v != 10 {
		t.Fatalf("Get(b) = %d, %v; want 10: keys share nothing", v, ok)
	}
	if n := l.Idle(); n != 1 {
		t.Fatalf("Idle = %d, want 1", n)
	}
	l.Get("a")
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		l.Put("a", i)
	}
	if n := l.Idle(); n != limit {
		t.Fatalf("Idle = %d after %d puts, want the GOMAXPROCS cap %d", n, limit+3, limit)
	}
}

// TestListPrefer: Prefer pops the last value put that match accepts, and
// falls back to the last value put when match accepts none.
func TestListPrefer(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a list keeps one value a key at GOMAXPROCS=1")
	}
	var l List[string, int]
	l.Put("a", 1)
	l.Put("a", 2)
	odd := func(v int) bool { return v%2 == 1 }
	for _, want := range []int{1, 2} {
		if v, ok := l.Prefer("a", odd); !ok || v != want {
			t.Fatalf("Prefer(a, odd) = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := l.Prefer("a", odd); ok {
		t.Fatal("an empty list handed out a value")
	}
}

// TestListConcurrentUse: every value put is got at most once, whatever the
// interleaving (run under -race in CI).
func TestListConcurrentUse(t *testing.T) {
	var l List[int, *int]
	var mu sync.Mutex
	seen := map[*int]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, ok := l.Get(i % 3)
				if !ok {
					v = new(int)
				} else {
					mu.Lock()
					if seen[v] {
						t.Error("a value was handed out twice")
					}
					seen[v] = true
					mu.Unlock()
				}
				mu.Lock()
				delete(seen, v)
				mu.Unlock()
				l.Put(i%3, v)
			}
		}()
	}
	wg.Wait()
}

func TestObjectMakesOnlyWhenNil(t *testing.T) {
	var p *int
	q := Object(&p)
	if q == nil || p != q {
		t.Fatal("Object(&nil) did not point p at a new object")
	}
	*q = 5
	if r := Object(&p); r != q || *r != 5 {
		t.Fatal("Object replaced an object that was there")
	}
}

func TestSliceKeepsZeroedClears(t *testing.T) {
	s := []int{1, 2, 3, 4}
	got := Slice(s, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || &got[0] != &s[0] {
		t.Fatalf("Slice(s, 2) = %v: want s's first two elements on s's array", got)
	}
	if s[2] != 0 || s[3] != 0 {
		t.Fatalf("Slice left %v past the new length: elements dropped must be zero", s[2:])
	}
	if got = Slice(got, 6); len(got) != 6 || got[1] != 2 || got[5] != 0 {
		t.Fatalf("Slice grown to 6 = %v", got)
	}
	if got = Zeroed([]int{7, 8, 9}, 2); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("Zeroed = %v, want [0 0]", got)
	}
	m := map[int]int{1: 1}
	if got := Map(m); len(got) != 0 || len(m) != 0 {
		t.Fatal("Map did not empty the map in place")
	}
	if got := Map[int, int](nil); got == nil {
		t.Fatal("Map(nil) returned nil, want a new map")
	}
}
