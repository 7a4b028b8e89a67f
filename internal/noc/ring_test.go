package noc

import (
	"math/rand"
	"testing"
)

// TestRingEdgeCases drives the ring through the boundary conditions the hot
// path depends on: wrap-around at full capacity, growth on push-into-full,
// pop from empty, and length bookkeeping under interleaved push/pop.
func TestRingEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"wrap-around at full capacity", func(t *testing.T) {
			var r ring[int]
			r.grow(8)
			if len(r.buf) != 8 {
				t.Fatalf("grow(8): cap %d, want 8", len(r.buf))
			}
			// Rotate the head so pushes wrap past the end of the backing array.
			for i := 0; i < 5; i++ {
				r.Push(i)
			}
			for i := 0; i < 5; i++ {
				if got := r.Pop(); got != i {
					t.Fatalf("warm-up pop %d: got %d", i, got)
				}
			}
			// head is now 5; fill to capacity: indices 5,6,7,0,1,2,3,4.
			for i := 0; i < 8; i++ {
				r.Push(100 + i)
			}
			if r.Len() != 8 || len(r.buf) != 8 {
				t.Fatalf("full ring: len=%d cap=%d, want 8/8", r.Len(), len(r.buf))
			}
			for i := 0; i < 8; i++ {
				if got := r.Pop(); got != 100+i {
					t.Fatalf("wrapped pop %d: got %d, want %d", i, got, 100+i)
				}
			}
			if r.Len() != 0 {
				t.Fatalf("drained ring has len %d", r.Len())
			}
		}},
		{"push on full grows and preserves order", func(t *testing.T) {
			var r ring[int]
			r.grow(8)
			// Wrap the contents so growth must linearize a split buffer.
			for i := 0; i < 6; i++ {
				r.Push(i)
			}
			for i := 0; i < 6; i++ {
				r.Pop()
			}
			for i := 0; i < 8; i++ {
				r.Push(i)
			}
			r.Push(8) // full -> grow
			if len(r.buf) != 16 {
				t.Fatalf("grown cap %d, want 16", len(r.buf))
			}
			if r.Len() != 9 {
				t.Fatalf("grown len %d, want 9", r.Len())
			}
			for i := 0; i <= 8; i++ {
				if got := r.Pop(); got != i {
					t.Fatalf("post-growth pop %d: got %d", i, got)
				}
			}
		}},
		{"pop on empty returns zero and stays sane", func(t *testing.T) {
			var r ring[*Flit]
			if got := r.Pop(); got != nil {
				t.Fatalf("pop of never-used ring: got %v, want nil", got)
			}
			if r.Len() != 0 {
				t.Fatalf("len after empty pop: %d", r.Len())
			}
			r.Push(&Flit{Seq: 1})
			r.Pop()
			if got := r.Pop(); got != nil {
				t.Fatalf("pop of drained ring: got %v, want nil", got)
			}
			if r.Len() != 0 {
				t.Fatalf("len after drained pop: %d, want 0", r.Len())
			}
			// The ring must still work after the underflow attempt.
			r.Push(&Flit{Seq: 2})
			if got := r.Pop(); got == nil || got.Seq != 2 {
				t.Fatalf("ring unusable after empty pop: got %v", got)
			}
		}},
		{"len under interleaved push and pop", func(t *testing.T) {
			var r ring[int]
			want := 0
			next, expect := 0, 0
			rng := rand.New(rand.NewSource(42))
			for step := 0; step < 10_000; step++ {
				if r.Len() != want {
					t.Fatalf("step %d: len=%d, want %d", step, r.Len(), want)
				}
				if rng.Intn(2) == 0 || want == 0 {
					r.Push(next)
					next++
					want++
				} else {
					if got := r.Pop(); got != expect {
						t.Fatalf("step %d: pop=%d, want %d", step, got, expect)
					}
					expect++
					want--
				}
			}
		}},
		{"pushfront and removeat keep FIFO order", func(t *testing.T) {
			var r ring[int]
			r.Push(2)
			r.Push(3)
			r.PushFront(1)
			r.Push(4)
			if got := r.At(0); got != 1 {
				t.Fatalf("At(0)=%d, want 1", got)
			}
			if got := r.RemoveAt(2); got != 3 {
				t.Fatalf("RemoveAt(2)=%d, want 3", got)
			}
			wantSeq := []int{1, 2, 4}
			for i, w := range wantSeq {
				if got := r.Pop(); got != w {
					t.Fatalf("pop %d: got %d, want %d", i, got, w)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
