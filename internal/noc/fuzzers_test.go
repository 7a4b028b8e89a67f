package noc

import (
	"testing"
)

// FuzzRing interprets the input as a push/pop opcode stream and checks the
// ring against a slice model. Byte values: even = push (value = byte),
// odd = pop. The seed corpus includes the wrap-around and underflow shapes
// the table-driven tests cover.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1, 1}) // push×3 then pop past empty
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0})
	f.Add([]byte{1}) // pop on never-used ring
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r ring[int]
		var model []int
		for i, op := range ops {
			if op%2 == 0 {
				r.Push(int(op))
				model = append(model, int(op))
			} else {
				var want int
				if len(model) > 0 {
					want = model[0]
					model = model[1:]
				}
				if got := r.Pop(); got != want {
					t.Fatalf("op %d: pop=%d, want %d", i, got, want)
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("op %d: len=%d, model=%d", i, r.Len(), len(model))
			}
		}
		for i := 0; i < len(model); i++ {
			if got := r.At(i); got != model[i] {
				t.Fatalf("At(%d)=%d, want %d", i, got, model[i])
			}
		}
	})
}
