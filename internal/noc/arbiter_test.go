package noc

import "testing"

// roundRobin is the reference arbiter over a bool request slice: it picks
// the first true index starting from *ptr, wrapping around, and advances
// *ptr past the winner, returning -1 when nothing is requested. arbitrate
// must agree with it on every request set and pointer.
func roundRobin(req []bool, ptr *int) int {
	n := len(req)
	if n == 0 {
		return -1
	}
	if *ptr >= n {
		*ptr = 0
	}
	for i := 0; i < n; i++ {
		idx := (*ptr + i) % n
		if req[idx] {
			*ptr = (idx + 1) % n
			return idx
		}
	}
	return -1
}

// checkArbiter compares arbitrate with roundRobin on one request set: same
// winner, same pointer left behind.
func checkArbiter(t *testing.T, n, ptr int, mask uint16) {
	t.Helper()
	mask &= uint16(1<<n - 1)
	req := make([]bool, n)
	for i := range req {
		req[i] = mask&(1<<i) != 0
	}
	wantPtr, gotPtr := ptr, ptr
	want := roundRobin(req, &wantPtr)
	got := arbitrate(uint64(mask), n, &gotPtr)
	if got != want || gotPtr != wantPtr {
		t.Fatalf("n=%d ptr=%d mask=%0*b: arbitrate=%d ptr→%d, roundRobin=%d ptr→%d",
			n, ptr, n, mask, got, gotPtr, want, wantPtr)
	}
}

// FuzzRoundRobin checks the mask arbiter against the bool-slice reference
// for every width up to the 16 VC slots a port can have, any pointer
// (including stale ones past the width) and any request mask.
func FuzzRoundRobin(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(0b111))
	f.Add(uint8(5), uint8(4), uint16(0b00011)) // wrap past the pointer
	f.Add(uint8(2), uint8(7), uint16(0b01))    // stale pointer
	f.Add(uint8(16), uint8(15), uint16(0x8001))
	f.Add(uint8(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, n, ptr uint8, mask uint16) {
		checkArbiter(t, int(n%17), int(ptr), mask)
	})
}

// TestArbiterMatchesRoundRobin is the exhaustive small-width half of
// FuzzRoundRobin: every mask of up to 8 requesters, every pointer.
func TestArbiterMatchesRoundRobin(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for ptr := 0; ptr <= n+1; ptr++ {
			for mask := 0; mask < 1<<n; mask++ {
				checkArbiter(t, n, ptr, uint16(mask))
			}
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	ptr := 0
	order := []int{}
	for i := 0; i < 6; i++ {
		order = append(order, arbitrate(0b111, 3, &ptr))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	ptr := 0
	if got := arbitrate(0b100, 3, &ptr); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	if got := arbitrate(0, 3, &ptr); got != -1 {
		t.Fatalf("got %d, want -1", got)
	}
	if got := arbitrate(0, 0, &ptr); got != -1 {
		t.Fatalf("empty: got %d, want -1", got)
	}
}

func TestRoundRobinPointerWraps(t *testing.T) {
	ptr := 7 // stale pointer beyond the request width
	if got := arbitrate(0b01, 2, &ptr); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}
