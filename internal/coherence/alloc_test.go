package coherence

import (
	"testing"

	"reactivenoc/internal/core"
)

// TestL2TransactionsDoNotAllocate pins the bank's transaction free list: once
// warm, a round of write-upgrade (invalidation gather, then grant awaiting
// the data ack) and forwarded read (awaiting the owner's ack) recycles every
// transaction record instead of allocating one per grant.
func TestL2TransactionsDoNotAllocate(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	// Each access drains before the next, so no request queues behind a
	// blocked line.
	round := func() {
		b.access(0, addr, true) // upgrade: invalidate tile 1, grant, ack
		b.drain()
		b.access(1, addr, false) // forward to owner 0, ack
		b.drain()
	}
	for i := 0; i < 4; i++ {
		round() // warm the free lists, maps and queues
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("warm L2 grant/ack round allocates %.2f objects, want 0", avg)
	}
	if got := b.sys.Msgs.Count(MsgInv); got == 0 {
		t.Fatal("the rounds never invalidated: no invalidation-gather transaction ran")
	}
}
