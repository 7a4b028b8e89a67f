// Transaction anatomy: dissect a single L1 miss on an otherwise idle chip,
// variant by variant — the clearest view of what a reactive circuit does.
// The request crosses each router in five cycles; with a circuit built, its
// reply comes back at two cycles per hop, and with NoAck the L1_DATA_ACK
// disappears entirely.
package main

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

func main() {
	c := config.Chip64()
	m := mesh.New(c.Width, c.Height)
	src := m.Node(0, 0)
	// A line whose home bank is the far corner: the longest path.
	far := m.Node(c.Width-1, c.Height-1)
	addr := cache.Addr(uint64(far) * 64)

	fmt.Printf("one read miss: core %d -> L2 bank %d (%d hops) on an idle %s chip\n\n",
		src, far, m.Hops(src, far), c.Name)
	fmt.Printf("%-20s %10s %16s %14s\n", "variant", "miss", "reply in network", "acks on wire")

	for _, v := range config.KeyVariants() {
		sys := coherence.NewSystem(m, v.Opts, c.MCs)
		// Warm the line into the home bank so the miss is a clean
		// request-reply pair without a memory fetch.
		sys.Prefill(addr, -1, false)

		kernel := sim.NewKernel()
		sys.Register(kernel)
		done := false
		sys.L1s[src].SetMissHandler(func(now sim.Cycle) { done = true })
		if sys.L1s[src].Access(addr, false, 0) {
			panic("expected a miss")
		}
		missStart := kernel.Now()
		kernel.RunUntil(func() bool { return done }, 10000)
		missCycles := kernel.Now() - missStart
		kernel.RunUntil(func() bool { return !sys.Busy() }, 10000)

		fmt.Printf("%-20s %7d cy %13.0f cy %14d\n",
			v.Name, missCycles,
			sys.Lat.CircuitReplies.Network.Mean(),
			sys.Msgs.Network[coherence.MsgDataAck])
	}

	fmt.Println("\nthe request needs 5 cycles per hop; a complete circuit returns the")
	fmt.Println("5-flit data reply at 2 cycles per hop, and NoAck variants retire the")
	fmt.Println("transaction without the acknowledgement message")
}
