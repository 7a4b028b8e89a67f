// Traffic map: render per-router link utilization on the 64-node mesh as
// an ASCII heat map, baseline vs complete Reactive Circuits. The map makes
// two things visible at once: the XY/YX dimension-order hot rows/columns
// around the four memory-controller tiles, and how little the circuit
// mechanism changes *where* traffic flows (it changes how fast replies
// cross each router, not their paths).
//
// This example drives the mid-level API directly (coherence.System +
// cpu.Core) instead of chip.Run, to show how the pieces compose.
package main

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

func main() {
	c := config.Chip64()
	w, _ := workload.ByName("canneal")
	fmt.Printf("link utilization heat map: %s on the %s chip\n", w.Name, c.Name)

	for _, name := range []string{"Baseline", "Complete_NoAck"} {
		v, _ := config.ByName(name)
		m := mesh.New(c.Width, c.Height)
		sys := coherence.NewSystem(m, v.Opts, c.MCs)

		// Warm the caches (the prefill chip.RunCtx does).
		for i := 0; i < m.Nodes(); i++ {
			for _, reg := range w.Regions(i) {
				for l := 0; l < reg.Lines; l++ {
					tile := mesh.NodeID(-1)
					if l < reg.L1Lines {
						tile = mesh.NodeID(i)
					}
					sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
				}
			}
		}
		// Registered as chip.RunCtx does it: the system's components and its
		// cycle epilogue, then the cores.
		kernel := sim.NewKernel()
		sys.Register(kernel)
		cores := make([]*cpu.Core, m.Nodes())
		for i := range cores {
			cores[i] = cpu.New(i, sys.L1s[i], w.Stream(i, 1), 6000)
			kernel.Add(cores[i])
		}
		kernel.RunUntil(func() bool {
			for _, core := range cores {
				if !core.Done() {
					return false
				}
			}
			return !sys.Busy()
		}, 10_000_000)

		// Per-router total forwarded flits, normalized to the hottest.
		heat := make([]int64, m.Nodes())
		var max int64 = 1
		for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
			r := sys.Net.Router(id)
			var sum int64
			for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
				sum += r.FlitsOut(d)
			}
			heat[id] = sum
			if sum > max {
				max = sum
			}
		}

		fmt.Printf("\n%s (cycles: %d, hottest router forwarded %d flits)\n", name, kernel.Now(), max)
		shades := []byte(" .:-=+*#%@")
		for y := 0; y < c.Height; y++ {
			fmt.Print("  ")
			for x := 0; x < c.Width; x++ {
				v := heat[m.Node(x, y)] * int64(len(shades)-1) / max
				fmt.Printf("%c%c", shades[v], shades[v])
			}
			fmt.Println()
		}
	}
	fmt.Println("\nthe dimension-order hot spots (memory-controller rows/columns) persist;")
	fmt.Println("circuits change per-hop latency, not paths — so the map barely moves")
}
