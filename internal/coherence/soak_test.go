package coherence

import (
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/sim"
)

// TestSoakWithPeriodicAudits runs long randomized traffic on the two most
// intricate variants, draining and auditing every layer several times
// mid-run — the heaviest correctness exercise in the suite.
func TestSoakWithPeriodicAudits(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	variants := map[string]core.Options{
		"reuse":      {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Reuse: true},
		"slackdelay": {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Timed: true, SlackPerHop: 1, DelayPerHop: 1},
		"fragmented": {Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2},
		"probe":      {Mechanism: core.MechProbe, MaxCircuitsPerPort: 5},
	}
	for name, opts := range variants {
		name, opts := name, opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := newTB(t, 4, 4, opts)
			rng := sim.NewRNG(4242)
			pool := make([]cache.Addr, 96)
			for i := range pool {
				pool[i] = cache.Addr(i * 64)
			}
			n := b.sys.M.Nodes()
			issued := make([]int, n)
			const opsPerRound, rounds = 80, 4
			for round := 0; round < rounds; round++ {
				target := (round + 1) * opsPerRound
				driver := tickFn(func(now sim.Cycle) {
					for id := 0; id < n; id++ {
						if b.sys.L1s[id].Pending() || issued[id] >= target {
							continue
						}
						issued[id]++
						b.sys.L1s[id].Access(pool[rng.Intn(len(pool))], rng.Bool(0.4), now)
					}
				})
				b.kernel.Add(driver)
				done := func() bool {
					if b.sys.Busy() {
						return false
					}
					for id := 0; id < n; id++ {
						if issued[id] < target {
							return false
						}
					}
					return true
				}
				if _, ok := b.kernel.RunUntil(done, 500000); !ok {
					t.Fatalf("round %d did not drain", round)
				}
				// Unregister by letting the driver saturate (it no-ops once
				// the target is met); audit the drained system.
				if err := b.sys.AuditQuiescent(b.kernel.Now()); err != nil {
					t.Fatalf("round %d audit: %v", round, err)
				}
			}
		})
	}
}
