package chip

import (
	"runtime"
	"testing"

	"reactivenoc/internal/config"
)

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocationBudget keeps the set-up budget from rotting: once one
// run of a spec has left its cache arrays and its shell (network, circuit
// manager, controllers, the caches' views) on the free lists, every later
// run allocates only its cores, kernel, registry, messages and results —
// 46 KB for this 16-core spec, pinned at twice that, where the arrays alone
// are 6.6 MB —
// and the same spec with NoPool set still pays for the arrays, so the
// reference the cross-checks compare against really is fresh. Sized on
// bytes, not on pointer identity, so it holds under -race.
func TestRunAllocationBudget(t *testing.T) {
	spec := quickSpec(t, config.Chip16(), "Complete_NoAck")
	spec.WarmupOps, spec.MeasureOps = 200, 600
	MustRun(spec)
	for i := 0; i < 3; i++ {
		if b := allocatedBy(func() { MustRun(spec) }); b >= 94<<10 {
			t.Errorf("run %d on a recycled shell allocated %d bytes, want < 94 KB", i+2, b)
		}
	}
	spec.Variant.Opts.NoPool = true
	if b := allocatedBy(func() { MustRun(spec) }); b < 6<<20 {
		t.Errorf("a NoPool run allocated %d bytes, want the full arrays (> 6 MB)", b)
	}
}
