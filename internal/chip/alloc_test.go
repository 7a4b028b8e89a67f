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
// run of a spec has left its cache arrays on the free lists, every later
// run allocates only the network, the controllers and its own results —
// under 1 MB for a 16-core chip, where the arrays alone are 6.6 MB — and
// the same spec with NoPool set still pays for the arrays, so the reference
// the cross-checks compare against really is fresh. Sized on bytes, not on
// pointer identity, so it holds under -race.
func TestRunAllocationBudget(t *testing.T) {
	spec := quickSpec(t, config.Chip16(), "Complete_NoAck")
	spec.WarmupOps, spec.MeasureOps = 200, 600
	MustRun(spec)
	for i := 0; i < 3; i++ {
		if b := allocatedBy(func() { MustRun(spec) }); b >= 1<<20 {
			t.Errorf("run %d on recycled arrays allocated %d bytes, want < 1 MB", i+2, b)
		}
	}
	spec.NoPool = true
	if b := allocatedBy(func() { MustRun(spec) }); b < 6<<20 {
		t.Errorf("a NoPool run allocated %d bytes, want the full arrays (> 6 MB)", b)
	}
}
