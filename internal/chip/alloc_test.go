package chip

import (
	"runtime"
	"testing"

	"reactivenoc/internal/config"
)

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc).
func allocatedBy(f func()) uint64 {
	_, bytes := allocsBy(f)
	return bytes
}

// allocsBy returns the objects and bytes f allocated (runtime.MemStats
// Mallocs and TotalAlloc). Unlike testing.AllocsPerRun it leaves
// GOMAXPROCS alone: a free list keeps at most GOMAXPROCS values a key, so
// at 1 it would drop the shell and slabs a run hands back whenever other
// runs of the process had left one more of the same inputs.
func allocsBy(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocationBudget keeps the set-up budget from rotting: once one
// run of a spec has filed its machine shell (system, kernel, cores,
// streams, regions, registry, the network's free lists) and left its cache
// arrays on the free lists, every later run allocates only what its
// Results hold — the Results, its per-core and circuit statistics, the
// metrics snapshot's map and the reply-latency histogram (the warm-up's,
// cleared in place): 9 objects in 6.5 KB on a warm 16-core run and 8.7 KB
// on a warm 64-core one, pinned here, where the arrays alone are 6.6 and
// 26 MB.
// The same spec with NoPool set still pays for the arrays, so the
// reference the cross-checks compare against really is fresh. Sized on
// counts and bytes, not on pointer identity, so it holds under -race.
func TestRunAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		chip    config.Chip
		objects uint64
		bytes   uint64
	}{
		{config.Chip16(), 9, 8 << 10},
		{config.Chip64(), 9, 10 << 10},
	} {
		spec := quickSpec(t, tc.chip, "Complete_NoAck")
		spec.WarmupOps, spec.MeasureOps = 200, 600
		MustRun(spec)
		const runs = 3
		objects, bytes := allocsBy(func() {
			for range runs {
				MustRun(spec)
			}
		})
		if objects/runs > tc.objects || bytes/runs > tc.bytes {
			t.Errorf("%s: a run on a recycled shell allocated %d objects in %d bytes, want at most %d in %d",
				tc.chip.Name, objects/runs, bytes/runs, tc.objects, tc.bytes)
		}
	}
	spec := quickSpec(t, config.Chip16(), "Complete_NoAck")
	spec.WarmupOps, spec.MeasureOps = 200, 600
	spec.Variant.Opts.NoPool = true
	if b := allocatedBy(func() { MustRun(spec) }); b < 6<<20 {
		t.Errorf("a NoPool run allocated %d bytes, want the full arrays (> 6 MB)", b)
	}
}
