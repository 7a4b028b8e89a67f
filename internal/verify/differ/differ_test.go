package differ

import (
	"context"
	"fmt"
	"testing"
)

// TestSpecFromSeedDeterministic pins the reproducer contract: a seed fully
// determines its spec, so a failing seed reported by cmd/rcverify (or a
// fuzz corpus entry) replays the exact same runs.
func TestSpecFromSeedDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := SpecFromSeed(seed), SpecFromSeed(seed)
		// Spec holds a func field (OnSample), so compare the rendering.
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d: specs differ:\n%+v\n%+v", seed, a, b)
		}
		if !a.Verify || !a.Audit {
			t.Fatalf("seed %d: generated spec must arm Verify and Audit", seed)
		}
	}
}

// TestDifferentialSeeds runs a few random specs through the full local
// differential matrix. cmd/rcverify scales this to hundreds of seeds; the
// test keeps CI to a handful.
func TestDifferentialSeeds(t *testing.T) {
	n := uint64(4)
	if testing.Short() {
		n = 2
	}
	for seed := uint64(0); seed < n; seed++ {
		seed := seed
		spec := SpecFromSeed(seed)
		t.Run(spec.Variant.Name+"/"+spec.Workload.Name, func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(context.Background(), spec, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// FuzzDifferential lets the fuzzer explore the seed space directly; any
// crasher it finds is a one-word reproducer for a determinism or invariant
// bug.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Fuzz(func(t *testing.T, seed uint64) {
		spec := SpecFromSeed(seed)
		// Bound the fuzz iteration: one chip, short run, tight oracles.
		spec.WarmupOps, spec.MeasureOps = 150, 400
		spec.VerifyEvery = 8
		if err := RunDifferential(context.Background(), spec, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
