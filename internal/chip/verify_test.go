package chip

import (
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// TestVerifyCleanRuns proves the oracle suite is false-positive free: a
// healthy run of every mechanism family must pass every online check at a
// tight cadence and the attributed quiescent audit. Any oracle firing here
// is a bug in the oracle (or a real one in the simulator).
func TestVerifyCleanRuns(t *testing.T) {
	names := []string{
		"Baseline", "Fragmented", "Complete", "Complete_NoAck",
		"Reuse_NoAck", "Timed_NoAck", "SlackDelay_1_NoAck", "Ideal",
	}
	if testing.Short() {
		names = []string{"Baseline", "Complete_NoAck", "Timed_NoAck"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.ByName(name)
			if !ok {
				t.Fatalf("unknown variant %s", name)
			}
			spec := Spec{
				Chip: config.Chip16(), Variant: v, Workload: workload.Micro(),
				WarmupOps: 300, MeasureOps: 1500, Seed: 11,
				Audit: true, Verify: true, VerifyEvery: 8,
			}
			if _, err := Run(spec); err != nil {
				t.Fatalf("verified run failed: %v", err)
			}
		})
	}
}

// TestVerifyPast64Tiles arms a 9x9 chip, the smallest square mesh whose
// directory needs a spill word: every shared copy on tiles 64-80 must have
// its directory record and every invalidation must reach it.
func TestVerifyPast64Tiles(t *testing.T) {
	for _, name := range []string{"Baseline", "Complete_NoAck", "Reuse_NoAck"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.ByName(name)
			if !ok {
				t.Fatalf("unknown variant %s", name)
			}
			spec := Spec{
				Chip: chip81, Variant: v, Workload: workload.Micro(),
				WarmupOps: 300, MeasureOps: 600, Seed: 7,
				Audit: true, Verify: true,
			}
			if _, err := Run(spec); err != nil {
				t.Fatalf("verified run failed: %v", err)
			}
		})
	}
}

// TestVerifyComparators extends the clean-run proof to the related-work
// comparators (speculative router, probe-based setup), whose bypass and
// probe traffic exercise oracle paths the main variants do not.
func TestVerifyComparators(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestVerifyCleanRuns in short mode")
	}
	for _, v := range config.Comparators() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			spec := Spec{
				Chip: config.Chip16(), Variant: v, Workload: workload.Micro(),
				WarmupOps: 300, MeasureOps: 1500, Seed: 13,
				Audit: true, Verify: true, VerifyEvery: 8,
			}
			if _, err := Run(spec); err != nil {
				t.Fatalf("verified run failed: %v", err)
			}
		})
	}
}
