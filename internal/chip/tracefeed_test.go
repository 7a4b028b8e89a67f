package chip

import (
	"path/filepath"
	"reflect"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

func variantByName(t *testing.T, name string) config.Variant {
	t.Helper()
	for _, v := range config.Variants() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("unknown variant %q", name)
	return config.Variant{}
}

// sameResults asserts two runs are bit-identical: every pinned aggregate,
// every per-core counter, and the full metrics snapshot.
func sameResults(t *testing.T, label string, a, b *Results) {
	t.Helper()
	if a.Cycles != b.Cycles || a.SimCycles != b.SimCycles {
		t.Errorf("%s: cycles (%d, %d) != (%d, %d)", label, a.Cycles, a.SimCycles, b.Cycles, b.SimCycles)
	}
	if !reflect.DeepEqual(a.Cores, b.Cores) {
		t.Errorf("%s: per-core stats differ", label)
	}
	for name, v := range a.Metrics.Vals {
		if got := b.Metrics.Value(name); got != v {
			t.Errorf("%s: metric %s: %d != %d", label, name, v, got)
		}
	}
	for name := range b.Metrics.Vals {
		if _, ok := a.Metrics.Vals[name]; !ok {
			t.Errorf("%s: metric %s only in second run", label, name)
		}
	}
}

// TestRecordReplayBitIdentity is the tentpole conformance check: a
// synthetic run recorded to a trace and replayed from it produces
// bit-identical Results — and the recorder itself is invisible (the
// recorded run equals the plain run).
func TestRecordReplayBitIdentity(t *testing.T) {
	hotspot, _ := workload.ByName("hotspot")
	for _, tc := range []struct {
		name     string
		workload workload.Profile
		variant  string
	}{
		{"micro/Reuse", workload.Micro(), "Reuse_NoAck"},
		{"hotspot/Timed", hotspot, "Timed_NoAck"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := DefaultSpec(config.Chip16(), variantByName(t, tc.variant), tc.workload)
			spec.WarmupOps = 600
			spec.MeasureOps = 2400
			spec.Seed = 7

			plain, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "run.rctf")
			recSpec := spec
			recSpec.RecordTrace = path
			recorded, err := Run(recSpec)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "recorded-vs-plain", plain, recorded)

			traceProfile, _, err := tracefeed.LoadWorkload(path)
			if err != nil {
				t.Fatal(err)
			}
			replaySpec := spec
			replaySpec.Workload = traceProfile
			replayed, err := Run(replaySpec)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "replayed-vs-plain", plain, replayed)
		})
	}
}

// TestReplayRejectsMismatchedSpecs pins the replay guard rails: wrong
// chip size, wrong phase budgets, and a stale CRC all fail at spec build
// with a plain error, not mid-run.
func TestReplayRejectsMismatchedSpecs(t *testing.T) {
	spec := DefaultSpec(config.Chip16(), variantByName(t, "Baseline"), workload.Micro())
	spec.WarmupOps = 100
	spec.MeasureOps = 400
	spec.Seed = 3
	path := filepath.Join(t.TempDir(), "run.rctf")
	spec.RecordTrace = path
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	traceProfile, _, err := tracefeed.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}

	good := spec
	good.RecordTrace = ""
	good.Workload = traceProfile
	if _, err := Run(good); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	wrongChip := good
	wrongChip.Chip = config.Chip64()
	if _, err := Run(wrongChip); err == nil {
		t.Error("16-core trace accepted on a 64-core chip")
	}

	wrongOps := good
	wrongOps.MeasureOps = 999
	if _, err := Run(wrongOps); err == nil {
		t.Error("mismatched phase budget accepted")
	}

	wrongCRC := good
	wrongCRC.Workload.TraceCRC ^= 0xFFFF
	if _, err := Run(wrongCRC); err == nil {
		t.Error("stale CRC accepted")
	}

	missing := good
	missing.Workload.TracePath = filepath.Join(t.TempDir(), "gone.rctf")
	if _, err := Run(missing); err == nil {
		t.Error("missing trace file accepted")
	}
}
