package differ

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/workload"
)

// TestSpecFromSeedDeterministic pins the reproducer contract: a seed fully
// determines its spec, so a failing seed reported by cmd/rcverify (or a
// regression spec) replays the exact same runs.
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
// test keeps CI to a handful. A subtest is named after its seed, not the
// spec the seed draws, so a change to SpecFromSeed's draws renames none.
func TestDifferentialSeeds(t *testing.T) {
	n := uint64(4)
	if testing.Short() {
		n = 2
	}
	for seed := uint64(0); seed < n; seed++ {
		seed := seed
		spec := SpecFromSeed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := RunDifferential(context.Background(), spec, nil); err != nil {
				t.Fatalf("%s/%s: %v", spec.Variant.Name, spec.Workload.Name, err)
			}
		})
	}
}

// TestSpecFromSeedCoversTables: a thousand seeds draw every sweep column
// and every adversarial generator, so no family hides behind a rare draw.
func TestSpecFromSeedCoversTables(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 1000; seed++ {
		spec := SpecFromSeed(seed)
		seen[spec.Variant.Name], seen[spec.Workload.Name] = true, true
	}
	for _, v := range config.SweepVariants() {
		if !seen[v.Name] {
			t.Errorf("variant %s never drawn in seeds 0-999", v.Name)
		}
	}
	for _, w := range workload.Generators() {
		if !seen[w.Name] {
			t.Errorf("generator %s never drawn in seeds 0-999", w.Name)
		}
	}
}

// TestRegressionSpecs replays the specs under testdata/regress, in the
// format `rcverify -corpus` writes a failing spec in: seed 7 (Reuse_NoAck
// on hotspot) and three SDM cells (seeds 24, 29 and 30) as FuzzDifferential
// ran them, at 150 + 400 ops with the oracles every 8 cycles. Each file
// decodes strictly to its preset's design, and the fingerprints pin it to
// that exact spec.
func TestRegressionSpecs(t *testing.T) {
	for _, tc := range []struct{ name, fingerprint string }{
		{"rcverify-seed-7", "spec-0cf292dac8b6d652ba1a672a2cf04c7f"},
		{"sdm-8lane-micro", "spec-ffe35db9b0900ff937ff591e90838f5e"},
		{"sdm-2lane-hotspot", "spec-c4e3cc0c6f8b002569b5dbbb1fb55034"},
		{"sdm-4lane-mix", "spec-45e4e92c1eb6960c7973f66128550cf3"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b, err := os.ReadFile(filepath.Join("testdata", "regress", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			// Strictly: a field Spec no longer has would be dropped, and
			// the file would replay some other design.
			var spec chip.Spec
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatal(err)
			}
			if v, ok := config.ByName(spec.Variant.Name); !ok || v.Opts != spec.Variant.Opts {
				t.Fatalf("variant %s runs %+v, not its preset's design", spec.Variant.Name, spec.Variant.Opts)
			}
			if fp := spec.Fingerprint(); fp != tc.fingerprint {
				t.Fatalf("spec fingerprint %s, want %s", fp, tc.fingerprint)
			}
			if err := RunDifferential(context.Background(), spec, nil); err != nil {
				t.Fatal(err)
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

// TestCatalogue: every class has a canonical scenario and only
// TruncateWindow and ReorderReply lack one under the SDM fabric, whose
// circuits are untimed and which never eliminates an ack; Detect refuses a
// cell whose fault never fires instead of passing it vacuously, and with
// the oracles disarmed it accepts only an unattributed detection — a
// withheld credit is still caught, by the end-of-run audit.
func TestCatalogue(t *testing.T) {
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		spec, ok := FaultScenario(c, "")
		if !ok || spec.Fault.Class != c || spec.VerifyEvery != 1 || !spec.Audit {
			t.Errorf("%v: canonical scenario ok=%v %+v", c, ok, spec.Fault)
		}
		if _, ok := FaultScenario(c, "SDM"); ok != (c != fault.TruncateWindow && c != fault.ReorderReply) {
			t.Errorf("%v: SDM scenario ok=%v", c, ok)
		}
	}
	baseline, _ := config.ByName("Baseline")
	spec := PolicySpec(baseline) // no circuits: no built bit to flip
	spec.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
	if _, err := Detect(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Fatalf("Detect on a fault that cannot fire: %v", err)
	}
	spec, _ = FaultScenario(fault.WithholdCredit, "")
	spec.Verify = false
	re, err := Detect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if re.Phase != "audit" {
		t.Fatalf("withheld credit with the oracles disarmed caught in phase %s: %s", re.Phase, re.Msg)
	}
}
