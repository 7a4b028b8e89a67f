package chip

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

func testSpec() Spec {
	v, _ := config.ByName("Complete_NoAck")
	return DefaultSpec(config.Chip16(), v, workload.Micro())
}

// TestFingerprintStability: fingerprinting is pure — two specs built the
// same way hash identically, and repeated calls agree.
func TestFingerprintStability(t *testing.T) {
	a, b := testSpec(), testSpec()
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa == "" || fa != fb {
		t.Fatalf("equal specs disagree: %q vs %q", fa, fb)
	}
	if fa != a.Fingerprint() {
		t.Fatalf("fingerprint not idempotent")
	}
	// A spec with the fault plan populated is also stable.
	a.Fault = &fault.Plan{Class: fault.StallLink, After: 100}
	b.Fault = &fault.Plan{Class: fault.StallLink, After: 100}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal fault-armed specs disagree")
	}
}

// TestFingerprintIgnoresObservers: OnSample and RecordTrace are runtime
// observers and DenseKernel and Options.NoPool engine switches, not inputs:
// setting them must not move the cache key, and the two switches never
// reach a spec's JSON.
func TestFingerprintIgnoresObservers(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.OnSample = func(sim.Snapshot) {}
	b.RecordTrace = "trace.bin"
	b.DenseKernel = true
	b.Variant.Opts.NoPool = true
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("an observer or engine switch leaked into the fingerprint")
	}
	b.OnSample = nil
	enc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"DenseKernel", "NoPool"} {
		if strings.Contains(string(enc), name) {
			t.Errorf("the spec's JSON names %s: %s", name, enc)
		}
	}
}

// mutate flips one leaf field (addressed by v) to a different value,
// returning false for kinds that intentionally do not fingerprint (funcs).
func mutate(t *testing.T, v reflect.Value, path string) bool {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		return false
	default:
		t.Fatalf("field %s: unhandled kind %s — extend the fingerprint test", path, v.Kind())
	}
	return true
}

// leafFields walks every addressable leaf of a struct value, descending
// into nested structs and allocating nil pointers so pointed-to fields
// (the fault plan) are exercised too. Fields tagged json:"-" are passed to
// skip instead of walked.
func leafFields(t *testing.T, v reflect.Value, path string, visit, skip func(reflect.Value, string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("field %s.%s is unexported: JSON fingerprinting would miss it", path, f.Name)
			}
			if f.Tag.Get("json") == "-" {
				skip(v.Field(i), path+"."+f.Name)
				continue
			}
			leafFields(t, v.Field(i), path+"."+f.Name, visit, skip)
		}
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		leafFields(t, v.Elem(), path, visit, skip)
	default:
		visit(v, path)
	}
}

// unfingerprinted is every spec field excluded from the fingerprint: the
// observers and the engine switches, none of which can change a simulated
// number (Spec.Fingerprint).
var unfingerprinted = []string{
	"Spec.Variant.Opts.NoPool", "Spec.OnSample", "Spec.DenseKernel", "Spec.RecordTrace",
}

// TestFingerprintCoversEveryField mutates each leaf field of the spec in
// turn and demands a fingerprint change — so nobody can add a
// result-affecting knob that the result cache silently ignores — and holds
// the excluded fields to exactly unfingerprinted.
func TestFingerprintCoversEveryField(t *testing.T) {
	// Baseline includes an allocated fault plan so pointer leaves compare
	// against a populated baseline rather than nil-vs-zero.
	base := testSpec()
	base.Fault = &fault.Plan{}
	baseFP := base.Fingerprint()

	var paths, skipped []string
	leafFields(t, reflect.ValueOf(&base).Elem(), "Spec",
		func(_ reflect.Value, p string) { paths = append(paths, p) },
		func(_ reflect.Value, p string) { skipped = append(skipped, p) })
	if len(paths) < 15 {
		t.Fatalf("suspiciously few spec leaves (%d): walker broken?", len(paths))
	}
	if !slices.Equal(skipped, unfingerprinted) {
		t.Fatalf("fields excluded from the fingerprint: %v, want %v", skipped, unfingerprinted)
	}

	for _, target := range paths {
		spec := testSpec()
		spec.Fault = &fault.Plan{}
		changed := false
		leafFields(t, reflect.ValueOf(&spec).Elem(), "Spec", func(v reflect.Value, p string) {
			if p == target && !changed {
				changed = mutate(t, v, p)
			}
		}, func(reflect.Value, string) {})
		if !changed {
			continue // non-fingerprinting kind (funcs), covered above
		}
		if got := spec.Fingerprint(); got == baseFP {
			t.Errorf("mutating %s did not change the fingerprint", target)
		}
	}
}

// presetFingerprints pins the fingerprint of every preset under
// DefaultSpec(Chip16, v, Micro): a change to the spec's encoding moves
// them, and with them every cached result, so it must be made on purpose.
var presetFingerprints = map[string]string{
	"Baseline":           "spec-34bb7380e586fb0613f8e21a54ad947c",
	"Fragmented":         "spec-fcad091a4279ce84e2885c7a184a2ad6",
	"Complete":           "spec-8c33a260cc7b8351b862f46ff8e5811a",
	"Complete_NoAck":     "spec-b349423c096539cb6a0c17a76444699c",
	"Reuse_NoAck":        "spec-d664ef5e08fc81727c18955188fd7c98",
	"Timed_NoAck":        "spec-af8b24136919be1331bf6fa5b104beea",
	"Slack_1_NoAck":      "spec-7747ba736dff1b112a6796e9c3be760d",
	"Slack_2_NoAck":      "spec-a295a8c82e5f074cd8e3438d14312322",
	"Slack_4_NoAck":      "spec-51fb1fd914bc6e5aeee60710f15ed8dd",
	"SlackDelay_1_NoAck": "spec-7de932be2f8eef1270f6a98c8c7b7649",
	"Postponed_1_NoAck":  "spec-c62f19ba4edc87be8e7413cea0a8f6a1",
	"Ideal":              "spec-87251ff9f1ff7f7f21c64cee07b1e95a",
	"DynamicVC":          "spec-3827eff4cd6fd3381d26a6845156f9c2",
	"SDM":                "spec-9f0f6d726d34f9381c1ffd771eff7d7f",
	"SDM_2":              "spec-2dc3a6f84c0aa4940a7efb796c0b934a",
	"SDM_8":              "spec-edf94d37dd46e75db7940801858f1ab8",
	"Speculative":        "spec-a54664cd04fe93b6812a932986d613cf",
	"Probe_DejaVu":       "spec-119900bac693dcccb9a5943b6ea08e93",
	"Slack_8_NoAck":      "spec-d41ef9e6ba92ea46f2c8f807da7043aa",
	"Postponed_2_NoAck":  "spec-9fc1537e5fa5efe3840b7cd10e92d4ed",
}

// TestPresetFingerprintsPinned asserts every preset fingerprints to its
// pinned value.
func TestPresetFingerprintsPinned(t *testing.T) {
	if len(presetFingerprints) != len(config.RegisteredNames()) {
		t.Errorf("%d pinned fingerprints, %d presets", len(presetFingerprints), len(config.RegisteredNames()))
	}
	for _, name := range config.RegisteredNames() {
		v, _ := config.ByName(name)
		spec := DefaultSpec(config.Chip16(), v, workload.Micro())
		if got, want := spec.Fingerprint(), presetFingerprints[name]; got != want {
			t.Errorf("%q: %q, // want pinned %q (cached results invalidated)", name, got, want)
		}
	}
}

// TestPolicyVariantFingerprintsDistinct: every preset and the SDM lane
// knob land in distinct cache slots — never colliding with each other.
func TestPolicyVariantFingerprintsDistinct(t *testing.T) {
	seen := map[string]string{}
	note := func(label, fp string) {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s fingerprints identically to %s (%s)", label, prev, fp)
		}
		seen[fp] = label
	}
	for _, name := range config.RegisteredNames() {
		v, _ := config.ByName(name)
		note(name, DefaultSpec(config.Chip16(), v, workload.Micro()).Fingerprint())
	}
	// A swept tuning value that hashed like the default would silently
	// reuse the default's cached results.
	for _, v := range config.SDMVariants() {
		spec := DefaultSpec(config.Chip16(), v, workload.Micro())
		spec.Variant.Opts.SDMLanes++
		spec.Variant.Name += "+1 lane"
		note(spec.Variant.Name, spec.Fingerprint())
	}
}
