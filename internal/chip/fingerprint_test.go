package chip

import (
	"reflect"
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

// TestFingerprintIgnoresObservers: OnSample is a runtime observer, not an
// input — attaching one must not move the cache key.
func TestFingerprintIgnoresObservers(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.OnSample = func(sim.Snapshot) {}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("OnSample leaked into the fingerprint")
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
// (the fault plan) are exercised too.
func leafFields(t *testing.T, v reflect.Value, path string, visit func(reflect.Value, string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("field %s.%s is unexported: JSON fingerprinting would miss it", path, f.Name)
			}
			if f.Tag.Get("json") == "-" {
				continue // deliberately unfingerprinted (observers, engine knobs)
			}
			leafFields(t, v.Field(i), path+"."+f.Name, visit)
		}
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		leafFields(t, v.Elem(), path, visit)
	default:
		visit(v, path)
	}
}

// TestFingerprintCoversEveryField mutates each leaf field of the spec in
// turn and demands a fingerprint change — so nobody can add a
// result-affecting knob that the result cache silently ignores.
func TestFingerprintCoversEveryField(t *testing.T) {
	// Baseline includes an allocated fault plan so pointer leaves compare
	// against a populated baseline rather than nil-vs-zero.
	base := testSpec()
	base.Fault = &fault.Plan{}
	baseFP := base.Fingerprint()

	var paths []string
	leafFields(t, reflect.ValueOf(&base).Elem(), "Spec", func(_ reflect.Value, p string) {
		paths = append(paths, p)
	})
	if len(paths) < 15 {
		t.Fatalf("suspiciously few spec leaves (%d): walker broken?", len(paths))
	}

	for _, target := range paths {
		spec := testSpec()
		spec.Fault = &fault.Plan{}
		changed := false
		leafFields(t, reflect.ValueOf(&spec).Elem(), "Spec", func(v reflect.Value, p string) {
			if p == target && !changed {
				changed = mutate(t, v, p)
			}
		})
		if !changed {
			continue // non-fingerprinting kind (funcs), covered above
		}
		if got := spec.Fingerprint(); got == baseFP {
			t.Errorf("mutating %s did not change the fingerprint", target)
		}
	}
}

// prePolicyFingerprints pins the fingerprint of every pre-existing variant
// (the paper's inventory plus the related-work comparators) to the value it
// had before the switching-policy refactor, all under
// DefaultSpec(Chip16, v, Micro). The refactor added Options knobs; their
// omitempty JSON tags must keep every old encoding — and therefore every
// cached result — byte-identical.
var prePolicyFingerprints = map[string]string{
	"Baseline":           "spec-b154dcfc590eabec22d8aae0e2c2abbd",
	"Fragmented":         "spec-d4cecc44b69fa5bfa99641c265f2e7f5",
	"Complete":           "spec-badaf5d66f3dd63d948aec9318bc8a47",
	"Complete_NoAck":     "spec-da4735e809b6bceb3df68423e37e5561",
	"Reuse_NoAck":        "spec-5442271bc48fb0d6217740ed61cf8116",
	"Timed_NoAck":        "spec-3ca5fc5be14a24ad0a96c7e907ef28af",
	"Slack_1_NoAck":      "spec-db85d35b48a22d3c1e24d0a9a2c39b14",
	"Slack_2_NoAck":      "spec-4c8cd3d83341a77b4a6f1ed7074b3c28",
	"Slack_4_NoAck":      "spec-2792917b236cae93d443d2b7e0abb920",
	"SlackDelay_1_NoAck": "spec-77ba827cd27e6c5a065449080f6c08fe",
	"Postponed_1_NoAck":  "spec-d81fae2cfb7f82d022683246c2addce9",
	"Ideal":              "spec-34a5fdf7b3d14aab3a9125549f13b8a5",
	"Speculative":        "spec-559344353dfbe661418dfea01406414f",
	"Probe_DejaVu":       "spec-b96b17336729a9a29a3d2d944d6ece59",
}

// TestFingerprintsPinnedAcrossPolicyRefactor asserts every pre-refactor
// variant still fingerprints to its captured value: result caches survive
// the policy seam unchanged.
func TestFingerprintsPinnedAcrossPolicyRefactor(t *testing.T) {
	for name, want := range prePolicyFingerprints {
		v, ok := config.ByName(name)
		if !ok {
			t.Errorf("variant %s no longer registered", name)
			continue
		}
		spec := DefaultSpec(config.Chip16(), v, workload.Micro())
		if got := spec.Fingerprint(); got != want {
			t.Errorf("variant %s: fingerprint %s, want pinned %s (cached results invalidated)", name, got, want)
		}
	}
}

// TestPolicyVariantFingerprintsDistinct: the policy-lab and SDM variants
// and each of their tuning knobs land in distinct cache slots — never
// colliding with a pinned legacy fingerprint or with each other.
func TestPolicyVariantFingerprintsDistinct(t *testing.T) {
	seen := map[string]string{}
	for name, fp := range prePolicyFingerprints {
		seen[fp] = name
	}
	note := func(label, fp string) {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s fingerprints identically to %s (%s)", label, prev, fp)
		}
		seen[fp] = label
	}
	variants := append(config.PolicyVariants(), config.SDMVariants()...)
	for _, v := range variants {
		base := DefaultSpec(config.Chip16(), v, workload.Micro())
		note(v.Name, base.Fingerprint())

		// Every policy knob must perturb the fingerprint: a swept tuning
		// value that hashed like the default would silently reuse the
		// default's cached results.
		knobs := map[string]func(*Spec){
			"Policy":              func(s *Spec) { s.Variant.Opts.Policy += "x" },
			"ProfileWindow":       func(s *Spec) { s.Variant.Opts.ProfileWindow++ },
			"ProfileThresholdPct": func(s *Spec) { s.Variant.Opts.ProfileThresholdPct++ },
			"ProfileBackoff":      func(s *Spec) { s.Variant.Opts.ProfileBackoff++ },
			"DynVCMin":            func(s *Spec) { s.Variant.Opts.DynVCMin++ },
			"DynVCMax":            func(s *Spec) { s.Variant.Opts.DynVCMax++ },
			"DynVCWindow":         func(s *Spec) { s.Variant.Opts.DynVCWindow++ },
			"SDMLanes":            func(s *Spec) { s.Variant.Opts.SDMLanes++ },
		}
		for knob, mut := range knobs {
			spec := DefaultSpec(config.Chip16(), v, workload.Micro())
			mut(&spec)
			if spec.Fingerprint() == base.Fingerprint() {
				t.Errorf("%s: mutating %s did not change the fingerprint", v.Name, knob)
			}
		}
	}
}
