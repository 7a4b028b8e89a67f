package config

import (
	"slices"
	"testing"

	"reactivenoc/internal/core"
)

// TestPolicyVariantsValidAndSeparate: the policy-lab presets validate,
// resolve to their named policies, and stay out of the paper's inventory.
func TestPolicyVariantsValidAndSeparate(t *testing.T) {
	pvs := PolicyVariants()
	want := map[string]string{
		"DynamicVC": "dynamic-vc",
	}
	if len(pvs) != len(want) {
		t.Fatalf("PolicyVariants has %d entries, want %d", len(pvs), len(want))
	}
	for _, v := range pvs {
		policy, ok := want[v.Name]
		if !ok {
			t.Errorf("unexpected policy variant %s", v.Name)
			continue
		}
		if err := v.Opts.Validate(); err != nil {
			t.Errorf("%s invalid: %v", v.Name, err)
		}
		if got := v.Opts.Mechanism.String(); got != policy {
			t.Errorf("%s resolves to policy %s, want %s", v.Name, got, policy)
		}
		for _, pv := range Variants() {
			if pv.Name == v.Name {
				t.Errorf("%s leaked into the paper inventory Variants()", v.Name)
			}
		}
	}
}

// TestSweepVariantsOrder: sweeps run the paper's columns first, then the
// policy lab, then the SDM presets, with no duplicates.
func TestSweepVariantsOrder(t *testing.T) {
	sv := SweepVariants()
	want := len(Variants()) + len(PolicyVariants()) + len(SDMVariants())
	if len(sv) != want {
		t.Fatalf("SweepVariants has %d entries, want %d", len(sv), want)
	}
	seen := map[string]bool{}
	for i, v := range Variants() {
		if sv[i].Name != v.Name {
			t.Fatalf("sweep column %d is %s, want paper variant %s", i, sv[i].Name, v.Name)
		}
	}
	for _, v := range sv {
		if seen[v.Name] {
			t.Errorf("duplicate sweep column %s", v.Name)
		}
		seen[v.Name] = true
	}
}

// TestRegistry: the preset table lists every name once, in its pinned
// order, and serves every family by name.
func TestRegistry(t *testing.T) {
	names := RegisteredNames()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	idx := map[string]int{}
	for i, n := range names {
		if _, dup := idx[n]; dup {
			t.Fatalf("registry lists %s twice", n)
		}
		idx[n] = i
	}
	// Every family is reachable through ByName.
	for _, want := range []string{"Baseline", "DynamicVC", "Speculative", "Probe_DejaVu"} {
		v, ok := ByName(want)
		if !ok || v.Name != want {
			t.Errorf("ByName(%q) = (%v, %v)", want, v.Name, ok)
		}
	}
	if _, ok := ByName("NoSuchVariant"); ok {
		t.Error("ByName invented a variant")
	}
	// The listing order: Figure 6's bars, the sweep's policy-lab and SDM
	// columns, the comparators, then the tuning grid's extra points.
	want := []string{"Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck",
		"Timed_NoAck", "Slack_1_NoAck", "Slack_2_NoAck", "Slack_4_NoAck", "SlackDelay_1_NoAck",
		"Postponed_1_NoAck", "Ideal", "DynamicVC", "SDM", "SDM_2", "SDM_8", "Speculative",
		"Probe_DejaVu", "Slack_8_NoAck", "Postponed_2_NoAck"}
	if !slices.Equal(names, want) {
		t.Errorf("RegisteredNames = %v, want %v", names, want)
	}
}

// TestVariantForPolicy: every policy has a representative preset — the
// contract the conformance suite enforces at run time — and it is the
// first preset in table order that selects the policy.
func TestVariantForPolicy(t *testing.T) {
	reps := map[string]string{
		"baseline": "Baseline", "fragmented": "Fragmented", "complete": "Complete", "ideal": "Ideal",
		"probe-setup": "Probe_DejaVu", "dynamic-vc": "DynamicVC", "sdm": "SDM", "speculative": "Speculative",
	}
	for _, name := range PolicyNames() {
		v, ok := VariantForPolicy(name)
		if !ok {
			t.Errorf("policy %s has no representative variant", name)
			continue
		}
		if got := v.Opts.Mechanism.String(); got != name {
			t.Errorf("representative %s for %s resolves to %s", v.Name, name, got)
		}
		if v.Name != reps[name] {
			t.Errorf("representative for %s is %s, want %s", name, v.Name, reps[name])
		}
	}
	if _, ok := VariantForPolicy("no-such-policy"); ok {
		t.Error("VariantForPolicy invented a policy")
	}
}

// TestVariantsForPolicy: the complete family owns most paper columns, the
// new policies own exactly their own, and probe-setup and speculative have
// no sweep column (their presets are comparators, not sweep variants).
func TestVariantsForPolicy(t *testing.T) {
	for policy, wantNames := range map[string][]string{
		"baseline":    {"Baseline"},
		"fragmented":  {"Fragmented"},
		"dynamic-vc":  {"DynamicVC"},
		"sdm":         {"SDM", "SDM_2", "SDM_8"},
		"probe-setup": nil,
		"speculative": nil,
	} {
		got := VariantsForPolicy(policy)
		if len(got) != len(wantNames) {
			t.Errorf("VariantsForPolicy(%s) = %d variants, want %d", policy, len(got), len(wantNames))
			continue
		}
		for i, v := range got {
			if v.Name != wantNames[i] {
				t.Errorf("VariantsForPolicy(%s)[%d] = %s, want %s", policy, i, v.Name, wantNames[i])
			}
		}
	}
	if n := len(VariantsForPolicy("complete")); n != 9 {
		t.Errorf("complete policy sweeps %d columns, want 9", n)
	}
}

// TestPolicyNamesForwarding: config re-exports core's table order.
func TestPolicyNamesForwarding(t *testing.T) {
	got, want := PolicyNames(), core.PolicyNames()
	order := []string{"baseline", "fragmented", "complete", "ideal", "probe-setup", "dynamic-vc", "sdm", "speculative"}
	if !slices.Equal(want, order) {
		t.Errorf("core.PolicyNames = %v, want %v", want, order)
	}
	if len(got) != len(want) {
		t.Fatalf("PolicyNames = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PolicyNames = %v, want %v", got, want)
		}
	}
}
