package differ

import (
	"context"
	"fmt"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/trace"
	"reactivenoc/internal/workload"
)

// TestPolicyConformance enumerates every registered switching policy and
// runs its representative variant through the full gauntlet: a registered
// preset must exist (a policy without a runnable preset cannot be
// tested), the run must come back oracle-clean and audit-clean (which
// includes zero leaked circuit entries at quiesce), and the pooled,
// unpooled and dense-kernel legs must be bit-identical.
func TestPolicyConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	names := config.PolicyNames()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 registered policies (5 mechanisms + dynamic-vc + sdm), got %d: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.VariantForPolicy(name)
			if !ok {
				t.Fatalf("policy %q has no registered representative variant; add one to config.Variants, PolicyVariants or Comparators", name)
			}
			if err := RunDifferential(context.Background(), PolicySpec(v), nil); err != nil {
				t.Fatalf("policy %q (variant %s): %v", name, v.Name, err)
			}
		})
	}
}

// policyFaultExpectations derives, from a policy's own Traits, which fault
// classes its armed oracles promise to catch: credit conservation is
// variant-independent, the registry cross-check applies when the policy
// advertises RegistryChecked, the online leak oracle when LeakChecked, and
// the delivery-order oracle when it can eliminate acks (NoAck).
// Deriving from the traits (instead of a hand-kept table) means a new
// policy is automatically held to exactly the oracles it claims.
func policyFaultExpectations(tr core.Traits) []fault.Class {
	expect := []fault.Class{fault.WithholdCredit}
	if tr.RegistryChecked {
		expect = append(expect, fault.FlipBuiltBit)
	}
	if tr.LeakChecked {
		expect = append(expect, fault.DropUndoToken)
	}
	if tr.NoAck {
		expect = append(expect, fault.ReorderReply)
	}
	return expect
}

// TestPolicyConformanceOracles closes the inverse gap of the conformance
// gauntlet: a clean run proves the policy violates no armed oracle, but not
// that the oracles have teeth under that policy. For every registered
// policy, each fault class its traits map to an oracle is injected into
// the verify-armed representative cell (FaultScenario), and the run must
// pass Detect — a fault that never fires makes the cell vacuous and fails
// too.
func TestPolicyConformanceOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	for _, name := range config.PolicyNames() {
		v, ok := config.VariantForPolicy(name)
		if !ok {
			t.Fatalf("policy %q has no registered representative variant", name)
		}
		for _, c := range policyFaultExpectations(core.TraitsFor(v.Opts)) {
			t.Run(name+"/"+c.String(), func(t *testing.T) {
				t.Parallel()
				s, ok := FaultScenario(c, v.Name)
				if !ok {
					t.Fatalf("policy %q promises an oracle for %v but has no scenario for it", name, c)
				}
				if _, err := Detect(context.Background(), s); err != nil {
					t.Fatalf("policy %q: %v", name, err)
				}
			})
		}
	}
}

// TestPolicyConformanceWalkSeams pins that every circuit policy reserves
// through the one walk: a traced run of its representative variant retains
// reservation events, and an armed FlipBuiltBit reaches the fault seam and is
// logged — whether the run then survives the upset (fragmented circuits ride
// around the gap) or an invariant catches it.
func TestPolicyConformanceWalkSeams(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	for _, name := range config.PolicyNames() {
		name := name
		v, ok := config.VariantForPolicy(name)
		if !ok {
			t.Fatalf("policy %q has no registered representative variant", name)
		}
		if !v.Opts.Enabled() {
			continue // no circuits, no walk
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := PolicySpec(v)
			s.WarmupOps, s.MeasureOps = 200, 800
			s.TraceCap = 1 << 16
			res, err := chip.RunCtx(context.Background(), s)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			reserves := 0
			for _, ev := range res.Trace {
				if ev.Kind == trace.Reserve {
					reserves++
				}
			}
			if reserves == 0 {
				t.Errorf("no trace.Reserve among %d retained events", len(res.Trace))
			}

			s.TraceCap = 0
			s.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
			res, err = chip.RunCtx(context.Background(), s)
			var faults []fault.Event
			if re := chip.AsRunError(err); re != nil {
				faults = re.Faults
			} else if err != nil {
				t.Fatalf("fault-armed run: %v", err)
			} else {
				faults = res.Faults
			}
			if len(faults) == 0 || faults[0].Class != fault.FlipBuiltBit {
				t.Errorf("FlipBuiltBit never reached the reservation seam (fault log %v)", faults)
			}
		})
	}
}

// TestPolicyConformanceQuiesce reruns each policy's representative cell
// without pooling and asserts directly that no circuit state survives the
// drain: the audit inside the run checks router tables and NI registries
// at quiesce, so an unclean teardown fails here with the offending
// router/entry named instead of as an aggregate divergence.
func TestPolicyConformanceQuiesce(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.VariantForPolicy(name)
			if !ok {
				t.Fatalf("policy %q has no registered representative variant", name)
			}
			s := PolicySpec(v)
			s.NoPool = true
			if _, err := chip.RunCtx(context.Background(), s); err != nil {
				t.Fatalf("policy %q unpooled audit run: %v", name, err)
			}
		})
	}
}

// TestNoAckDeliveryOrder holds every sweep column whose policy can
// eliminate acks (core.Traits.NoAck) to DESIGN.md §4.6's NoAck soundness
// rule with no fault injected: its conformance cell, NoAck switched on and
// the delivery-order oracle armed, on a workload whose cores share a few
// lines (so banks forward and invalidate around the replies they send),
// must run clean. TestPolicyConformanceOracles gives the oracle its teeth
// (fault.ReorderReply); this test is the rule it guards.
//
// The hotspot cases hold the untimed NoAck variants to the same rule where
// it bites: on the 64-core chip a hot bank's NI queues data replies behind
// each other, and a reply whose ack was eliminated while it waited could be
// overtaken by a Fwd the bank sent later (the oracle caught one at cycle
// 128 of seed 1).
func TestNoAckDeliveryOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	for _, v := range config.SweepVariants() {
		if !core.TraitsFor(v.Opts).NoAck {
			continue
		}
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			v.Opts.NoAck = true
			s := PolicySpec(v)
			s.Workload.SharedFraction, s.Workload.SharedLines = 0.05, 64
			if _, err := chip.RunCtx(context.Background(), s); err != nil {
				t.Fatalf("variant %s with NoAck: %v", v.Name, err)
			}
		})
	}
	hotspot, ok := workload.ByName("hotspot")
	if !ok {
		t.Fatal("hotspot generator not registered")
	}
	for _, name := range []string{"Complete_NoAck", "Reuse_NoAck"} {
		v, _ := config.ByName(name)
		for seed := uint64(1); seed <= 3; seed++ {
			s := chip.DefaultSpec(config.Chip64(), v, hotspot)
			s.WarmupOps, s.MeasureOps, s.Seed = 200, 400, seed
			s.Verify = true
			t.Run(fmt.Sprintf("64-core/hotspot/%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				if _, err := chip.RunCtx(context.Background(), s); err != nil {
					t.Fatalf("%v", err)
				}
			})
		}
	}
}
