package differ

import (
	"context"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/trace"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// policySpec builds the conformance cell for one policy's representative
// variant: the 16-core chip under the micro workload with the online
// oracles armed at a tight cadence and the end-of-run audits on, so a
// leaked circuit entry, conservation violation or oracle breach fails the
// run rather than hiding in the aggregates.
func policySpec(v config.Variant) chip.Spec {
	s := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	s.WarmupOps = 500
	s.MeasureOps = 4000
	s.Audit = true
	s.Verify = true
	s.VerifyEvery = 8
	return s
}

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
		t.Fatalf("expected at least 7 registered policies (5 paper mechanisms + profiled-hybrid + dynamic-vc), got %d: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.VariantForPolicy(name)
			if !ok {
				t.Fatalf("policy %q has no registered representative variant; add one to config.Variants, PolicyVariants or Comparators", name)
			}
			if err := RunDifferential(context.Background(), policySpec(v), nil); err != nil {
				t.Fatalf("policy %q (variant %s): %v", name, v.Name, err)
			}
		})
	}
}

// policyFaultExpectations derives, from a policy's own Traits, which fault
// classes its armed oracles promise to catch: credit conservation is
// variant-independent, the registry cross-check applies when the policy
// advertises RegistryChecked, and the online leak oracle when LeakChecked.
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
	return expect
}

// TestPolicyConformanceOracles closes the inverse gap of the conformance
// gauntlet: a clean run proves the policy violates no armed oracle, but not
// that the oracles have teeth under that policy. For every registered
// policy, each fault class its traits map to an oracle is injected into
// the verify-armed representative cell, and the run must fail through
// exactly that oracle — a fault that never fires makes the cell vacuous and
// fails too.
func TestPolicyConformanceOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("policy conformance runs full simulations")
	}
	for _, name := range config.PolicyNames() {
		name := name
		v, ok := config.VariantForPolicy(name)
		if !ok {
			t.Fatalf("policy %q has no registered representative variant", name)
		}
		for _, c := range policyFaultExpectations(core.TraitsFor(v.Opts)) {
			c := c
			t.Run(name+"/"+c.String(), func(t *testing.T) {
				t.Parallel()
				s := policySpec(v)
				s.VerifyEvery = 1
				s.Fault = &fault.Plan{Class: c}
				if c == fault.DropUndoToken {
					// Undo walks need reservation churn to be frequent
					// enough for one token to be swallowed mid-walk.
					s.Workload = workload.Micro().Scaled(8)
				}
				res, err := chip.RunCtx(context.Background(), s)
				if err == nil {
					if res != nil && len(res.Faults) > 0 {
						t.Fatalf("silent escape: %d injected %v faults produced a clean result", len(res.Faults), c)
					}
					t.Fatalf("%v never fired under policy %q: the oracle-teeth cell is vacuous; tune the plan", c, name)
				}
				re := chip.AsRunError(err)
				if re == nil {
					t.Fatalf("error is not a *chip.RunError: %v", err)
				}
				if len(re.Faults) == 0 {
					t.Fatalf("run failed but the fault log is empty: %v", re)
				}
				want := verify.OraclesFor(c)
				for _, w := range want {
					if re.Oracle == w {
						return
					}
				}
				t.Fatalf("%v under policy %q caught by %q (phase %s: %s), want oracle in %v",
					c, name, re.Oracle, re.Phase, re.Msg, want)
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
			s := policySpec(v)
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
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, ok := config.VariantForPolicy(name)
			if !ok {
				t.Fatalf("policy %q has no registered representative variant", name)
			}
			s := policySpec(v)
			s.NoPool = true
			if _, err := chip.RunCtx(context.Background(), s); err != nil {
				t.Fatalf("policy %q unpooled audit run: %v", name, err)
			}
		})
	}
}
