// Chaos suite: every fault class the injector can produce must be caught
// by its *intended* detector — the named invariant oracle the verification
// suite maps it to (verify.OraclesFor), not merely the watchdog or a lucky
// panic — within a bounded number of cycles, and the failure must surface
// as an actionable *chip.RunError. A run that absorbs an injected
// corruption and still reports results would be a silent escape; these
// tests exist to make that impossible.
package fault_test

import (
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// chaosSpec is a short 16-core run with the audits armed and the oracle
// suite checking every cycle, so a corruption is attributed to its
// detector on the boundary it becomes observable.
func chaosSpec(t *testing.T, variant string, w workload.Profile) chip.Spec {
	t.Helper()
	v, ok := config.ByName(variant)
	if !ok {
		t.Fatalf("unknown variant %s", variant)
	}
	spec := chip.DefaultSpec(config.Chip16(), v, w)
	spec.WarmupOps = 1000
	spec.MeasureOps = 3000
	spec.Audit = true
	spec.Verify = true
	spec.VerifyEvery = 1
	return spec
}

// mustDetectBy runs the armed spec and asserts the fault was caught by one
// of the named oracles — the detection-regression gate on top of
// mustDetect's silent-escape gate.
func mustDetectBy(t *testing.T, spec chip.Spec, oracles []string) *chip.RunError {
	t.Helper()
	re := mustDetect(t, spec)
	for _, want := range oracles {
		if re.Oracle == want {
			return re
		}
	}
	t.Fatalf("%v fault caught by %q (phase %s: %s), want oracle in %v",
		spec.Fault.Class, re.Oracle, re.Phase, re.Msg, oracles)
	return nil
}

// mustDetect runs the armed spec and asserts the fault was injected AND
// detected: a structured RunError naming the failing spec, never a clean
// result carrying corrupted measurements.
func mustDetect(t *testing.T, spec chip.Spec) *chip.RunError {
	t.Helper()
	res, err := chip.Run(spec)
	if err == nil {
		if res != nil && len(res.Faults) > 0 {
			t.Fatalf("silent escape: %d injected %v faults produced a clean result",
				len(res.Faults), spec.Fault.Class)
		}
		t.Fatalf("%v fault never fired: tune the plan (seed/count/workload)", spec.Fault.Class)
	}
	re := chip.AsRunError(err)
	if re == nil {
		t.Fatalf("error is not a *chip.RunError: %v", err)
	}
	if len(re.Faults) == 0 {
		t.Fatalf("run failed but the fault log is empty: %v", re)
	}
	if re.Phase == "" || re.Msg == "" {
		t.Fatalf("failure lacks phase/message: %+v", re)
	}
	if !strings.Contains(re.Fingerprint(), spec.Chip.Name) ||
		!strings.Contains(re.Fingerprint(), spec.Variant.Name) {
		t.Fatalf("fingerprint %q does not name the failing spec", re.Fingerprint())
	}
	return re
}

func TestChaosFlipBuiltBit(t *testing.T) {
	spec := chaosSpec(t, "Complete_NoAck", workload.Micro())
	spec.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
	re := mustDetectBy(t, spec, verify.OraclesFor(fault.FlipBuiltBit))
	if re.Faults[0].Class != fault.FlipBuiltBit {
		t.Fatalf("wrong fault logged: %v", re.Faults[0])
	}
}

func TestChaosDropUndoToken(t *testing.T) {
	// Scaled-up traffic makes reservation conflicts (and so undo walks)
	// frequent enough that one token can be swallowed mid-walk.
	spec := chaosSpec(t, "Complete_NoAck", workload.Micro().Scaled(8))
	spec.Fault = &fault.Plan{Class: fault.DropUndoToken}
	mustDetectBy(t, spec, verify.OraclesFor(fault.DropUndoToken))
}

func TestChaosTruncateWindow(t *testing.T) {
	spec := chaosSpec(t, "SlackDelay_1_NoAck", workload.Micro())
	spec.Fault = &fault.Plan{Class: fault.TruncateWindow, Count: 2}
	mustDetectBy(t, spec, verify.OraclesFor(fault.TruncateWindow))
}

func TestChaosWithholdCredit(t *testing.T) {
	// Credit conservation is variant-independent: even the circuit-free
	// baseline must notice a vanished credit, online and immediately.
	spec := chaosSpec(t, "Baseline", workload.Micro())
	spec.Fault = &fault.Plan{Class: fault.WithholdCredit}
	re := mustDetectBy(t, spec, verify.OraclesFor(fault.WithholdCredit))
	if re.Phase == "audit" {
		t.Errorf("withheld credit only surfaced at the end-of-run audit: %s", re.Msg)
	}
}

func TestChaosStallLink(t *testing.T) {
	spec := chaosSpec(t, "Complete_NoAck", workload.Micro())
	spec.Fault = &fault.Plan{Class: fault.StallLink, After: 2000}
	spec.WatchdogStall = 3000 // don't wait the production 50k cycles
	re := mustDetectBy(t, spec, verify.OraclesFor(fault.StallLink))
	if re.Diag == "" {
		t.Fatal("stall failure lacks the network state dump")
	}
	if !strings.Contains(re.Msg, "no flit moved") {
		t.Fatalf("progress oracle message lacks the stall description: %s", re.Msg)
	}
}

// TestChaosWatchdogFallback proves the layered-defense story: with the
// oracle suite disarmed, a stalled link must still be caught — by the
// generic forward-progress watchdog, the pre-oracle behaviour.
func TestChaosWatchdogFallback(t *testing.T) {
	spec := chaosSpec(t, "Complete_NoAck", workload.Micro())
	spec.Verify = false
	spec.Fault = &fault.Plan{Class: fault.StallLink, After: 2000}
	spec.WatchdogStall = 3000
	re := mustDetect(t, spec)
	if re.Oracle != "" {
		t.Fatalf("oracle %q fired with Verify off", re.Oracle)
	}
	if !strings.Contains(re.Msg, "no progress") && !strings.Contains(re.Msg, "did not finish") {
		t.Fatalf("stalled link not caught by the watchdog: %s", re.Msg)
	}
}

// TestChaosSDM re-runs the fault classes with the SDM policy's lane-sliced
// fabric active: the detection story must survive per-lane circuit tables,
// lane-paced bypass and lane-releasing teardown. TruncateWindow is structurally
// inapplicable — sdm rejects Timed, so no timed reservation ever exists to
// truncate — and is pinned as such so its absence here is a decision, not
// an oversight.
func TestChaosSDM(t *testing.T) {
	sdm, _ := config.ByName("SDM")
	if sdm.Opts.Timed {
		t.Fatal("SDM preset became timed: revisit the TruncateWindow exclusion")
	}
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		var spec chip.Spec
		switch c {
		case fault.FlipBuiltBit:
			spec = chaosSpec(t, "SDM", workload.Micro())
			spec.Fault = &fault.Plan{Class: c}
		case fault.DropUndoToken:
			// Scaled-up traffic keeps the undo walks (lane releases travel
			// as undo credits under sdm too) frequent enough to swallow one.
			spec = chaosSpec(t, "SDM", workload.Micro().Scaled(8))
			spec.Fault = &fault.Plan{Class: c}
		case fault.TruncateWindow:
			continue // structurally N/A: sdm circuits are untimed
		case fault.WithholdCredit:
			spec = chaosSpec(t, "SDM", workload.Micro())
			spec.Fault = &fault.Plan{Class: c}
		case fault.StallLink:
			spec = chaosSpec(t, "SDM", workload.Micro())
			spec.Fault = &fault.Plan{Class: c, After: 2000}
			spec.WatchdogStall = 3000
		default:
			t.Fatalf("fault class %v has no SDM chaos scenario: add one (or pin it N/A)", c)
		}
		c, spec := c, spec
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			mustDetectBy(t, spec, verify.OraclesFor(c))
		})
	}
}

// TestChaosEveryClassDetected sweeps the whole enumeration so a future
// class cannot be added without a detection story.
func TestChaosEveryClassDetected(t *testing.T) {
	plans := map[fault.Class]chip.Spec{}
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		var spec chip.Spec
		switch c {
		case fault.FlipBuiltBit:
			spec = chaosSpec(t, "Complete_NoAck", workload.Micro())
			spec.Fault = &fault.Plan{Class: c}
		case fault.DropUndoToken:
			spec = chaosSpec(t, "Complete_NoAck", workload.Micro().Scaled(8))
			spec.Fault = &fault.Plan{Class: c}
		case fault.TruncateWindow:
			spec = chaosSpec(t, "SlackDelay_1_NoAck", workload.Micro())
			spec.Fault = &fault.Plan{Class: c, Count: 2}
		case fault.WithholdCredit:
			spec = chaosSpec(t, "Baseline", workload.Micro())
			spec.Fault = &fault.Plan{Class: c}
		case fault.StallLink:
			spec = chaosSpec(t, "Complete_NoAck", workload.Micro())
			spec.Fault = &fault.Plan{Class: c, After: 2000}
			spec.WatchdogStall = 3000
		default:
			t.Fatalf("fault class %v has no chaos scenario: add one", c)
		}
		plans[c] = spec
	}
	for c, spec := range plans {
		c, spec := c, spec
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			if oracles := verify.OraclesFor(c); oracles != nil {
				mustDetectBy(t, spec, oracles)
			} else {
				t.Errorf("fault class %v has no oracle mapping: add one to verify.OraclesFor", c)
				mustDetect(t, spec)
			}
		})
	}
}
