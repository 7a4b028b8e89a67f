// Chaos suite: every fault class the injector can produce must be caught
// by its *intended* detector — the named invariant oracle the verification
// suite maps it to (verify.OraclesFor), not merely the watchdog or a lucky
// panic — within a bounded number of cycles, and the failure must surface
// as an actionable *chip.RunError. A run that absorbs an injected
// corruption and still reports results would be a silent escape; these
// tests exist to make that impossible. The scenarios and the detection
// check are the verification catalogue's (internal/verify/differ), which
// cmd/rcverify prints from too.
package fault_test

import (
	"context"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/verify/differ"
)

// classChecks are the assertions a class's detection carries beyond
// differ.Detect's.
var classChecks = map[fault.Class]func(*testing.T, *chip.RunError){
	fault.WithholdCredit: func(t *testing.T, re *chip.RunError) {
		if re.Phase == "audit" {
			t.Errorf("withheld credit only surfaced at the end-of-run audit: %s", re.Msg)
		}
	},
	fault.StallLink: func(t *testing.T, re *chip.RunError) {
		if re.Diag == "" {
			t.Error("stall failure lacks the network state dump")
		}
		if !strings.Contains(re.Msg, "no flit moved") {
			t.Errorf("progress oracle message lacks the stall description: %s", re.Msg)
		}
	},
}

// chaosCell runs class c's catalogue scenario on variant ("" = the
// class's canonical one) and asserts differ.Detect's detection story plus
// the class's own checks.
func chaosCell(t *testing.T, c fault.Class, variant string) {
	t.Helper()
	spec, ok := differ.FaultScenario(c, variant)
	if !ok {
		t.Fatalf("fault class %v has no chaos scenario on %q: add one to differ.FaultScenario", c, variant)
	}
	re, err := differ.Detect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if check := classChecks[c]; check != nil {
		check(t, re)
	}
}

func TestChaosFlipBuiltBit(t *testing.T)   { chaosCell(t, fault.FlipBuiltBit, "") }
func TestChaosDropUndoToken(t *testing.T)  { chaosCell(t, fault.DropUndoToken, "") }
func TestChaosTruncateWindow(t *testing.T) { chaosCell(t, fault.TruncateWindow, "") }
func TestChaosWithholdCredit(t *testing.T) { chaosCell(t, fault.WithholdCredit, "") }
func TestChaosStallLink(t *testing.T)      { chaosCell(t, fault.StallLink, "") }
func TestChaosReorderReply(t *testing.T)   { chaosCell(t, fault.ReorderReply, "") }

// TestChaosEveryClassDetected sweeps the whole enumeration so a future
// class cannot be added without a detection story.
func TestChaosEveryClassDetected(t *testing.T) {
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			chaosCell(t, c, "")
		})
	}
}

// TestChaosSDM re-runs the fault classes with the SDM policy's lane-sliced
// fabric active: the detection story must survive per-lane circuit tables,
// lane-paced bypass and lane-releasing teardown. TruncateWindow and
// ReorderReply are the classes that cannot apply — sdm circuits are
// untimed, so there is no window to truncate, and sdm never eliminates an
// ack, so there is no NoAck reply to reorder — and the catalogue must say
// so rather than omit them.
func TestChaosSDM(t *testing.T) {
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		if _, ok := differ.FaultScenario(c, "SDM"); !ok {
			if c != fault.TruncateWindow && c != fault.ReorderReply {
				t.Errorf("fault class %v has no SDM chaos scenario", c)
			}
			continue
		}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			chaosCell(t, c, "SDM")
		})
	}
	if _, ok := differ.FaultScenario(fault.TruncateWindow, "SDM"); ok {
		t.Error("SDM preset became timed: revisit the TruncateWindow exclusion")
	}
}

// TestChaosWatchdogFallback proves the layered-defense story: with the
// oracle suite disarmed, a stalled link must still be caught — by the
// generic forward-progress watchdog, the pre-oracle behaviour.
func TestChaosWatchdogFallback(t *testing.T) {
	spec, _ := differ.FaultScenario(fault.StallLink, "")
	spec.Verify = false
	re, err := differ.Detect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(re.Msg, "no progress") && !strings.Contains(re.Msg, "did not finish") {
		t.Fatalf("stalled link not caught by the watchdog: %s", re.Msg)
	}
}
