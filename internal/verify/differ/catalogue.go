package differ

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// PolicySpec builds the conformance cell for one policy's representative
// variant: the 16-core chip under the micro workload with the online
// oracles armed at a tight cadence and the end-of-run audits on, so a
// leaked circuit entry, conservation violation or oracle breach fails the
// run rather than hiding in the aggregates.
func PolicySpec(v config.Variant) chip.Spec {
	s := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	s.WarmupOps = 500
	s.MeasureOps = 4000
	s.Audit = true
	s.Verify = true
	s.VerifyEvery = 8
	return s
}

// FaultScenario arms class c on the named variant's conformance cell, the
// oracles checking every cycle so a corruption is attributed to its
// detector on the boundary it becomes observable; "" picks the class's
// canonical variant. ok is false when the class cannot apply: TruncateWindow
// needs a timed reservation, which an untimed variant such as SDM never
// makes, and ReorderReply an eliminated ack, which a policy without
// core.Traits.NoAck never grants; a variant of a policy that can grant one
// has NoAck switched on.
func FaultScenario(c fault.Class, variant string) (spec chip.Spec, ok bool) {
	if variant == "" {
		switch c {
		case fault.TruncateWindow:
			variant = "SlackDelay_1_NoAck"
		case fault.WithholdCredit:
			variant = "Baseline" // even the circuit-free fabric must notice
		default:
			variant = "Complete_NoAck"
		}
	}
	v, found := config.ByName(variant)
	if !found {
		panic(fmt.Sprintf("differ: unknown variant %q", variant))
	}
	switch {
	case c == fault.TruncateWindow && !v.Opts.Timed:
		return chip.Spec{}, false
	case c == fault.ReorderReply && !core.TraitsFor(v.Opts).NoAck:
		return chip.Spec{}, false
	case c == fault.ReorderReply:
		v.Opts.NoAck = true
	}
	spec = PolicySpec(v)
	spec.VerifyEvery = 1
	spec.Fault = &fault.Plan{Class: c}
	switch c {
	case fault.DropUndoToken:
		// Enough reservation conflicts that an undo walk is under way.
		spec.Workload = workload.Micro().Scaled(8)
	case fault.TruncateWindow:
		spec.Fault.Count = 2
	case fault.StallLink:
		spec.Fault.After = 2000
		spec.WatchdogStall = 3000 // don't wait the production 50k cycles
	case fault.ReorderReply:
		// Few lines every core shares: while a held reply waits, its bank
		// soon forwards or invalidates a line the reply's L1 holds.
		spec.Workload.SharedFraction, spec.Workload.SharedLines = 0.05, 64
		spec.Fault.Count = 4
	}
	return spec, true
}

// Detect runs a fault-armed spec and checks the whole detection story: the
// fault fired and did not escape into a clean result; the failure is a
// *chip.RunError with a phase, a message, a fault log led by the armed class
// and a fingerprint naming the spec; and an oracle verify.OraclesFor maps
// the class to caught it — or, with Verify off, no oracle, since the
// watchdog and the audits are all that is left. The RunError is returned
// whenever there is one.
func Detect(ctx context.Context, spec chip.Spec) (*chip.RunError, error) {
	c := spec.Fault.Class
	res, err := chip.RunCtx(ctx, spec)
	if err == nil {
		if len(res.Faults) > 0 {
			return nil, fmt.Errorf("silent escape: %d injected %v faults produced a clean result", len(res.Faults), c)
		}
		return nil, fmt.Errorf("%v fault never fired: tune the plan (seed/count/workload)", c)
	}
	re := chip.AsRunError(err)
	switch {
	case re == nil:
		return nil, fmt.Errorf("error is not a *chip.RunError: %w", err)
	case len(re.Faults) == 0:
		return re, fmt.Errorf("run failed but the fault log is empty: %v", re)
	case re.Faults[0].Class != c:
		return re, fmt.Errorf("%v armed but %v logged first", c, re.Faults[0])
	case re.Phase == "" || re.Msg == "":
		return re, fmt.Errorf("failure lacks phase/message: %+v", re)
	case !strings.Contains(re.Fingerprint(), spec.Chip.Name) || !strings.Contains(re.Fingerprint(), spec.Variant.Name):
		return re, fmt.Errorf("fingerprint %q does not name the failing spec", re.Fingerprint())
	}
	want := []string{""}
	if spec.Verify {
		if want = verify.OraclesFor(c); want == nil {
			return re, fmt.Errorf("fault class %v has no oracle mapping: add one to verify.OraclesFor", c)
		}
	}
	if !slices.Contains(want, re.Oracle) {
		return re, fmt.Errorf("%v fault caught by %q (phase %s: %s), want oracle in %q", c, re.Oracle, re.Phase, re.Msg, want)
	}
	return re, nil
}
