package chip

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/workload"
)

func variant(t *testing.T, name string) config.Variant {
	t.Helper()
	v, ok := config.ByName(name)
	if !ok {
		t.Fatalf("unknown variant %s", name)
	}
	return v
}

func quickSpec(t *testing.T, c config.Chip, vname string) Spec {
	t.Helper()
	s := DefaultSpec(c, variant(t, vname), workload.Micro())
	s.WarmupOps = 1000
	s.MeasureOps = 3000
	return s
}

func TestBaselineRunProducesSaneResults(t *testing.T) {
	r := MustRun(quickSpec(t, config.Chip16(), "Baseline"))
	if r.Cycles <= 0 {
		t.Fatal("no cycles measured")
	}
	ipc := r.IPC()
	if ipc < 0.2 || ipc > 1.2 {
		t.Fatalf("IPC %.3f outside the plausible in-order band", ipc)
	}
	if len(r.Cores) != 16 {
		t.Fatalf("%d core records", len(r.Cores))
	}
	for i, cs := range r.Cores {
		if cs.Retired < 3000 {
			t.Fatalf("core %d retired %d < 3000", i, cs.Retired)
		}
	}
	total, reqs := r.Msgs.Totals()
	if total == 0 || reqs == 0 {
		t.Fatal("no network traffic")
	}
	replyFrac := 1 - float64(reqs)/float64(total)
	if replyFrac < 0.45 || replyFrac > 0.75 {
		t.Fatalf("reply fraction %.2f implausible", replyFrac)
	}
	if r.Circ != nil {
		t.Fatal("baseline must have no circuit stats")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if r.AreaSavings != 0 {
		t.Fatal("baseline area savings must be zero")
	}
}

func TestLightNetworkLoad(t *testing.T) {
	// The paper's environment: "nodes inject, in average, less than four
	// flits every 100 cycles". Injected flits = messages x size.
	r := MustRun(quickSpec(t, config.Chip64(), "Baseline"))
	var flits int64
	for tp, n := range r.Msgs.Network {
		flits += n * int64(coherenceSize(tp))
	}
	rate := float64(flits) / float64(r.Cycles) / 64
	if rate > 0.08 {
		t.Fatalf("injection rate %.4f flits/node/cycle is not a lightly loaded network", rate)
	}
}

func coherenceSize(t int) int {
	switch t {
	case 5, 7, 8, 9, 13, 14: // data message type ids
		return 5
	}
	return 1
}

func TestCircuitsSpeedUpAndSaveEnergy(t *testing.T) {
	base := MustRun(quickSpec(t, config.Chip64(), "Baseline"))
	rc := MustRun(quickSpec(t, config.Chip64(), "Complete_NoAck"))
	sp := rc.Speedup(base)
	if sp < 1.0 || sp > 1.25 {
		t.Fatalf("Complete_NoAck speedup %.4f outside the paper-plausible band", sp)
	}
	er := rc.Energy.Total() / base.Energy.Total()
	if er > 0.97 || er < 0.6 {
		t.Fatalf("energy ratio %.4f outside the paper-plausible band", er)
	}
	if rc.Circ == nil || rc.Circ.CircuitsBuilt == 0 {
		t.Fatal("no circuits built")
	}
	if rc.Circ.EliminatedAcks == 0 {
		t.Fatal("NoAck eliminated nothing")
	}
	// Circuit replies must be faster than baseline's.
	if rc.Lat.CircuitReplies.Network.Mean() >= base.Lat.CircuitReplies.Network.Mean() {
		t.Fatal("circuit replies not faster than baseline")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	a := MustRun(quickSpec(t, config.Chip16(), "SlackDelay_1_NoAck"))
	b := MustRun(quickSpec(t, config.Chip16(), "SlackDelay_1_NoAck"))
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	at, _ := a.Msgs.Totals()
	bt, _ := b.Msgs.Totals()
	if at != bt {
		t.Fatalf("message totals differ: %d vs %d", at, bt)
	}
	if a.Circ.CircuitsBuilt != b.Circ.CircuitsBuilt {
		t.Fatal("circuit counts differ")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	s1 := quickSpec(t, config.Chip16(), "Baseline")
	s2 := s1
	s2.Seed = 99
	a, b := MustRun(s1), MustRun(s2)
	if a.Cycles == b.Cycles {
		t.Log("identical cycles across seeds (possible but unlikely)")
	}
	at, _ := a.Msgs.Totals()
	bt, _ := b.Msgs.Totals()
	if at == bt {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestRejectsBadSpec(t *testing.T) {
	// Input no run could honour fails closed before anything is built: a
	// plain error, not a recovered setup panic dressed as a *RunError (which
	// sweeps retry and the service queues).
	for name, mut := range map[string]func(*Spec){
		"zero MeasureOps": func(s *Spec) { s.MeasureOps = 0 },
		"inconsistent variant": func(s *Spec) {
			s.Variant.Opts = core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2, Timed: true}
		},
		"unknown policy":         func(s *Spec) { s.Variant.Opts = core.Options{Policy: "nope"} },
		"empty mesh":             func(s *Spec) { s.Chip.Width = 0 },
		"no memory controllers":  func(s *Spec) { s.Chip.MCs = 0 },
		"tile IDs past int16":    func(s *Spec) { s.Chip.Width, s.Chip.Height = 182, 182 },
		"mesh size overflow":     func(s *Spec) { s.Chip.Width, s.Chip.Height = 2, math.MaxInt/2+1 },
		"negative WarmupOps":     func(s *Spec) { s.WarmupOps = -1 },
		"negative Horizon":       func(s *Spec) { s.Horizon = -5 },
		"negative WatchdogStall": func(s *Spec) { s.WatchdogStall = -1 },
		"negative VerifyEvery":   func(s *Spec) { s.Verify, s.VerifyEvery = true, -1 },
		"negative SampleEvery":   func(s *Spec) { s.SampleEvery = -1 },
		"negative TraceCap":      func(s *Spec) { s.TraceCap = -1 },
		"negative Timeout":       func(s *Spec) { s.Timeout = -time.Second },
	} {
		s := quickSpec(t, config.Chip16(), "Baseline")
		mut(&s)
		_, err := Run(s)
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if AsRunError(err) != nil {
			t.Errorf("%s came back as a *RunError (retryable, queueable): %v", name, err)
		}
	}
	s := quickSpec(t, config.Chip16(), "Baseline")
	s.Horizon = 10 // absurdly short
	if _, err := Run(s); err == nil {
		t.Fatal("impossible horizon should error, not hang")
	}
}

// TestRetiredPolicyFailsClosed: a spec written for a policy that is no
// longer registered — here profiled-hybrid, with one of its old knobs, which
// JSON decoding drops — is refused by Validate with the registered policies
// named, never run as some other policy.
func TestRetiredPolicyFailsClosed(t *testing.T) {
	s := quickSpec(t, config.Chip16(), "Complete_NoAck")
	if err := json.Unmarshal([]byte(`{"Policy":"profiled-hybrid","ProfileWindow":4}`), &s.Variant.Opts); err != nil {
		t.Fatal(err)
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted the retired profiled-hybrid policy")
	}
	for _, name := range core.PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %s", err, name)
		}
	}
}

func TestWarmupSkippable(t *testing.T) {
	s := quickSpec(t, config.Chip16(), "Baseline")
	s.WarmupOps = 0
	r := MustRun(s)
	if r.Cycles <= 0 {
		t.Fatal("run without warm-up failed")
	}
}

func TestAllVariantsRunAt16(t *testing.T) {
	for _, v := range config.Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			s := quickSpec(t, config.Chip16(), v.Name)
			s.Audit = true // every run must pass the conservation audits
			r := MustRun(s)
			if r.Cycles <= 0 {
				t.Fatal("no cycles")
			}
			if v.Opts.Enabled() {
				if r.Circ == nil {
					t.Fatal("missing circuit stats")
				}
				if v.Opts.Mechanism != core.MechFragmented &&
					r.Circ.Replies[core.OutcomeCircuit] == 0 {
					t.Fatal("no replies rode circuits")
				}
			}
		})
	}
}

func TestIdealIsUpperBoundOnCircuitUse(t *testing.T) {
	ideal := MustRun(quickSpec(t, config.Chip16(), "Ideal"))
	complete := MustRun(quickSpec(t, config.Chip16(), "Complete"))
	fi := ideal.Circ.OutcomeFraction(core.OutcomeCircuit)
	fc := complete.Circ.OutcomeFraction(core.OutcomeCircuit)
	if fi < fc {
		t.Fatalf("ideal rides fewer circuits (%.3f) than complete (%.3f)", fi, fc)
	}
	if ideal.Circ.Replies[core.OutcomeFailed] != 0 {
		t.Fatal("ideal reservation must never fail")
	}
}

func TestTraceCapture(t *testing.T) {
	s := quickSpec(t, config.Chip16(), "Complete_NoAck")
	s.TraceCap = 64
	r := MustRun(s)
	if len(r.Trace) == 0 {
		t.Fatal("no trace events captured")
	}
	if len(r.Trace) > 64 {
		t.Fatalf("trace exceeded its cap: %d", len(r.Trace))
	}
	kinds := map[string]bool{}
	for _, e := range r.Trace {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{"enqueue", "inject", "deliver"} {
		if !kinds[want] {
			t.Errorf("trace misses %s events (have %v)", want, kinds)
		}
	}
}

func TestNoTraceByDefault(t *testing.T) {
	r := MustRun(quickSpec(t, config.Chip16(), "Baseline"))
	if r.Trace != nil {
		t.Fatal("tracing should be off by default")
	}
}

func TestComparatorsRunAt16(t *testing.T) {
	for _, v := range config.Comparators() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			s := DefaultSpec(config.Chip16(), v, workload.Micro())
			s.WarmupOps = 1000
			s.MeasureOps = 3000
			s.Audit = true
			r := MustRun(s)
			if r.Cycles <= 0 {
				t.Fatal("no cycles")
			}
			if v.Name == "Probe_DejaVu" && (r.Circ == nil || r.Circ.ProbesSent == 0) {
				t.Fatal("probe comparator sent no setup flits")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Failure containment: panics, watchdog, timeout, cancellation.
// ---------------------------------------------------------------------------

func TestWatchdogReturnsDiagnosticError(t *testing.T) {
	// A permanently stalled link starves the cores behind it: the run must
	// come back with a structured deadlock error carrying the network
	// dump, not hang until the horizon.
	s := quickSpec(t, config.Chip16(), "Complete_NoAck")
	s.Fault = &fault.Plan{Class: fault.StallLink, After: 2000}
	s.WatchdogStall = 2000
	_, err := Run(s)
	if err == nil {
		t.Fatal("stalled run reported success")
	}
	re := AsRunError(err)
	if re == nil {
		t.Fatalf("watchdog error is not a *RunError: %v", err)
	}
	if !strings.Contains(re.Msg, "no progress") {
		t.Fatalf("unexpected failure message: %s", re.Msg)
	}
	if re.Panicked {
		t.Fatal("watchdog failure misreported as a panic")
	}
	if re.Diag == "" {
		t.Fatal("deadlock error lacks the network state dump")
	}
	if re.Cycle == 0 {
		t.Fatal("deadlock error lacks the failure cycle")
	}
}

func TestPanicContainedAsRunError(t *testing.T) {
	// A flipped built bit makes the reply hit a vanished reservation: the
	// router's invariant panic must be recovered into a RunError with the
	// trace tail attached, never escape to the caller as a panic.
	s := quickSpec(t, config.Chip16(), "Complete_NoAck")
	s.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
	res, err := Run(s)
	if err == nil {
		t.Skipf("flip-built-bit absorbed in this configuration (res=%v)", res != nil)
	}
	re := AsRunError(err)
	if re == nil {
		t.Fatalf("panic not wrapped as *RunError: %v", err)
	}
	if !re.Panicked {
		t.Fatalf("invariant failure not flagged as panic: %s", re.Msg)
	}
	if len(re.TraceTail) == 0 {
		t.Fatal("contained panic lacks the trace tail")
	}
	if re.Fingerprint() == "" || !strings.Contains(re.Error(), "Complete_NoAck") {
		t.Fatalf("error does not identify the spec: %s", re.Error())
	}
}

func TestWallClockTimeout(t *testing.T) {
	s := quickSpec(t, config.Chip16(), "Baseline")
	s.Timeout = time.Nanosecond
	_, err := Run(s)
	if err == nil {
		t.Fatal("nanosecond budget reported success")
	}
	re := AsRunError(err)
	if re == nil || !strings.Contains(re.Msg, "timeout") {
		t.Fatalf("expected a timeout RunError, got: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, quickSpec(t, config.Chip16(), "Baseline"))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	re := AsRunError(err)
	if re == nil || !strings.Contains(re.Msg, "canceled") {
		t.Fatalf("expected a cancellation RunError, got: %v", err)
	}
}

func TestSuccessfulFaultRunKeepsEventLog(t *testing.T) {
	// A withheld credit is only caught by the audits; with auditing off
	// the run completes, but the injection must still be visible in the
	// results so nothing fires silently.
	s := quickSpec(t, config.Chip16(), "Baseline")
	s.Fault = &fault.Plan{Class: fault.WithholdCredit}
	r, err := Run(s)
	if err != nil {
		t.Fatalf("unaudited withheld credit should not fail the run: %v", err)
	}
	if len(r.Faults) == 0 {
		t.Fatal("injected fault missing from the results' event log")
	}
	if r.Trace != nil {
		t.Fatal("fault-armed run leaked its diagnostic trace into the results")
	}
}
