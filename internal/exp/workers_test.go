package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// TestWorkerCountFallsBackToGOMAXPROCS: zero and negative worker requests
// must resolve to the GOMAXPROCS default, never to an empty pool that
// would leave every cell unrun.
func TestWorkerCountFallsBackToGOMAXPROCS(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1, -64} {
		if got := WorkersOr(n); got != want {
			t.Errorf("WorkersOr(%d) = %d, want %d", n, got, want)
		}
	}
	if got := WorkersOr(3); got != 3 {
		t.Errorf("positive request not honored: got %d, want 3", got)
	}
}

// TestSweepSurvivesNonPositiveWorkers: the original bug class — a sweep
// configured with Workers <= 0 must still execute every cell.
func TestSweepSurvivesNonPositiveWorkers(t *testing.T) {
	for _, n := range []int{0, -2} {
		scale := Scale{MeasureOps: 400, Apps: 2, Seed: 1, Workers: n}
		variants := []config.Variant{{Name: "Baseline"}}
		s := RunSweepCtx(context.Background(), config.Chip16(), variants, scale, Policy{})
		if len(s.Failures) != 0 {
			t.Fatalf("Workers=%d: %s", n, s.FailureSummary())
		}
		if got := len(s.Res["Baseline"]); got != len(scale.Workloads()) {
			t.Fatalf("Workers=%d: %d of %d cells ran", n, got, len(scale.Workloads()))
		}
	}
}

// TestPolicyRunOverride: a Policy.Run executor replaces chip.RunCtx — the
// contract rcsweep -remote depends on. Its result is returned as is, and
// its failure is reported once, for the spec it was given, with no result
// standing in for it.
func TestPolicyRunOverride(t *testing.T) {
	v, _ := config.ByName("Baseline")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())

	var seen []chip.Spec
	fail := true
	pol := Policy{
		Run: func(_ context.Context, s chip.Spec) (*chip.Results, error) {
			seen = append(seen, s)
			if fail {
				return nil, errors.New("injected transport failure")
			}
			return &chip.Results{Spec: s, Cycles: 1}, nil
		},
	}
	res, rep := pol.RunOne(context.Background(), spec)
	if res != nil || rep == nil {
		t.Fatalf("want a failure report and no result, got res=%v rep=%v", res, rep)
	}
	if len(seen) != 1 || seen[0].Fingerprint() != spec.Fingerprint() {
		t.Fatalf("executor ran %d specs, want exactly the submitted one", len(seen))
	}
	if rep.Seed != spec.Seed || rep.Err == nil || !strings.Contains(rep.Err.Msg, "injected transport failure") {
		t.Fatalf("report does not name the failed spec: %+v", rep)
	}

	fail = false
	res, rep = pol.RunOne(context.Background(), spec)
	if rep != nil || res == nil || res.Cycles != 1 || res.Spec.Fingerprint() != spec.Fingerprint() {
		t.Fatalf("executor result not returned as is: res=%+v rep=%v", res, rep)
	}
}

// TestRunOneAppliesTimeoutAndFault: the policy decorates the spec before
// executing it, for local and remote executors alike.
func TestRunOneAppliesTimeoutAndFault(t *testing.T) {
	v, _ := config.ByName("Baseline")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	pol := Policy{
		Timeout: 123,
		Run: func(_ context.Context, s chip.Spec) (*chip.Results, error) {
			if s.Timeout != 123 {
				return nil, fmt.Errorf("timeout not applied: %v", s.Timeout)
			}
			return &chip.Results{Spec: s}, nil
		},
	}
	if _, rep := pol.RunOne(context.Background(), spec); rep != nil {
		t.Fatalf("unexpected failure: %v", rep)
	}
}

// TestImagesSharedAcrossSweepWorkers: four workers run a sweep whose cells
// share two apps' prefilled images (chip.Prefill's store), so the first
// cells race to walk and store them and the rest restore them at the same
// time. Every cell must equal the NoPool reference, which walks its own
// prefill and never touches the store.
func TestImagesSharedAcrossSweepWorkers(t *testing.T) {
	var vs []config.Variant
	for _, name := range []string{"Baseline", "Complete_NoAck", "SlackDelay_1_NoAck", "Reuse_NoAck"} {
		v, ok := config.ByName(name)
		if !ok {
			t.Fatalf("unknown variant %s", name)
		}
		vs = append(vs, v)
	}
	var noPool chip.Leg
	for _, leg := range chip.Legs() {
		if leg.Name == "no-pool" {
			noPool = leg
		}
	}
	scale := Scale{MeasureOps: 300, Apps: 2, Seed: 1, Workers: 4}
	got := RunSweepCtx(context.Background(), config.Chip16(), vs, scale, Policy{})
	ref := RunSweepCtx(context.Background(), config.Chip16(), vs, scale, Policy{
		Run: func(ctx context.Context, s chip.Spec) (*chip.Results, error) {
			noPool.Apply(&s)
			return chip.RunCtx(ctx, s)
		},
	})
	if len(got.Failures)+len(ref.Failures) != 0 {
		t.Fatalf("failures: %s %s", got.FailureSummary(), ref.FailureSummary())
	}
	for _, v := range vs {
		for _, app := range got.AppNames() {
			a, b := got.Res[v.Name][app], ref.Res[v.Name][app]
			if a == nil || b == nil {
				t.Fatalf("%s/%s: missing cell", v.Name, app)
			}
			if err := chip.Diff(b, a, noPool.Skip); err != nil {
				t.Errorf("%s/%s against NoPool: %v", v.Name, app, err)
			}
		}
	}
}
