package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestPolicyRunOverride: a Policy.Run executor replaces chip.RunCtx for
// both the original attempt and the retry, and the retry uses the
// alternate seed — the contract rcsweep -remote depends on.
func TestPolicyRunOverride(t *testing.T) {
	v, _ := config.ByName("Baseline")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())

	var seeds []uint64
	pol := Policy{
		Retry: true,
		Run: func(_ context.Context, s chip.Spec) (*chip.Results, error) {
			seeds = append(seeds, s.Seed)
			if len(seeds) == 1 {
				return nil, errors.New("injected transport failure")
			}
			return &chip.Results{Spec: s, Cycles: 1}, nil
		},
	}
	res, rep := pol.RunOne(context.Background(), spec)
	if res == nil || rep == nil {
		t.Fatalf("want recovered result + failure report, got res=%v rep=%v", res, rep)
	}
	if !rep.Retried || rep.RetryErr != nil {
		t.Fatalf("retry outcome wrong: %+v", rep)
	}
	if len(seeds) != 2 || seeds[0] == seeds[1] {
		t.Fatalf("executor saw seeds %v, want two attempts under distinct seeds", seeds)
	}
	if seeds[1] != retrySeed(spec.Seed) {
		t.Fatalf("retry seed = %d, want %d", seeds[1], retrySeed(spec.Seed))
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
