package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
)

// Policy controls how an experiment responds to individual run failures.
// The zero value is the default: it runs every cell, keeps going past
// failures and reports each one. A failed cell stays failed — it is never
// re-run under another spec — so every result a sweep holds is the run its
// spec names.
type Policy struct {
	// FailFast stops scheduling new runs after the first failure; already
	// started runs still finish and their results are kept.
	FailFast bool
	// Timeout is the per-run wall-clock cap (0 = none).
	Timeout time.Duration
	// Run, when non-nil, replaces chip.RunCtx as the executor of
	// individual specs — the seam `rcsweep -remote` uses to submit sweep
	// cells to a running rcserved instead of simulating locally. FailFast
	// and Timeout semantics apply unchanged around it.
	Run func(ctx context.Context, spec chip.Spec) (*chip.Results, error)
	// Verify arms the online invariant oracles (chip.Spec.Verify) on every
	// run of the experiment — `rcsweep -verify` for paranoid sweeps.
	Verify bool
}

// FailureReport records one failed run of an experiment: the spec that
// died and its structured error.
type FailureReport struct {
	Variant  string
	Workload string
	Seed     uint64
	Err      *chip.RunError
}

// FormatFailures renders a failure summary: a table of the failing specs
// plus each run's diagnostics. It returns "" when there are no failures.
func FormatFailures(fs []FailureReport) string {
	if len(fs) == 0 {
		return ""
	}
	tb := &table{title: fmt.Sprintf("%d failed runs", len(fs)),
		header: []string{"variant", "workload", "seed", "phase", "cycle", "kind"}}
	for _, f := range fs {
		kind := "error"
		if f.Err.Panicked {
			kind = "panic"
		}
		tb.add(f.Variant, f.Workload, fmt.Sprintf("%d", f.Seed), f.Err.Phase,
			fmt.Sprintf("%d", f.Err.Cycle), kind)
	}
	out := tb.text()
	for _, f := range fs {
		out += "\n" + f.Err.Error() + "\n"
	}
	return out
}

// asRunError normalizes err to a *RunError carrying the spec fingerprint.
func asRunError(err error, spec chip.Spec) *chip.RunError {
	if re := chip.AsRunError(err); re != nil {
		return re
	}
	return &chip.RunError{
		Phase: "setup", Chip: spec.Chip.Name, Variant: spec.Variant.Name,
		Workload: spec.Workload.Name, Seed: spec.Seed, Msg: err.Error(),
	}
}

// RunOne executes one spec under the policy: the policy's timeout and
// oracles are applied, and a failure becomes a *FailureReport. Exactly one
// of res and rep is non-nil. This is the same path every sweep worker
// takes — exported so the simulation service's worker pool shares it with
// the CLI harness instead of inventing its own.
func (p Policy) RunOne(ctx context.Context, spec chip.Spec) (res *chip.Results, rep *FailureReport) {
	if ctx == nil {
		ctx = context.Background()
	}
	exec := p.Run
	if exec == nil {
		exec = chip.RunCtx
	}
	if p.Timeout > 0 {
		spec.Timeout = p.Timeout
	}
	if p.Verify {
		spec.Verify = true
	}
	r, err := exec(ctx, spec)
	if err == nil {
		return r, nil
	}
	return nil, &FailureReport{
		Variant: spec.Variant.Name, Workload: spec.Workload.Name,
		Seed: spec.Seed, Err: asRunError(err, spec),
	}
}

// runCells is the one place an experiment's simulations execute: every
// spec goes through pol.RunOne on a pool of WorkersOr(workers) goroutines.
// Results and failure reports both come back in spec order — whatever
// order the cells finished in — so a fold over them is deterministic. A
// nil result marks a cell that failed or was never started: fail-fast and cancellation stop workers
// from claiming further cells, while cells already running finish.
func runCells(ctx context.Context, pol Policy, workers int, specs []chip.Spec) ([]*chip.Results, []FailureReport) {
	res := make([]*chip.Results, len(specs))
	reps := make([]*FailureReport, len(specs))
	var next atomic.Int64
	var halt atomic.Bool
	var wg sync.WaitGroup
	for w := WorkersOr(workers); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !halt.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res[i], reps[i] = pol.RunOne(ctx, specs[i])
				if reps[i] != nil && pol.FailFast {
					halt.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	var failures []FailureReport
	for _, rep := range reps {
		if rep != nil {
			failures = append(failures, *rep)
		}
	}
	return res, failures
}
