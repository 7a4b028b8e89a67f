package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/fault"
)

// Policy controls how an experiment responds to individual run failures.
// The zero value fails fast with no retries; DefaultPolicy is what the
// production sweeps want.
type Policy struct {
	// FailFast stops scheduling new runs after the first failure; already
	// started runs still finish and their results are kept.
	FailFast bool
	// Retry re-runs a failed spec once with an alternate seed, to
	// distinguish deterministic bugs from seed-sensitive ones. A retry
	// that succeeds contributes its results in place of the failed run.
	Retry bool
	// Timeout is the per-run wall-clock cap (0 = none).
	Timeout time.Duration
	// FaultFor, when non-nil, returns the fault plan to arm for a
	// (variant, workload) run — the chaos tests' poisoning seam.
	FaultFor func(variant, workload string) *fault.Plan
	// Run, when non-nil, replaces chip.RunCtx as the executor of
	// individual specs — the seam `rcsweep -remote` uses to submit sweep
	// cells to a running rcserved instead of simulating locally. Retry,
	// FailFast and Timeout semantics apply unchanged around it.
	Run func(ctx context.Context, spec chip.Spec) (*chip.Results, error)
	// Verify arms the online invariant oracles (chip.Spec.Verify) on every
	// run of the experiment — `rcsweep -verify` for paranoid sweeps.
	Verify bool
}

// DefaultPolicy keeps going past failures and retries each once.
func DefaultPolicy() Policy { return Policy{Retry: true} }

// retrySeed derives the alternate seed of a retried run.
func retrySeed(seed uint64) uint64 { return seed ^ 0x9E3779B97F4A7C15 }

// FailureReport records one failed run of an experiment: the spec that
// died, the structured error, and the outcome of the retry.
type FailureReport struct {
	Variant  string
	Workload string
	Seed     uint64
	Err      *chip.RunError
	// Retried reports whether the spec was re-run under RetrySeed. A nil
	// RetryErr then means the retry succeeded (the failure is
	// seed-sensitive) and its results stand in for the failed run.
	Retried   bool
	RetrySeed uint64
	RetryErr  *chip.RunError
}

// Deterministic reports whether the failure reproduced under a different
// seed — the signature of a genuine bug rather than a spec-sensitive one.
func (f *FailureReport) Deterministic() bool { return f.Retried && f.RetryErr != nil }

// String renders the report's summary line.
func (f *FailureReport) String() string {
	s := f.Err.Error()
	switch {
	case f.Deterministic():
		s += fmt.Sprintf(" [reproduced with seed %d: deterministic]", f.RetrySeed)
	case f.Retried:
		s += fmt.Sprintf(" [retry with seed %d succeeded: seed-sensitive]", f.RetrySeed)
	}
	return s
}

// FormatFailures renders a failure summary: a table of the failing specs
// plus each run's diagnostics. It returns "" when there are no failures.
func FormatFailures(fs []FailureReport) string {
	if len(fs) == 0 {
		return ""
	}
	tb := &table{header: []string{"variant", "workload", "seed", "phase", "cycle", "kind", "retry"}}
	for _, f := range fs {
		kind := "error"
		if f.Err.Panicked {
			kind = "panic"
		}
		retry := "-"
		switch {
		case f.Deterministic():
			retry = "reproduced"
		case f.Retried:
			retry = "recovered"
		}
		tb.add(f.Variant, f.Workload, fmt.Sprintf("%d", f.Seed), f.Err.Phase,
			fmt.Sprintf("%d", f.Err.Cycle), kind, retry)
	}
	out := fmt.Sprintf("%d failed runs\n%s", len(fs), tb.String())
	for _, f := range fs {
		out += "\n" + f.String() + "\n"
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
// fault plan are applied, a failure becomes a *FailureReport, and Retry
// re-runs the spec once under the alternate seed. res is non-nil whenever
// a usable result exists (from the original run or a successful retry);
// rep is non-nil whenever the original run failed. This is the same path
// every sweep worker takes — exported so the simulation service's worker
// pool shares retry semantics with the CLI harness instead of inventing
// its own.
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
	if p.FaultFor != nil {
		spec.Fault = p.FaultFor(spec.Variant.Name, spec.Workload.Name)
	}
	if p.Verify {
		spec.Verify = true
	}
	r, err := exec(ctx, spec)
	if err == nil {
		return r, nil
	}
	rep = &FailureReport{
		Variant: spec.Variant.Name, Workload: spec.Workload.Name,
		Seed: spec.Seed, Err: asRunError(err, spec),
	}
	if p.Retry && ctx.Err() == nil {
		retry := spec
		retry.Seed = retrySeed(spec.Seed)
		rep.Retried, rep.RetrySeed = true, retry.Seed
		if r2, err2 := exec(ctx, retry); err2 == nil {
			res = r2
		} else {
			rep.RetryErr = asRunError(err2, retry)
		}
	}
	return res, rep
}

// runCells is the one place an experiment's simulations execute: every
// spec goes through pol.RunOne on a pool of WorkersOr(workers) goroutines.
// Results and failure reports both come back in spec order — whatever
// order the cells finished in — so a fold over them is deterministic. A
// nil result marks a cell that failed (and was not recovered by the
// retry) or was never started: fail-fast and cancellation stop workers
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
