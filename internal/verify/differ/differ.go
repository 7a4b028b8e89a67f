// Package differ is the verification catalogue. It generates random
// specs and runs each through configurations that must be observationally
// identical — the reference, every chip.Legs leg and, optionally, a remote
// simulation service — asserting bit-identical results with the online
// oracles armed on every leg; the golden suite pins hand-picked cells and
// this searches the spec space between them. catalogue.go holds the cells
// the tests and cmd/rcverify share: each policy's conformance cell, each
// fault class's scenario, and the one detection check.
package differ

import (
	"context"
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

// RunFunc executes one spec — chip.RunCtx, or a remote client's Run.
type RunFunc func(ctx context.Context, spec chip.Spec) (*chip.Results, error)

// SpecFromSeed deterministically derives a random spec from a seed, one
// draw per axis: the variant (every sweep column plus the speculative
// router and probe setup), the workload (micro, scaled micro, canneal, the
// mix or an adversarial generator), the chip and operation counts, the
// simulation seed and the sample window. The same seed always yields the
// same spec, so a failing seed is a complete reproducer.
func SpecFromSeed(seed uint64) chip.Spec {
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)

	variants := append(config.SweepVariants(), config.Comparators()[1:3]...)
	v := variants[rng.Intn(len(variants))]

	var w workload.Profile
	gens := workload.Generators()
	switch k := rng.Intn(4 + len(gens)); k {
	case 0:
		w = workload.Micro()
	case 1:
		w = workload.Micro().Scaled(0.5 + 7.5*rng.Float64())
	case 2:
		w, _ = workload.ByName("canneal")
	case 3:
		w = workload.Multiprogrammed()
	default:
		w = gens[k-4]
	}

	c := config.Chip16()
	warm := int64(200 + rng.Intn(600))
	meas := int64(500 + rng.Intn(2000))
	if rng.Intn(8) == 0 {
		// The 64-core chip is ~10x the work per op; keep its share small
		// and its runs short so a campaign stays minutes, not hours.
		c = config.Chip64()
		warm, meas = 150, 400+int64(rng.Intn(400))
	}

	return chip.Spec{
		Chip: c, Variant: v, Workload: w,
		WarmupOps: warm, MeasureOps: meas,
		Seed:  rng.Uint64()%1_000_000 + 1,
		Audit: true, Verify: true, VerifyEvery: 16,
		// Every leg's sample windows are compared too, over an odd window.
		SampleEvery: sim.Cycle(61 + 2*rng.Intn(64)),
	}
}

// RunDifferential runs spec through the reference configuration and every
// leg (plus remote, when non-nil, against the reference results) and
// returns the first divergence or run failure. All legs run with the
// invariant oracles armed, so a corruption that happens to cancel out in
// the aggregates still fails the seed.
func RunDifferential(ctx context.Context, spec chip.Spec, remote RunFunc) error {
	ref, err := chip.RunCtx(ctx, spec)
	if err != nil {
		return fmt.Errorf("reference leg: %w", err)
	}
	for _, leg := range chip.Legs() {
		legSpec := spec
		leg.Apply(&legSpec)
		res, err := chip.RunCtx(ctx, legSpec)
		if err != nil {
			return fmt.Errorf("leg %s: %w", leg.Name, err)
		}
		if derr := chip.Diff(ref, res, leg.Skip); derr != nil {
			return fmt.Errorf("leg %s: %w", leg.Name, derr)
		}
	}
	if remote != nil {
		res, err := remote(ctx, spec)
		if err != nil {
			return fmt.Errorf("leg remote: %w", err)
		}
		if derr := chip.Diff(ref, res, nil); derr != nil {
			return fmt.Errorf("leg remote: %w", derr)
		}
	}
	return nil
}
