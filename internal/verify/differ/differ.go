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
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

// RunFunc executes one spec — chip.RunCtx, or a remote client's Run.
type RunFunc func(ctx context.Context, spec chip.Spec) (*chip.Results, error)

// SpecFromSeed deterministically derives a random spec from a seed: chip
// size, variant (the paper's, the policy-lab presets and the related-work
// comparators), workload shape and scale, operation counts, and simulation
// seed all vary. The same seed always yields the same spec, so a failing
// seed is a complete reproducer.
func SpecFromSeed(seed uint64) chip.Spec {
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)

	// The variant pool freezes the pre-SDM composition explicitly — the
	// paper's variants, two policy-lab slots, then comparators [1:3] — so
	// the first draw's modulus never changes and every committed corpus
	// seed keeps deriving the spec it always did. The first policy-lab slot
	// held a retired preset that filtered Complete_NoAck's requests, and now
	// draws Complete_NoAck itself. New variant families join via
	// draws appended at the end, never by widening this pool (SweepVariants
	// grows with each family and must not be used here).
	completeNoAck, _ := config.ByName("Complete_NoAck")
	variants := append(append(append(config.Variants(), completeNoAck),
		config.PolicyVariants()...), config.Comparators()[1:3]...)
	v := variants[rng.Intn(len(variants))]

	var w workload.Profile
	switch rng.Intn(4) {
	case 0:
		w = workload.Micro()
	case 1:
		w = workload.Micro().Scaled(0.5 + 7.5*rng.Float64())
	case 2:
		w, _ = workload.ByName("canneal")
	default:
		w = workload.Multiprogrammed()
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

	simSeed := rng.Uint64()%1_000_000 + 1

	// Adversarial-generator columns: ~1 in 4 seeds swaps the workload for
	// one of the registered generators (hotspot, transpose, tornado,
	// on/off bursts, phase-changing mixes), whose destination patterns and
	// burst windows exercise spec space the stationary profiles never
	// reach. The draws are appended after every pre-existing one so a
	// corpus seed from before this column derives the same chip, variant,
	// scale and simulation seed as it always did.
	if rng.Intn(4) == 0 {
		gens := tracefeed.Generators()
		w = gens[rng.Intn(len(gens))]
	}

	// SDM column: ~1 in 5 seeds swaps the variant for a spatial-division
	// preset, lane count drawn from {2, 4, 8}. Appended after every
	// pre-existing draw (including the generator swap above) so older
	// corpus seeds reproduce identically.
	if rng.Intn(5) == 0 {
		sdm := config.SDMVariants()
		v = sdm[rng.Intn(len(sdm))]
	}

	return chip.Spec{
		Chip: c, Variant: v, Workload: w,
		WarmupOps: warm, MeasureOps: meas,
		Seed:  simSeed,
		Audit: true, Verify: true, VerifyEvery: 16,
		// Every leg's sample windows are compared too. The window is an odd
		// length taken from the seed itself: a draw from rng would shift
		// every later draw, and with it every corpus seed's spec.
		SampleEvery: sim.Cycle(61 + 2*(seed%64)),
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
