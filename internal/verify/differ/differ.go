// Package differ drives differential property testing: it generates random
// simulation specs and runs each one through configurations that must be
// observationally identical — the sparse activity-tracked kernel vs the
// dense tick-everything reference, the pooled hot path vs the
// garbage-collected reference, and (optionally) a local run vs a remote
// simulation service — asserting bit-identical results with the online
// invariant oracles armed on every leg. The golden determinism suite pins
// a handful of hand-picked cells; this subsystem searches the spec space
// between them.
package differ

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/stats"
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
	// paper's variants, the two policy-lab presets, then comparators [1:3]
	// — so the first draw's modulus never changes and every committed
	// corpus seed keeps deriving the spec it always did. New variant
	// families join via draws appended at the end, never by widening this
	// pool (SweepVariants grows with each family and must not be used here).
	variants := append(append(config.Variants(), config.PolicyVariants()...),
		config.Comparators()[1:3]...)
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
	}
}

// skipForLeg returns the metric-name filter for a leg: the pool's own
// bookkeeping legitimately differs between pooled and unpooled runs, and
// the kernel's activity gauge between sparse and dense scheduling.
func skipForLeg(noPool, dense bool) func(string) bool {
	return func(name string) bool {
		if noPool && strings.HasPrefix(name, "noc/pool_") {
			return true
		}
		if dense && name == "kernel/active" {
			return true
		}
		return false
	}
}

// Diff compares two results of the same spec and returns a description of
// every observable divergence (nil = bit-identical). skip filters metric
// names whose divergence is by design for this leg pair.
func Diff(a, b *chip.Results, skip func(string) bool) error {
	if skip == nil {
		skip = func(string) bool { return false }
	}
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if a.Cycles != b.Cycles {
		add("Cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.SimCycles != b.SimCycles {
		add("SimCycles: %d vs %d", a.SimCycles, b.SimCycles)
	}
	at, ar := a.Msgs.Totals()
	bt, br := b.Msgs.Totals()
	if at != bt || ar != br {
		add("messages: %d/%d vs %d/%d", at, ar, bt, br)
	}
	lat := func(name string, x, y *stats.Sample) {
		if x.N() != y.N() || x.Sum() != y.Sum() {
			add("%s latency: (%d, %.0f) vs (%d, %.0f)", name, x.N(), x.Sum(), y.N(), y.Sum())
		}
	}
	lat("request", &a.Lat.Requests.Network, &b.Lat.Requests.Network)
	lat("circuit-reply", &a.Lat.CircuitReplies.Network, &b.Lat.CircuitReplies.Network)
	lat("other-reply", &a.Lat.OtherReplies.Network, &b.Lat.OtherReplies.Network)
	if a.Events.LinkFlits != b.Events.LinkFlits {
		add("link flits: %d vs %d", a.Events.LinkFlits, b.Events.LinkFlits)
	}

	names := map[string]bool{}
	for name := range a.Metrics.Vals {
		names[name] = true
	}
	for name := range b.Metrics.Vals {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		if !skip(name) {
			sorted = append(sorted, name)
		}
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if av, bv := a.Metrics.Value(name), b.Metrics.Value(name); av != bv {
			add("metric %s: %d vs %d", name, av, bv)
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("results diverge:\n  %s", strings.Join(diffs, "\n  "))
}

// Leg names one configuration of the differential matrix.
type Leg struct {
	Name string
	// mutate derives the leg's spec from the reference spec.
	mutate func(*chip.Spec)
	skip   func(string) bool
}

// Legs returns the local differential matrix: the reference leg is the
// pooled sparse kernel; each additional leg flips exactly one
// behaviour-neutral engine switch.
func Legs() []Leg {
	return []Leg{
		{Name: "dense-kernel", mutate: func(s *chip.Spec) { s.DenseKernel = true }, skip: skipForLeg(false, true)},
		{Name: "no-pool", mutate: func(s *chip.Spec) { s.NoPool = true }, skip: skipForLeg(true, false)},
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
	for _, leg := range Legs() {
		legSpec := spec
		leg.mutate(&legSpec)
		res, err := chip.RunCtx(ctx, legSpec)
		if err != nil {
			return fmt.Errorf("leg %s: %w", leg.Name, err)
		}
		if derr := Diff(ref, res, leg.skip); derr != nil {
			return fmt.Errorf("leg %s: %w", leg.Name, derr)
		}
	}
	if remote != nil {
		res, err := remote(ctx, spec)
		if err != nil {
			return fmt.Errorf("leg remote: %w", err)
		}
		if derr := Diff(ref, res, nil); derr != nil {
			return fmt.Errorf("leg remote: %w", derr)
		}
	}
	return nil
}
