// Package config names the system presets of the evaluation: the two chip
// sizes of Table 2 and every Reactive Circuits variant that appears in the
// paper's figures.
package config

import (
	"fmt"

	"reactivenoc/internal/core"
)

// Chip is a chip-size preset.
type Chip struct {
	Name          string
	Width, Height int
	MCs           int
}

// Chip16 is the 16-core chip (4x4 mesh, 4 memory controllers).
func Chip16() Chip { return Chip{Name: "16-core", Width: 4, Height: 4, MCs: 4} }

// Chip64 is the 64-core chip (8x8 mesh, 4 memory controllers).
func Chip64() Chip { return Chip{Name: "64-core", Width: 8, Height: 8, MCs: 4} }

// Chip256 is the 256-core chip (16x16 mesh, 4 memory controllers) — a
// scaling point beyond the paper's Table 2.
func Chip256() Chip { return Chip{Name: "256-core", Width: 16, Height: 16, MCs: 4} }

// Nodes returns the tile count.
func (c Chip) Nodes() int { return c.Width * c.Height }

// Variant is one named mechanism configuration from the evaluation.
type Variant struct {
	Name string
	Opts core.Options
}

// mustVariant builds a preset. The presets are program constants, so an
// inconsistent one is a bug and panics.
func mustVariant(name string, o core.Options) Variant {
	if err := o.Validate(); err != nil {
		panic(fmt.Sprintf("config: variant %s invalid: %v", name, err))
	}
	return Variant{Name: name, Opts: o}
}

// completeNoAck is Complete_NoAck's options: the base every optimization of
// Figure 6 stacks on.
func completeNoAck() core.Options {
	return core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true}
}

// timedNoAck is one member of Section 4.7's timed family on Complete_NoAck,
// named as in Figure 6 after the knob that distinguishes it.
func timedNoAck(slack, delay, postpone int) Variant {
	name := "Timed_NoAck"
	switch {
	case postpone > 0:
		name = fmt.Sprintf("Postponed_%d_NoAck", postpone)
	case delay > 0:
		name = fmt.Sprintf("SlackDelay_%d_NoAck", delay)
	case slack > 0:
		name = fmt.Sprintf("Slack_%d_NoAck", slack)
	}
	o := completeNoAck()
	o.Timed = true
	o.SlackPerHop, o.DelayPerHop, o.PostponePerHop = slack, delay, postpone
	return mustVariant(name, o)
}

// sdmLanes is the complete mechanism with every mesh link split into
// lanes. No NoAck: lane-paced circuit flits may stall, so the ack
// elimination's delivery guarantee (Section 4.6) does not hold — the sdm
// policy rejects the combination outright.
func sdmLanes(name string, lanes int) Variant {
	return mustVariant(name, core.Options{
		Mechanism:          core.MechSDM,
		MaxCircuitsPerPort: 5,
		SDMLanes:           lanes,
	})
}

// The sweep families: which of Variants, PolicyVariants and SDMVariants
// lists a preset, if any.
const (
	paper     = iota // Figure 6's bars, the paper's exact inventory
	policyLab        // the post-paper policies from the related work
	sdm              // the spatial-division presets
	noSweep          // comparators and tuning points no sweep has a column for
)

// presets is every named configuration, each declared once, in listing
// order: Figure 6's bars, the policy-lab and SDM presets (the sweep
// columns, in sweep order), the related-work comparators, then the tuning
// grid's points beyond the paper's figures.
var presets = []struct {
	Variant
	family int
}{
	{mustVariant("Baseline", core.Options{}), paper},
	{mustVariant("Fragmented", core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2}), paper},
	{mustVariant("Complete", core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5}), paper},
	{mustVariant("Complete_NoAck", completeNoAck()), paper},
	{mustVariant("Reuse_NoAck", core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Reuse: true}), paper},
	{timedNoAck(0, 0, 0), paper},
	{timedNoAck(1, 0, 0), paper},
	{timedNoAck(2, 0, 0), paper},
	{timedNoAck(4, 0, 0), paper},
	{timedNoAck(1, 1, 0), paper},
	{timedNoAck(0, 0, 1), paper},
	{mustVariant("Ideal", core.Options{Mechanism: core.MechIdeal}), paper},
	// The load-adaptive VC partitioning of Onsori & Safaei.
	{mustVariant("DynamicVC", core.Options{
		Mechanism:          core.MechDynamicVC,
		MaxCircuitsPerPort: 3,
	}), policyLab},
	// Zaeemi & Modarressi's lanes: SDM is the 4-lane default; SDM_2 and
	// SDM_8 bracket the serialization/parallelism trade-off.
	{sdmLanes("SDM", 4), sdm},
	{sdmLanes("SDM_2", 2), sdm},
	{sdmLanes("SDM_8", 8), sdm},
	// A speculative single-cycle router (references [16-19]) and
	// probe-based setup at reply time (Déjà-Vu switching, reference [7]).
	{mustVariant("Speculative", core.Options{Mechanism: core.MechSpeculative}), noSweep},
	{mustVariant("Probe_DejaVu", core.Options{Mechanism: core.MechProbe, MaxCircuitsPerPort: 5}), noSweep},
	{timedNoAck(8, 0, 0), noSweep},
	{timedNoAck(0, 0, 2), noSweep},
}

// inFamily returns the family's presets in table order.
func inFamily(f int) []Variant {
	var out []Variant
	for _, p := range presets {
		if p.family == f {
			out = append(out, p.Variant)
		}
	}
	return out
}

// pick returns the named presets in the order given.
func pick(names ...string) []Variant {
	out := make([]Variant, len(names))
	for i, name := range names {
		v, ok := ByName(name)
		if !ok {
			panic("config: no preset " + name)
		}
		out[i] = v
	}
	return out
}

// Variants returns every configuration evaluated in the paper, in the
// order of Figure 6's bars.
func Variants() []Variant { return inFamily(paper) }

// PolicyVariants returns the post-paper switching-policy presets from the
// related work, built on the first-class policy seam (core.Policy). They
// ride every sweep as comparable columns next to the paper's variants
// (SweepVariants) but stay out of Variants(), the paper's exact inventory.
func PolicyVariants() []Variant { return inFamily(policyLab) }

// SDMVariants returns the spatial-division multiplexing presets (PAPERS.md:
// Zaeemi & Modarressi): the complete mechanism with every mesh link split
// into lanes, one reserved for packet traffic and the rest held
// one-per-circuit. Like the policy-lab variants they ride every sweep but
// stay out of Variants().
func SDMVariants() []Variant { return inFamily(sdm) }

// SweepVariants returns every comparable sweep column: the paper's
// variants followed by the policy-lab variants and the SDM presets.
func SweepVariants() []Variant {
	return append(append(Variants(), PolicyVariants()...), SDMVariants()...)
}

// TuneGrid returns the candidate grid `rcsweep -exp tune` sweeps per
// workload: the Baseline and Reuse anchors plus the timed family across its
// Slack/Postponed knob range — including Slack_8 and Postponed_2 points
// beyond the paper's figures, so the per-app optimum can land outside the
// published inventory — and, last, the SDM lane sweep, the spatial
// alternative to every timed knob.
func TuneGrid() []Variant {
	return append(pick("Baseline", "Reuse_NoAck", "Timed_NoAck",
		"Slack_1_NoAck", "Slack_2_NoAck", "Slack_4_NoAck", "Slack_8_NoAck",
		"SlackDelay_1_NoAck", "Postponed_1_NoAck", "Postponed_2_NoAck"),
		SDMVariants()...)
}

// ByName returns the named preset.
func ByName(name string) (Variant, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p.Variant, true
		}
	}
	return Variant{}, false
}

// RegisteredNames lists every preset in table order.
func RegisteredNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return names
}

// PolicyNames lists every switching policy in core's table order.
func PolicyNames() []string { return core.PolicyNames() }

// VariantForPolicy returns the first preset whose options resolve to the
// named switching policy — the representative preset the conformance suite
// runs for each policy. ok is false when no preset exercises the policy,
// which is exactly what the conformance suite fails on: a policy without a
// runnable preset cannot be gauntleted.
func VariantForPolicy(policy string) (Variant, bool) {
	for _, p := range presets {
		if p.Opts.Mechanism.String() == policy {
			return p.Variant, true
		}
	}
	return Variant{}, false
}

// VariantsForPolicy returns every sweep column whose options resolve to
// the named switching policy, in sweep order — what `rcsweep -policy`
// restricts a sweep to.
func VariantsForPolicy(policy string) []Variant {
	var out []Variant
	for _, v := range SweepVariants() {
		if v.Opts.Mechanism.String() == policy {
			out = append(out, v)
		}
	}
	return out
}

// Comparators returns the related-work alternatives the paper positions
// Reactive Circuits against: the baseline, a speculative single-cycle
// router (references [16-19]) and probe-based setup at reply time
// (Déjà-Vu switching, reference [7]), next to the paper's two best.
func Comparators() []Variant {
	return pick("Baseline", "Speculative", "Probe_DejaVu", "Complete_NoAck", "SlackDelay_1_NoAck")
}

// KeyVariants returns the "most relevant versions" the paper uses in
// Figures 7-9: baseline, fragmented, the complete family, timed variants
// and the ideal bound.
func KeyVariants() []Variant {
	return pick("Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck",
		"Timed_NoAck", "SlackDelay_1_NoAck", "Postponed_1_NoAck", "Ideal")
}
