// Package config names the system presets of the evaluation: the two chip
// sizes of Table 2 and every Reactive Circuits variant that appears in the
// paper's figures.
package config

import (
	"fmt"
	"sync"

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

// reuseNoAck adds scrounger reuse (Section 4.5).
func reuseNoAck() Variant {
	o := completeNoAck()
	o.Reuse = true
	return mustVariant("Reuse_NoAck", o)
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

// Variants returns every configuration evaluated in the paper, in the
// order of Figure 6's bars.
func Variants() []Variant {
	return []Variant{
		mustVariant("Baseline", core.Options{}),
		mustVariant("Fragmented", core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2}),
		mustVariant("Complete", core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5}),
		mustVariant("Complete_NoAck", completeNoAck()),
		reuseNoAck(),
		timedNoAck(0, 0, 0),
		timedNoAck(1, 0, 0),
		timedNoAck(2, 0, 0),
		timedNoAck(4, 0, 0),
		timedNoAck(1, 1, 0),
		timedNoAck(0, 0, 1),
		mustVariant("Ideal", core.Options{Mechanism: core.MechIdeal}),
	}
}

// PolicyVariants returns the post-paper switching-policy presets from the
// related work, built on the first-class policy seam (core.Policy): the
// load-adaptive VC partitioning of Onsori & Safaei. They ride every sweep
// as comparable columns next to the paper's variants (SweepVariants) but
// stay out of Variants(), which remains the paper's exact inventory.
func PolicyVariants() []Variant {
	return []Variant{
		mustVariant("DynamicVC", core.Options{
			Mechanism:          core.MechFragmented,
			MaxCircuitsPerPort: 3,
			Policy:             "dynamic-vc",
		}),
	}
}

// SDMVariants returns the spatial-division multiplexing presets (PAPERS.md:
// Zaeemi & Modarressi): the complete mechanism with every mesh link split
// into lanes, one reserved for packet traffic and the rest held
// one-per-circuit. SDM is the 4-lane default; SDM_2 and SDM_8 bracket the
// serialization/parallelism trade-off. Like the policy-lab variants they
// ride every sweep (SweepVariants) but stay out of Variants(), the paper's
// exact inventory.
func SDMVariants() []Variant {
	mk := func(name string, lanes int) Variant {
		// No NoAck: lane-paced circuit flits may stall, so the ack
		// elimination's delivery guarantee (Section 4.6) does not hold —
		// the sdm policy rejects the combination outright.
		return mustVariant(name, core.Options{
			Mechanism:          core.MechComplete,
			MaxCircuitsPerPort: 5,
			Policy:             "sdm",
			SDMLanes:           lanes,
		})
	}
	return []Variant{
		mk("SDM", 4),
		mk("SDM_2", 2),
		mk("SDM_8", 8),
	}
}

// SweepVariants returns every comparable sweep column: the paper's
// variants followed by the policy-lab variants and the SDM presets.
func SweepVariants() []Variant {
	return append(append(Variants(), PolicyVariants()...), SDMVariants()...)
}

// TuneGrid returns the candidate grid `rcsweep -exp tune` sweeps per
// workload: the Baseline and Reuse anchors plus the timed
// family across its Slack/Postponed knob range — including Slack_8 and
// Postponed_2 points beyond the paper's figures, so the per-app optimum
// can land outside the published inventory — and the SDM lane sweep, the
// spatial alternative to every timed knob.
func TuneGrid() []Variant {
	grid := []Variant{
		mustVariant("Baseline", core.Options{}),
		reuseNoAck(),
		timedNoAck(0, 0, 0),
		timedNoAck(1, 0, 0),
		timedNoAck(2, 0, 0),
		timedNoAck(4, 0, 0),
		timedNoAck(8, 0, 0),
		timedNoAck(1, 1, 0),
		timedNoAck(0, 0, 1),
		timedNoAck(0, 0, 2),
	}
	// The SDM lane sweep joins after the timed family so tuning reports
	// keep their historical column order.
	return append(grid, SDMVariants()...)
}

// The variant registry is built once: every preset from Variants,
// PolicyVariants and Comparators, keyed by name (first registration wins
// for the duplicated entries).
var (
	regOnce  sync.Once
	regMap   map[string]Variant
	regOrder []string
)

func registry() map[string]Variant {
	regOnce.Do(func() {
		regMap = map[string]Variant{}
		all := append(append(Variants(), PolicyVariants()...), SDMVariants()...)
		all = append(all, Comparators()...)
		all = append(all, TuneGrid()...)
		for _, v := range all {
			if _, dup := regMap[v.Name]; dup {
				continue
			}
			regMap[v.Name] = v
			regOrder = append(regOrder, v.Name)
		}
	})
	return regMap
}

// ByName returns the named variant from the once-built registry (paper
// variants, policy-lab variants and comparators alike).
func ByName(name string) (Variant, bool) {
	v, ok := registry()[name]
	return v, ok
}

// RegisteredNames lists every registry entry in registration order:
// Variants, then PolicyVariants, then the comparators not already listed.
func RegisteredNames() []string {
	registry()
	return append([]string(nil), regOrder...)
}

// PolicyNames lists every switching policy registered in core, in
// registration order.
func PolicyNames() []string { return core.PolicyNames() }

// VariantForPolicy returns the first registered variant whose options
// resolve to the named switching policy — the representative preset the
// conformance suite runs for each policy. ok is false when no registered
// variant exercises the policy, which is exactly what the conformance
// suite fails on: a policy without a runnable preset cannot be gauntleted.
func VariantForPolicy(policy string) (Variant, bool) {
	registry()
	for _, name := range regOrder {
		v := regMap[name]
		if core.PolicyName(v.Opts) == policy {
			return v, true
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
		if core.PolicyName(v.Opts) == policy {
			out = append(out, v)
		}
	}
	return out
}

// Comparators returns the related-work alternatives the paper positions
// Reactive Circuits against: the baseline, a speculative single-cycle
// router (references [16-19]) and probe-based setup at reply time
// (Déjà-Vu switching, reference [7]).
func Comparators() []Variant {
	// This runs inside the registry build, so it must not call ByName
	// (re-entering the sync.Once would deadlock): look the two paper
	// variants up with a plain scan instead.
	fromPaper := func(name string) Variant {
		for _, v := range Variants() {
			if v.Name == name {
				return v
			}
		}
		panic("config: missing paper variant " + name)
	}
	return []Variant{
		mustVariant("Baseline", core.Options{}),
		mustVariant("Speculative", core.Options{SpeculativeRouter: true}),
		mustVariant("Probe_DejaVu", core.Options{Mechanism: core.MechProbe, MaxCircuitsPerPort: 5}),
		fromPaper("Complete_NoAck"),
		fromPaper("SlackDelay_1_NoAck"),
	}
}

// KeyVariants returns the "most relevant versions" the paper uses in
// Figures 7-9: baseline, fragmented, the complete family, timed variants
// and the ideal bound.
func KeyVariants() []Variant {
	keys := []string{
		"Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck",
		"Timed_NoAck", "SlackDelay_1_NoAck", "Postponed_1_NoAck", "Ideal",
	}
	out := make([]Variant, 0, len(keys))
	for _, k := range keys {
		v, ok := ByName(k)
		if !ok {
			panic("config: missing key variant " + k)
		}
		out = append(out, v)
	}
	return out
}
