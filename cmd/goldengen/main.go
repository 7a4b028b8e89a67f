// Command goldengen regenerates the determinism fingerprints pinned in
// internal/chip/golden_test.go: one line per (chip, workload, variant) cell
// of the golden matrix, in Go composite-literal form ready to paste into
// the goldenMatrix table.
//
// The pinned numbers were captured from the seed (pre-activity-tracking)
// engine; regenerate them only when simulated behaviour changes on
// purpose, never to paper over an unexplained diff.
package main

import (
	"flag"
	"fmt"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	_ "reactivenoc/internal/tracefeed" // registers the adversarial generators
	"reactivenoc/internal/workload"
)

// bigVariants trims the 256-core section to the distinct-mechanism cells:
// a full 16x16 sweep of every variant would dominate the suite's runtime
// without covering new code paths.
var bigVariants = map[string]bool{
	"Baseline": true, "Complete_NoAck": true, "Reuse_NoAck": true,
}

// hotspotVariants is the adversarial-generator section: the hotspot rows
// pin the circuit mechanisms against single-tile contended traffic on the
// small chip.
var hotspotVariants = map[string]bool{
	"Baseline": true, "Reuse_NoAck": true, "Timed_NoAck": true,
}

// knobbedProfiled is ProfiledHybrid with a window short enough to demote
// flows within the matrix's 600+2400 ops (the default 32/50/128 preset never
// does, so its rows equal Complete_NoAck's). It is local to goldengen and
// the golden test, not a registered preset.
var knobbedProfiled = config.Variant{Name: "ProfiledHybrid_4_75_16", Opts: core.Options{
	Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Policy: "profiled-hybrid",
	ProfileWindow: 4, ProfileThresholdPct: 75, ProfileBackoff: 16,
}}

func main() {
	only := flag.String("only", "", "emit only cells whose chip/workload/variant contains this substring")
	flag.Parse()

	emit := func(c config.Chip, wn string, v config.Variant) {
		if *only != "" && !strings.Contains(c.Name+"/"+wn+"/"+v.Name, *only) {
			return
		}
		w, ok := workload.ByName(wn)
		if !ok {
			panic("unknown workload " + wn)
		}
		spec := chip.DefaultSpec(c, v, w)
		spec.WarmupOps = 600
		spec.MeasureOps = 2400
		spec.Seed = 7
		r, err := chip.Run(spec)
		if err != nil {
			panic(err)
		}
		total, reqs := r.Msgs.Totals()
		fmt.Printf("{%q, %q, %q, %d, %d, %d, %d, %.0f, %d, %.0f, %d, %.0f, %d},\n",
			c.Name, wn, v.Name,
			r.Cycles, total, reqs,
			r.Lat.Requests.Network.N(), r.Lat.Requests.Network.Sum(),
			r.Lat.CircuitReplies.Network.N(), r.Lat.CircuitReplies.Network.Sum(),
			r.Lat.OtherReplies.Network.N(), r.Lat.OtherReplies.Network.Sum(),
			r.Events.LinkFlits)
	}

	for _, c := range []config.Chip{config.Chip16(), config.Chip64(), config.Chip256()} {
		for _, wn := range []string{"micro", "canneal"} {
			if c.Nodes() > 64 && wn != "micro" {
				continue
			}
			for _, v := range config.Variants() {
				if c.Nodes() > 64 && !bigVariants[v.Name] {
					continue
				}
				emit(c, wn, v)
			}
		}
	}
	for _, v := range config.Variants() {
		if hotspotVariants[v.Name] {
			emit(config.Chip16(), "hotspot", v)
		}
	}
	// SDM section: the lane sweep under uniform traffic pins the
	// serialization model at every lane count; the hotspot cell pins the
	// lane-exhaustion fallback under single-tile contention.
	for _, v := range config.SDMVariants() {
		emit(config.Chip16(), "micro", v)
	}
	for _, v := range config.SDMVariants() {
		if v.Name == "SDM" {
			emit(config.Chip16(), "hotspot", v)
		}
	}
	// Policy-lab and comparator section: the registered presets outside
	// Variants() and SDMVariants(), each on micro plus the workload that
	// exercises what only it does — hotspot grows DynamicVC's partitions and
	// demotes the knobbed profiled flows, canneal fails probe setups.
	for _, cell := range []struct{ variant, workload string }{
		{"DynamicVC", "micro"}, {"DynamicVC", "hotspot"},
		{"Speculative", "micro"},
		{"Probe_DejaVu", "micro"}, {"Probe_DejaVu", "canneal"},
	} {
		v, ok := config.ByName(cell.variant)
		if !ok {
			panic("unknown variant " + cell.variant)
		}
		emit(config.Chip16(), cell.workload, v)
	}
	emit(config.Chip16(), "hotspot", knobbedProfiled)
	emit(config.Chip16(), "canneal", knobbedProfiled)
}
