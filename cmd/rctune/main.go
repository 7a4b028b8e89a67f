// Command rctune is the closed-loop parameter tuner: for each workload
// it sweeps the mechanism grid (Slack/Postponed knob range plus the
// Baseline and Reuse anchors, config.TuneGrid) and reports the per-app
// optimum — which variant wins, by how much, and whether the plain
// timed-window predictor beats or loses to the baseline on that
// workload. Run against the adversarial generator suite it extends the
// paper's figures into the regimes where profile-based tuning degrades.
//
// Usage:
//
//	rctune                          # default campaign: stationary anchors + adversarial suite, 16-core
//	rctune -chip 64                 # the 64-core chip
//	rctune -workloads hotspot,onoff # tune only the named workloads (trace:<path> works too)
//	rctune -variants Baseline,Timed_NoAck,Slack_2_NoAck
//	rctune -ops 8000 -seed 3        # longer runs, different seed
//	rctune -md                      # markdown table (EXPERIMENTS.md rows)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"reactivenoc/internal/config"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/tracefeed/tune"
)

func main() { os.Exit(run()) }

func run() int {
	chipSel := flag.Int("chip", 16, "chip size (16, 64 or 256)")
	ops := flag.Int64("ops", 4000, "measured operations per core per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	workloadsFlag := flag.String("workloads", "",
		"comma-separated workload names (built-ins, generators, trace:<path>); empty = anchors + adversarial suite")
	variantsFlag := flag.String("variants", "",
		"comma-separated variant names to grid over; empty = the tuning grid (Baseline, Reuse, Timed, Slack_1/2/4/8, SlackDelay_1, Postponed_1/2)")
	listWorkloads := flag.Bool("list-workloads", false, "list every resolvable workload name and exit")
	mdOut := flag.Bool("md", false, "emit a markdown table instead of text")
	flag.Parse()

	if *listWorkloads {
		for _, n := range tracefeed.WorkloadNames() {
			fmt.Println(n)
		}
		return 0
	}
	var c config.Chip
	switch *chipSel {
	case 16:
		c = config.Chip16()
	case 64:
		c = config.Chip64()
	case 256:
		c = config.Chip256()
	default:
		fmt.Fprintln(os.Stderr, "rctune: -chip must be 16, 64 or 256")
		return 1
	}

	cfg := tune.Config{Chip: c, MeasureOps: *ops, Seed: *seed, Workers: *workers}
	if *workloadsFlag != "" {
		for _, name := range strings.Split(*workloadsFlag, ",") {
			p, err := tracefeed.ResolveWorkload(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rctune: %v\n", err)
				return 1
			}
			cfg.Workloads = append(cfg.Workloads, p)
		}
	}
	if *variantsFlag != "" {
		for _, name := range strings.Split(*variantsFlag, ",") {
			v, ok := config.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "rctune: unknown variant %q\n", name)
				return 1
			}
			cfg.Variants = append(cfg.Variants, v)
		}
	}

	rep, err := tune.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rctune: %v\n", err)
		return 1
	}
	if *mdOut {
		fmt.Print(rep.Markdown())
	} else {
		fmt.Printf("==== %s chip, %d ops/core, seed %d ====\n", c.Name, *ops, *seed)
		fmt.Print(rep.Text())
	}
	if len(rep.Sweep.Failures) > 0 {
		return 1
	}
	return 0
}
