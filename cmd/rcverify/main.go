// Command rcverify is the property-testing driver of the verification
// subsystem (internal/verify). It runs two campaigns:
//
//  1. A fault-detection matrix: every injectable corruption class
//     (internal/fault) is injected into a run with the invariant oracles
//     checking every cycle, and must be caught by the oracle
//     verify.OraclesFor maps it to — not the generic watchdog.
//  2. A differential campaign: -n random specs (seeds -seed .. -seed+n-1)
//     each run through the behaviour-neutral engine matrix — sparse vs
//     dense kernel, pooled vs unpooled, and optionally a remote rcserved —
//     asserting bit-identical results with the oracles armed on every leg.
//
// A failing differential seed is a complete reproducer: it is printed, and
// written to -corpus in `go test` fuzz-corpus format so
// `go test -run=FuzzDifferential ./internal/verify/differ` replays it.
//
// Usage:
//
//	rcverify -n 200
//	rcverify -n 50 -seed 1000 -remote http://host:8134
//	rcverify -faults=false -n 20 -corpus internal/verify/differ/testdata/fuzz/FuzzDifferential
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/verify/differ"
	"reactivenoc/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	n := flag.Int("n", 50, "number of random differential seeds to run")
	seed := flag.Uint64("seed", 1, "first differential seed")
	faults := flag.Bool("faults", true, "run the fault-detection matrix first")
	policies := flag.Bool("policies", true, "run the per-policy differential gauntlet (every registered switching policy)")
	remote := flag.String("remote", "", "base URL of a running rcserved to add as a differential leg")
	corpus := flag.String("corpus", "", "directory to write failing seeds to as go-fuzz corpus entries")
	verbose := flag.Bool("v", false, "print every seed as it runs")
	flag.Parse()

	ctx := context.Background()
	var remoteRun differ.RunFunc
	if *remote != "" {
		remoteRun = serve.NewClient(*remote).Run
	}

	if *faults {
		if !runFaultMatrix() {
			return 1
		}
	}

	if *policies {
		if !runPolicyGauntlet(ctx, remoteRun) {
			return 1
		}
	}

	fmt.Printf("differential: %d seeds from %d (legs: reference", *n, *seed)
	for _, leg := range differ.Legs() {
		fmt.Printf(", %s", leg.Name)
	}
	if remoteRun != nil {
		fmt.Print(", remote")
	}
	fmt.Println(")")

	t0 := time.Now()
	for i := 0; i < *n; i++ {
		s := *seed + uint64(i)
		spec := differ.SpecFromSeed(s)
		if *verbose {
			fmt.Printf("  seed %d: %s/%s/%s warm=%d meas=%d\n", s,
				spec.Chip.Name, spec.Variant.Name, spec.Workload.Name,
				spec.WarmupOps, spec.MeasureOps)
		}
		if err := differ.RunDifferential(ctx, spec, remoteRun); err != nil {
			fmt.Fprintf(os.Stderr, "rcverify: seed %d FAILED: %v\n", s, err)
			if re := chip.AsRunError(err); re != nil && re.Oracle != "" {
				fmt.Fprintf(os.Stderr, "rcverify: oracle %q fired\n", re.Oracle)
			}
			if *corpus != "" {
				if path, werr := writeCorpusEntry(*corpus, s); werr != nil {
					fmt.Fprintf(os.Stderr, "rcverify: writing corpus entry: %v\n", werr)
				} else {
					fmt.Fprintf(os.Stderr, "rcverify: reproducer written to %s\n", path)
				}
			}
			return 1
		}
	}
	fmt.Printf("differential: %d seeds passed in %v (zero divergences, zero oracle violations)\n",
		*n, time.Since(t0).Round(time.Millisecond))
	return 0
}

// runPolicyGauntlet runs every registered switching policy's
// representative variant through the differential matrix with the oracles
// armed at a tight cadence — the same conformance bar the test suite
// applies, but through the rcverify reporting path (and, with -remote,
// with the remote leg attached).
func runPolicyGauntlet(ctx context.Context, remoteRun differ.RunFunc) bool {
	names := config.PolicyNames()
	fmt.Printf("policy gauntlet: %d registered policies through the differential matrix\n", len(names))
	ok := true
	for _, name := range names {
		v, found := config.VariantForPolicy(name)
		if !found {
			fmt.Fprintf(os.Stderr, "  %-16s NO VARIANT: no registered preset exercises this policy\n", name)
			ok = false
			continue
		}
		spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
		spec.WarmupOps, spec.MeasureOps = 500, 4000
		spec.Audit, spec.Verify, spec.VerifyEvery = true, true, 8
		if err := differ.RunDifferential(ctx, spec, remoteRun); err != nil {
			fmt.Fprintf(os.Stderr, "  %-16s FAILED (variant %s): %v\n", name, v.Name, err)
			if re := chip.AsRunError(err); re != nil && re.Oracle != "" {
				fmt.Fprintf(os.Stderr, "  %-16s oracle %q fired\n", name, re.Oracle)
			}
			ok = false
			continue
		}
		fmt.Printf("  %-16s ok (variant %s)\n", name, v.Name)
	}
	return ok
}

// faultScenario arms one corruption class in the spec shape the chaos suite
// established: a workload/variant combination where the class's eligible
// hardware event reliably occurs.
func faultScenario(c fault.Class) chip.Spec {
	variant, w := "Complete_NoAck", workload.Micro()
	plan := &fault.Plan{Class: c}
	spec := chip.Spec{
		WarmupOps: 1000, MeasureOps: 3000, Seed: 1,
		Audit: true, Verify: true, VerifyEvery: 1,
	}
	switch c {
	case fault.DropUndoToken:
		w = workload.Micro().Scaled(8)
	case fault.TruncateWindow:
		variant = "SlackDelay_1_NoAck"
		plan.Count = 2
	case fault.WithholdCredit:
		variant = "Baseline"
	case fault.StallLink:
		plan.After = 2000
		spec.WatchdogStall = 3000
	}
	v, _ := config.ByName(variant)
	spec.Chip, spec.Variant, spec.Workload, spec.Fault = config.Chip16(), v, w, plan
	return spec
}

// sdmFaultScenario arms one corruption class with the SDM policy's
// lane-sliced fabric active, so the detection story is re-proven against
// per-lane circuit tables, lane-paced bypass and lane-releasing teardown.
// ok=false marks a structurally inapplicable class: TruncateWindow needs a
// timed reservation, and sdm replaces time windows with lanes outright.
func sdmFaultScenario(c fault.Class) (chip.Spec, bool) {
	if c == fault.TruncateWindow {
		return chip.Spec{}, false
	}
	w := workload.Micro()
	plan := &fault.Plan{Class: c}
	spec := chip.Spec{
		WarmupOps: 1000, MeasureOps: 3000, Seed: 1,
		Audit: true, Verify: true, VerifyEvery: 1,
	}
	switch c {
	case fault.DropUndoToken:
		w = workload.Micro().Scaled(8)
	case fault.StallLink:
		plan.After = 2000
		spec.WatchdogStall = 3000
	}
	v, _ := config.ByName("SDM")
	spec.Chip, spec.Variant, spec.Workload, spec.Fault = config.Chip16(), v, w, plan
	return spec, true
}

// runFaultMatrix injects every fault class and checks the oracle that
// catches it against the canonical mapping — once in the default scenarios
// and once with the SDM fabric active.
func runFaultMatrix() bool {
	fmt.Printf("fault matrix: %d classes, oracles checking every cycle\n", fault.NumClasses)
	check := func(c fault.Class, spec chip.Spec, tag string) bool {
		_, err := chip.Run(spec)
		re := chip.AsRunError(err)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "  %-18s %s ESCAPED: run completed cleanly\n", c, tag)
			return false
		case re == nil:
			fmt.Fprintf(os.Stderr, "  %-18s %s unstructured error: %v\n", c, tag, err)
			return false
		case !oracleAllowed(re.Oracle, verify.OraclesFor(c)):
			fmt.Fprintf(os.Stderr, "  %-18s %s caught by %q (phase %s), want %v\n",
				c, tag, re.Oracle, re.Phase, verify.OraclesFor(c))
			return false
		}
		fmt.Printf("  %-18s %s caught by oracle %q at cycle %d\n", c, tag, re.Oracle, re.Cycle)
		return true
	}
	ok := true
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		ok = check(c, faultScenario(c), "        ") && ok
	}
	for c := fault.Class(0); c < fault.NumClasses; c++ {
		spec, applies := sdmFaultScenario(c)
		if !applies {
			fmt.Printf("  %-18s [SDM]    n/a (sdm circuits are untimed; no window to truncate)\n", c)
			continue
		}
		ok = check(c, spec, "[SDM]   ") && ok
	}
	return ok
}

func oracleAllowed(got string, want []string) bool {
	for _, w := range want {
		if got == w {
			return true
		}
	}
	return false
}

// writeCorpusEntry persists a failing seed in `go test` fuzz-corpus format
// for FuzzDifferential.
func writeCorpusEntry(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("rcverify-seed-%d", seed))
	body := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", seed)
	return path, os.WriteFile(path, []byte(body), 0o644)
}
