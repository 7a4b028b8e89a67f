// Command rcverify is the property-testing driver of the verification
// subsystem. It prints from the verification catalogue
// (internal/verify/differ) in three campaigns:
//
//  1. -faults: every injectable corruption class (internal/fault), in its
//     canonical scenario and with the SDM fabric active, must be caught by
//     the oracle verify.OraclesFor maps it to — not the generic watchdog.
//  2. -policies: every registered switching policy's conformance cell runs
//     through the differential legs with the oracles armed.
//  3. -n random specs (seeds -seed .. -seed+n-1) each run through the
//     behaviour-neutral engine legs — sparse vs dense kernel, pooled vs
//     unpooled, and optionally a remote rcserved — asserting bit-identical
//     results with the oracles armed on every leg.
//
// A failing differential seed is a complete reproducer: it is printed, and
// with -corpus its spec is written as <dir>/seed-<n>.json, the format of
// internal/verify/differ/testdata/regress, which TestRegressionSpecs
// replays once the file is added to its table.
//
// Usage:
//
//	rcverify -n 200
//	rcverify -n 50 -seed 1000 -remote http://host:8134
//	rcverify -faults=false -n 20 -corpus rcverify-failures
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/verify/differ"
)

func main() { os.Exit(run()) }

func run() int {
	n := flag.Int("n", 50, "number of random differential seeds to run")
	seed := flag.Uint64("seed", 1, "first differential seed")
	faults := flag.Bool("faults", true, "run the fault-detection matrix first")
	policies := flag.Bool("policies", true, "run the per-policy differential gauntlet (every registered switching policy)")
	remote := flag.String("remote", "", "base URL of a running rcserved to add as a differential leg")
	corpus := flag.String("corpus", "", "directory to write a failing seed's spec to, as seed-<n>.json")
	verbose := flag.Bool("v", false, "print every seed as it runs")
	flag.Parse()

	ctx := context.Background()
	var remoteRun differ.RunFunc
	if *remote != "" {
		remoteRun = serve.NewClient(*remote).Run
	}

	if *faults {
		if !runFaultMatrix(ctx) {
			return 1
		}
	}

	if *policies {
		if !runPolicyGauntlet(ctx, remoteRun) {
			return 1
		}
	}

	fmt.Printf("differential: %d seeds from %d (legs: reference", *n, *seed)
	for _, leg := range chip.Legs() {
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
			if *corpus != "" {
				if path, werr := writeSpec(*corpus, s, spec); werr != nil {
					fmt.Fprintf(os.Stderr, "rcverify: writing reproducer: %v\n", werr)
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

// runPolicyGauntlet runs every registered switching policy's conformance
// cell through the differential legs (and, with -remote, the remote leg).
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
		if err := differ.RunDifferential(ctx, differ.PolicySpec(v), remoteRun); err != nil {
			fmt.Fprintf(os.Stderr, "  %-16s FAILED (variant %s): %v\n", name, v.Name, err)
			ok = false
			continue
		}
		fmt.Printf("  %-16s ok (variant %s)\n", name, v.Name)
	}
	return ok
}

// runFaultMatrix injects every fault class, once in its canonical scenario
// and once with the SDM fabric active, and checks that each is detected by
// the oracle verify.OraclesFor maps it to (differ.Detect).
func runFaultMatrix(ctx context.Context) bool {
	fmt.Printf("fault matrix: %d classes, oracles checking every cycle\n", fault.NumClasses)
	ok := true
	for _, fabric := range []struct{ variant, tag string }{{"", "        "}, {"SDM", "[SDM]   "}} {
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			spec, applies := differ.FaultScenario(c, fabric.variant)
			if !applies {
				why := "untimed circuits; no window to truncate"
				if c == fault.ReorderReply {
					why = "no eliminated acks; no NoAck reply to reorder"
				}
				fmt.Printf("  %-18s %s n/a (%s)\n", c, fabric.tag, why)
				continue
			}
			re, err := differ.Detect(ctx, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "  %-18s %s FAILED: %v\n", c, fabric.tag, err)
				ok = false
				continue
			}
			fmt.Printf("  %-18s %s caught by oracle %q at cycle %d\n", c, fabric.tag, re.Oracle, re.Cycle)
		}
	}
	return ok
}

// writeSpec persists a failing seed's spec as <dir>/seed-<n>.json.
func writeSpec(dir string, seed uint64, spec chip.Spec) (string, error) {
	body, _ := json.MarshalIndent(spec, "", "  ") // a Spec always encodes (chip.Spec.Fingerprint)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
	return path, os.WriteFile(path, append(body, '\n'), 0o644)
}
