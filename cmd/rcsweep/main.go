// Command rcsweep regenerates the paper's evaluation: every table and
// figure, for the 16- and 64-core chips, across the workload suite, plus
// the extension experiments (load threshold, ablations, scalability,
// related-work comparison, tail latency, confidence intervals).
//
// Individual simulation runs that fail (invariant panic, deadlock
// watchdog, audit failure, wall-clock timeout) do not abort the sweep:
// they are recorded, retried once under an alternate seed, and summarized
// at the end, and rcsweep exits non-zero. Use -failfast to stop at the
// first failure instead, and -timeout to cap each run's wall-clock time.
//
// Every -exp, the extension experiments included, builds a list of run
// specs and hands it to the one cell runner in internal/exp, so -workers,
// -seed, -ops, -timeout, -failfast, -verify and -remote apply to all of
// them alike (-full, -policy and -workloads choose the rows and columns of
// the paper's sweep; the extensions fix their own).
//
// Usage:
//
//	rcsweep                 # quick pass (subset of workloads, short runs)
//	rcsweep -full           # the full suite (21 parallel apps + mix)
//	rcsweep -exp fig9       # one experiment only
//	rcsweep -chip 64        # one chip size only
//	rcsweep -json           # machine-readable output
//	rcsweep -timeout 5m     # per-run wall-clock cap
//	rcsweep -failfast       # stop scheduling runs after the first failure
//	rcsweep -remote http://host:8134   # submit cells to a running rcserved
//
// With -remote, every sweep cell is submitted to the rcserved instance at
// the given base URL instead of being simulated locally: results come back
// over HTTP (cache hits never burn a server worker), failures come back as
// the same structured run errors the local path produces, and the server
// owns retry — so the client-side retry is disabled to avoid running every
// failing spec four times.
//
// When the -remote endpoint hosts the cluster discovery registry
// (rcserved -registry), rcsweep fans out transparently: each cell is
// routed by spec fingerprint to its consistent-hash owner, per-node
// backpressure is absorbed with jittered exponential backoff, and a node
// that dies mid-sweep has its cells re-dispatched to the surviving ring
// successor — at-least-once, deduplicated by fingerprint on the nodes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"reactivenoc/internal/cluster"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/prof"
	"reactivenoc/internal/tracefeed"
)

// formatter is what every experiment report implements.
type formatter interface{ Format() string }

// experiments are the valid -exp values.
var experiments = []string{"all", "table1", "table5", "table6", "fig6", "fig7", "fig8", "fig9", "fig10",
	"load", "ablate", "scale", "compare", "tail", "ci"}

func main() { os.Exit(run()) }

func run() int {
	full := flag.Bool("full", false, "run the full workload suite")
	which := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	chipSel := flag.Int("chip", 0, "chip size (16, 64 or 256); 0 = the paper's pair (16 and 64)")
	ops := flag.Int64("ops", 0, "override measured operations per core")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock cap (0 = none)")
	failFast := flag.Bool("failfast", false, "stop scheduling new runs after the first failure (default: survive failed runs and report them at the end)")
	remote := flag.String("remote", "", "base URL of a running rcserved; sweep cells are submitted there instead of simulated locally")
	verifyRuns := flag.Bool("verify", false, "arm the online invariant oracles on every run of the sweep")
	policyName := flag.String("policy", "", "restrict the sweep columns to the named switching policy's variants (see -list-policies)")
	listPolicies := flag.Bool("list-policies", false, "list every registered switching policy and exit")
	workloadsFlag := flag.String("workloads", "",
		"comma-separated workload rows replacing the evaluation suite (built-ins, adversarial generators, trace:<path>; see -list-workloads)")
	listWorkloads := flag.Bool("list-workloads", false, "list every resolvable workload name and exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text tables")
	mdOut := flag.Bool("md", false, "emit the full evaluation as a markdown report (implies -exp all)")
	profiles := prof.Flags("trace")
	flag.Parse()

	if !slices.Contains(experiments, *which) {
		fmt.Fprintf(os.Stderr, "rcsweep: unknown -exp %q (valid: %s)\n", *which, strings.Join(experiments, ", "))
		return 2
	}
	if *listPolicies {
		for _, name := range config.PolicyNames() {
			var cols []string
			for _, v := range config.VariantsForPolicy(name) {
				cols = append(cols, v.Name)
			}
			fmt.Printf("%-16s sweep columns: %s\n", name, strings.Join(cols, ", "))
		}
		return 0
	}
	if *listWorkloads {
		for _, n := range tracefeed.WorkloadNames() {
			fmt.Println(n)
		}
		return 0
	}

	// The sweep's columns: the paper's variants plus the policy-lab
	// presets, or just the named policy's columns with -policy.
	sweepVariants := config.SweepVariants()
	if *policyName != "" {
		sweepVariants = config.VariantsForPolicy(*policyName)
		if len(sweepVariants) == 0 {
			fmt.Fprintf(os.Stderr, "rcsweep: policy %q has no sweep columns (registered: %s)\n",
				*policyName, strings.Join(config.PolicyNames(), ", "))
			return 1
		}
	}

	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "rcsweep: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "rcsweep: %v\n", err)
		}
	}()

	scale := exp.QuickScale()
	if *full {
		scale = exp.FullScale()
	}
	if *ops > 0 {
		scale.MeasureOps = *ops
	}
	scale.Seed = *seed
	scale.Workers = *workers
	if *workloadsFlag != "" {
		for _, name := range strings.Split(*workloadsFlag, ",") {
			p, err := tracefeed.ResolveWorkload(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcsweep: %v\n", err)
				return 1
			}
			scale.Profiles = append(scale.Profiles, p)
		}
	}

	pol := exp.DefaultPolicy()
	pol.Timeout = *timeout
	pol.FailFast = *failFast
	pol.Verify = *verifyRuns
	if *remote != "" {
		// The server executes (and retries) each cell; rcsweep's workers
		// become concurrent HTTP clients of it. -timeout still rides along
		// on each submitted spec. A -remote endpoint that speaks the
		// discovery protocol is a cluster: cells fan out by fingerprint to
		// the owning node, with re-dispatch to the ring successor when a
		// node dies mid-sweep.
		run, kind := cluster.RunFunc(context.Background(), *remote,
			func(format string, args ...any) { fmt.Fprintf(os.Stderr, "rcsweep: "+format+"\n", args...) })
		fmt.Fprintf(os.Stderr, "rcsweep: -remote %s: %s\n", *remote, kind)
		pol.Run = run
		pol.Retry = false
	}
	ctx := context.Background()

	failed := 0
	note := func(summary string) {
		if summary != "" {
			failed++
			fmt.Fprint(os.Stderr, summary)
		}
	}

	if *mdOut {
		s16 := exp.RunSweepCtx(ctx, config.Chip16(), sweepVariants, scale, pol)
		s64 := exp.RunSweepCtx(ctx, config.Chip64(), sweepVariants, scale, pol)
		fmt.Print(exp.Markdown(s16, s64))
		note(s16.FailureSummary())
		note(s64.FailureSummary())
		if failed > 0 {
			return 1
		}
		return 0
	}

	chips := []config.Chip{config.Chip16(), config.Chip64()}
	switch *chipSel {
	case 0:
	case 16:
		chips = chips[:1]
	case 64:
		chips = chips[1:]
	case 256:
		chips = []config.Chip{config.Chip256()}
	default:
		fmt.Fprintln(os.Stderr, "rcsweep: -chip must be 16, 64 or 256")
		return 1
	}

	report := map[string]any{}
	emit := func(key string, v formatter) {
		if *jsonOut {
			report[key] = v
		} else {
			fmt.Println(v.Format())
		}
	}
	// emitErr surfaces an unavailable report without killing the sweep.
	emitErr := func(key string, v formatter, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcsweep: %s unavailable: %v\n", key, err)
			return
		}
		emit(key, v)
	}
	finish := func() int {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				fmt.Fprintf(os.Stderr, "rcsweep: %v\n", err)
				return 1
			}
		}
		if failed > 0 {
			return 1
		}
		return 0
	}

	want := func(name string) bool { return *which == "all" || *which == name }

	// Table 6 needs no simulation.
	if want("table6") {
		emit("table6", exp.Table6Compute())
	}
	if *which == "table6" {
		return finish()
	}

	// The extension experiments run their own cell lists.
	ext := func(key string, v formatter, failures []exp.FailureReport) {
		emit(key, v)
		note(exp.FormatFailures(failures))
	}
	switch *which {
	case "load":
		for _, c := range chips {
			ls := exp.LoadSweepRun(ctx, c, []float64{0.5, 1, 2, 4, 8, 16}, scale, pol)
			ext("load_"+c.Name, ls, ls.Failures)
		}
		return finish()
	case "ablate":
		for _, c := range chips {
			ac := exp.AblateCircuitsPerPort(ctx, c, []int{1, 2, 3, 5, 8}, scale, pol)
			ext("ablate_circuits_"+c.Name, ac, ac.Failures)
			as := exp.AblateSlack(ctx, c, []int{0, 1, 2, 4, 8}, scale, pol)
			ext("ablate_slack_"+c.Name, as, as.Failures)
		}
		return finish()
	case "scale":
		ss := exp.ScaleSweepRun(ctx, []int{4, 6, 8}, scale, pol)
		ext("scale", ss, ss.Failures)
		return finish()
	case "compare":
		for _, c := range chips {
			cr := exp.CompareRun(ctx, c, scale, pol)
			ext("compare_"+c.Name, cr, cr.Failures)
		}
		return finish()
	case "tail":
		for _, c := range chips {
			tl := exp.TailRun(ctx, c, scale, pol)
			ext("tail_"+c.Name, tl, tl.Failures)
		}
		return finish()
	case "ci":
		for _, c := range chips {
			ci := exp.CIRun(ctx, c, []string{"Complete_NoAck", "SlackDelay_1_NoAck"}, 5, scale, pol)
			ext("ci_"+c.Name, ci, ci.Failures)
		}
		return finish()
	}

	for _, c := range chips {
		t0 := time.Now()
		if !*jsonOut {
			fmt.Printf("==== %s chip (%d runs x %d ops/core) ====\n",
				c.Name, len(sweepVariants)*len(scale.Workloads()), scale.MeasureOps)
		}
		sweep := exp.RunSweepCtx(ctx, c, sweepVariants, scale, pol)
		if !*jsonOut {
			fmt.Printf("sweep finished in %v\n\n", time.Since(t0).Round(time.Millisecond))
		}

		big := c.Nodes() == 64 || len(chips) == 1
		if want("table1") && big {
			t1, err := exp.Table1From(sweep)
			emitErr("table1", t1, err)
		}
		if want("table5") && big {
			emit("table5", exp.Table5From(sweep, "Complete_NoAck"))
		}
		if want("fig6") {
			emit("fig6_"+c.Name, exp.Fig6From(sweep))
		}
		if want("fig7") {
			emit("fig7_"+c.Name, exp.Fig7From(sweep))
		}
		if want("fig8") {
			f8, err := exp.Fig8From(sweep)
			emitErr("fig8_"+c.Name, f8, err)
		}
		if want("fig9") {
			f9, err := exp.Fig9From(sweep)
			emitErr("fig9_"+c.Name, f9, err)
		}
		if want("fig10") && big {
			f10, err := exp.Fig10From(sweep, "SlackDelay_1_NoAck")
			emitErr("fig10", f10, err)
		}
		if *jsonOut && len(sweep.Failures) > 0 {
			report["failures_"+c.Name] = sweep.Failures
		}
		note(sweep.FailureSummary())
	}
	return finish()
}
