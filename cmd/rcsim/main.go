// Command rcsim runs one chip configuration on one workload and prints the
// run's measurements: cycles, IPC, message mix, latency anatomy, circuit
// statistics, energy and router area.
//
// Usage:
//
//	rcsim -chip 64 -variant Complete_NoAck -workload canneal -ops 12000
//	rcsim -workload hotspot                 # adversarial generator (see -list-workloads)
//	rcsim -workload micro -record run.rctf  # dump the run as a replayable trace
//	rcsim -workload trace:run.rctf          # replay it (bit-identical results)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/prof"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/tracefeed"
)

func main() {
	chipSize := flag.Int("chip", 16, "chip size: 16, 64 or 256 cores")
	variantName := flag.String("variant", "Complete_NoAck",
		"mechanism variant: "+strings.Join(config.RegisteredNames(), ", "))
	listPolicies := flag.Bool("list-policies", false, "list every registered switching policy and exit")
	workloadName := flag.String("workload", "micro",
		"workload: a built-in profile, an adversarial generator, or trace:<path> (see -list-workloads)")
	listWorkloads := flag.Bool("list-workloads", false, "list every resolvable workload name and exit")
	record := flag.String("record", "", "dump the run's instruction streams to this path as a replayable binary trace")
	ops := flag.Int64("ops", 12000, "measured operations per core")
	warm := flag.Int64("warmup", 3000, "warm-up operations per core")
	seed := flag.Uint64("seed", 1, "workload seed")
	baseline := flag.Bool("baseline", false, "also run the baseline and report speedup/energy ratios")
	traceN := flag.Int("trace", 0, "print the last N message-lifecycle events")
	audit := flag.Bool("audit", false, "run the conservation/coherence audits after the run")
	verifyRun := flag.Bool("verify", false, "arm the online invariant oracles (internal/verify) during the run")
	verifyEvery := flag.Int64("verify-every", 0, "oracle cadence in cycles with -verify (0 = default)")
	timeout := flag.Duration("timeout", 0, "wall-clock cap for the run (0 = none)")
	// -trace is the message-lifecycle trace above, so the runtime execution
	// trace lives under -exectrace here.
	profiles := prof.Flags("exectrace")
	flag.Parse()

	if *listPolicies {
		printPolicies()
		return
	}
	if *listWorkloads {
		for _, n := range tracefeed.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}

	var c config.Chip
	switch *chipSize {
	case 16:
		c = config.Chip16()
	case 64:
		c = config.Chip64()
	case 256:
		c = config.Chip256()
	default:
		fatal("chip must be 16, 64 or 256")
	}
	v, ok := config.ByName(*variantName)
	if !ok {
		fatal("unknown variant %q (have: %s)", *variantName, strings.Join(config.RegisteredNames(), ", "))
	}
	w, werr := tracefeed.ResolveWorkload(*workloadName)
	if werr != nil {
		fatal("%v", werr)
	}

	spec := chip.DefaultSpec(c, v, w)
	spec.MeasureOps = *ops
	spec.WarmupOps = *warm
	spec.Seed = *seed
	spec.TraceCap = *traceN
	spec.Audit = *audit
	spec.Timeout = *timeout
	spec.Verify = *verifyRun
	spec.VerifyEvery = sim.Cycle(*verifyEvery)
	spec.RecordTrace = *record
	if err := profiles.Start(); err != nil {
		fatal("%v", err)
	}
	r, err := chip.Run(spec)
	if err != nil {
		fatalRun(err)
	}
	report(r)
	if *audit {
		ids, verb := chip.Identities(), "identities balance"
		if len(ids) == 1 {
			verb = "identity balances"
		}
		fmt.Printf("books: %d %s\n  %s\n", len(ids), verb, strings.Join(ids, "\n  "))
	}
	if *record != "" {
		fmt.Printf("trace:     written to %s (replay with -workload trace:%s)\n", *record, *record)
	}
	if *traceN > 0 {
		fmt.Printf("\nlast %d lifecycle events:\n", len(r.Trace))
		for _, e := range r.Trace {
			fmt.Println("  " + e.String())
		}
	}

	if *baseline && v.Name != "Baseline" {
		bv, _ := config.ByName("Baseline")
		bspec := spec
		bspec.Variant = bv
		b, err := chip.Run(bspec)
		if err != nil {
			fatalRun(err)
		}
		fmt.Printf("\nvs baseline: speedup %+.2f%%  energy %.3fx  area savings %+.2f%%\n",
			(r.Speedup(b)-1)*100, r.Energy.Total()/b.Energy.Total(), r.AreaSavings*100)
	}
	if err := profiles.Stop(); err != nil {
		fatal("%v", err)
	}
}

// printPolicies lists every registered switching policy with its
// representative variant and the sweep columns that exercise it.
func printPolicies() {
	for _, name := range config.PolicyNames() {
		rep, _ := config.VariantForPolicy(name) // every policy has one
		var cols []string
		for _, v := range config.VariantsForPolicy(name) {
			cols = append(cols, v.Name)
		}
		fmt.Printf("%-16s representative %-18s sweep columns: %s\n",
			name, rep.Name, strings.Join(cols, ", "))
	}
}

func report(r *chip.Results) {
	fmt.Printf("chip:      %s, variant %s, workload %s\n",
		r.Spec.Chip.Name, r.Spec.Variant.Name, r.Spec.Workload.Name)
	fmt.Printf("cycles:    %d (IPC %.3f)\n", r.Cycles, r.IPC())
	memops := r.L1Hits + r.L1Misses
	fmt.Printf("L1:        %.2f%% miss (%d of %d)   L2: %d misses\n",
		100*float64(r.L1Misses)/float64(memops), r.L1Misses, memops, r.L2Misses)
	total, reqs := r.Msgs.Totals()
	fmt.Printf("messages:  %d network (%.1f%% requests / %.1f%% replies), %.3f flits/node/cycle injected\n",
		total, 100*float64(reqs)/float64(total), 100-100*float64(reqs)/float64(total), injRate(r))
	for t := coherence.MsgGetS; t <= coherence.MsgFwdMiss; t++ {
		if n := r.Msgs.Count(t); n > 0 {
			rec := r.Lat.TypeRecord(t)
			fmt.Printf("  %-16v %8d  (%4.1f%%)  %6.1f+%.1f cy\n",
				t, n, 100*r.Msgs.Fraction(t), rec.Network.Mean(), rec.Queueing.Mean())
		}
	}
	fmt.Printf("latency:   requests %.1f+%.1f  circuit-replies %.1f+%.1f  other %.1f+%.1f (net+queue cycles)\n",
		r.Lat.Requests.Network.Mean(), r.Lat.Requests.Queueing.Mean(),
		r.Lat.CircuitReplies.Network.Mean(), r.Lat.CircuitReplies.Queueing.Mean(),
		r.Lat.OtherReplies.Network.Mean(), r.Lat.OtherReplies.Queueing.Mean())
	fmt.Printf("latency:   data replies p50/p95/p99 = %d/%d/%d cycles\n",
		r.Lat.ReplyPercentile(0.5), r.Lat.ReplyPercentile(0.95), r.Lat.ReplyPercentile(0.99))
	fmt.Printf("energy:    %.0f pJ dynamic (buffers %.0f, xbar %.0f, links %.0f, arb %.0f, circuits %.0f) + %.0f pJ static\n",
		r.Energy.Dynamic, r.Energy.Buffers, r.Energy.Crossbars, r.Energy.Links,
		r.Energy.Arbiters, r.Energy.Circuits, r.Energy.Static)
	fmt.Printf("area:      router area savings %+.2f%% vs baseline\n", r.AreaSavings*100)
	if r.Circ != nil {
		fmt.Printf("circuits:  built %d, undone %d, scrounger rides %d, eliminated acks %d\n",
			r.Circ.CircuitsBuilt, r.Circ.CircuitsUndone, r.Circ.ScroungerRides, r.Circ.EliminatedAcks)
		for o := core.OutcomeCircuit; o <= core.OutcomeEliminated; o++ {
			fmt.Printf("  %-14s %.1f%%\n", o.String(), 100*r.Circ.OutcomeFraction(o))
		}
	}
}

// injRate is injected flits per node per cycle (the paper's load measure).
func injRate(r *chip.Results) float64 {
	var flits int64
	for t, n := range r.Msgs.Network {
		flits += n * int64(coherence.MsgType(t).SizeFlits())
	}
	return float64(flits) / float64(r.Cycles) / float64(r.Spec.Chip.Nodes())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rcsim: "+format+"\n", args...)
	os.Exit(1)
}

// fatalRun prints a failed run with its full diagnostics (network state
// dump, trace tail, injected faults) when the error carries them.
func fatalRun(err error) {
	if re := chip.AsRunError(err); re != nil {
		fatal("run failed: %s", re.Verbose())
	}
	fatal("run failed: %v", err)
}
