// Command rcbench is the repository's standing benchmark.
//
//	rcbench                         every workload untraced, then traced; table on stderr, report JSON on stdout
//	rcbench -workload light64       one workload
//	rcbench -out r.json -trace-out spans.jsonl
//	rcbench -compare a.json b.json  apply the bounds to two reports (a the parent, b the change)
//	rcbench -workload W -seed N -seconds S -trace 0|1
//	                                one pass; last stdout line is the driver's result object
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"reactivenoc/benchmark/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 11, "input seed (seed 1 tuned the workload profiles and is held back)")
		seconds  = flag.Float64("seconds", 10, "how long each pass measures")
		trace    = flag.String("trace", "", "run one pass and print the driver's result line: 0 untraced (end-to-end metrics), 1 traced (per-layer)")
		out      = flag.String("out", "", "write the report JSON here instead of stdout")
		traceOut = flag.String("trace-out", "", "write the traced passes' spans here as JSON lines")
		quick    = flag.Bool("quick", false, "smoke-test sizes; the numbers mean nothing and -compare rejects them")
		compare  = flag.Bool("compare", false, "compare two report files: rcbench -compare parent.json change.json")
	)
	flag.Parse()

	if *compare {
		return runCompare(flag.Args())
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rcbench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	bench.ClearEngineEnv()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	opts := bench.Options{Seed: *seed, Seconds: *seconds, Quick: *quick}
	if *traceOut != "" {
		opts.Spans = bench.NewSpanLog()
	}
	writeSpans := func() bool {
		if opts.Spans == nil {
			return true
		}
		if err := opts.Spans.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			return false
		}
		return true
	}

	var names []string
	for _, w := range bench.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "rcbench: unknown workload %q\n", *workload)
		return 2
	}

	// Driver mode: one pass of one workload, result object on the last line.
	if *trace != "" {
		if len(names) != 1 || (*trace != "0" && *trace != "1") {
			fmt.Fprintln(os.Stderr, "rcbench: -trace takes 0 or 1 and needs one -workload")
			return 2
		}
		p, err := bench.RunPass(ctx, names[0], *trace == "1", opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			return 1
		}
		bench.PrintPass(os.Stderr, p)
		if p.Failed > 0 || !writeSpans() {
			return 1
		}
		line, err := bench.ContractLine(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		return 0
	}

	rep := &bench.Report{Benchmark: "rcbench", Quick: *quick, Seed: *seed, Seconds: *seconds, Host: bench.ProbeHost()}
	rep.Host.CalibMS[0] = bench.Calibrate()
	fmt.Fprintf(os.Stderr, "rcbench: %s, %d CPUs, GOMAXPROCS %d, %s, kernel %s, host.calib_ms %.1f; cleared %v\n",
		rep.Host.CPUModel, rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.CalibMS[0], rep.Host.EnvCleared)
	for _, traced := range []bool{false, true} {
		for _, name := range names {
			p, err := bench.RunPass(ctx, name, traced, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
				return 1
			}
			bench.PrintPass(os.Stderr, p)
			rep.Passes = append(rep.Passes, p)
		}
	}
	rep.Host.CalibMS[1] = bench.Calibrate()
	fmt.Fprintf(os.Stderr, "\nrcbench: host.calib_ms after the passes %.1f; %d failed operations\n", rep.Host.CalibMS[1], rep.Failed())

	b, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		b = append(b, '\n')
		if *out != "" {
			err = os.WriteFile(*out, b, 0o644)
		} else {
			_, err = os.Stdout.Write(b)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
		return 1
	}
	if !writeSpans() || rep.Failed() > 0 {
		return 1
	}
	return 0
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "rcbench: -compare takes two report files: parent.json change.json")
		return 4
	}
	var reps [2]bench.Report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %s: %v\n", path, err)
			return 4
		}
	}
	return int(bench.Compare(os.Stdout, &reps[0], &reps[1]))
}
