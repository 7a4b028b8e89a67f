package reactivenoc_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestCLISmoke builds the CLIs once and boots each on its smallest real
// run: exit code and the output's header/row shape are the contract scripts
// and CI steps parse. The last cases pin that removed flags and an unknown
// -exp are rejected instead of being silently accepted.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/rcsim", "./cmd/rcsweep", "./cmd/rctune", "./cmd/rcverify", "./cmd/goldengen",
		"./cmd/rcserved", "./examples/anatomy")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		name   string
		bin    string
		args   []string
		exit   int
		stdout []string // multi-line regexps, all must match
		inFile string   // when set, this file must contain stdout verbatim
		stderr string   // regexp; empty = stderr must be empty
	}{
		{
			name: "rcsim", bin: "rcsim",
			args: []string{"-chip", "16", "-variant", "Complete_NoAck", "-workload", "micro", "-warmup", "100", "-ops", "300"},
			stdout: []string{
				`\Achip: +16-core, variant Complete_NoAck, workload micro\n`,
				`^cycles: +\d+ \(IPC \d\.\d+\)$`,
				`^messages: +\d+ network `,
				`^circuits: +built \d+, undone \d+, scrounger rides \d+, eliminated acks \d+$`,
			},
		},
		{
			name: "rcsweep", bin: "rcsweep",
			args: []string{"-chip", "16", "-exp", "fig9", "-ops", "200", "-workloads", "micro"},
			stdout: []string{
				`\A==== 16-core chip \(\d+ runs x 200 ops/core\) ====\n`,
				`^Figure 9 \(16-core\): speedup over baseline$`,
				`^variant +speedup +stderr$`,
				`^Complete_NoAck +[+-]\d+\.\d+% +\d+\.\d+ *$`,
			},
		},
		{
			name: "rcsweep extension experiment", bin: "rcsweep",
			args: []string{"-chip", "16", "-exp", "tail", "-ops", "200", "-workers", "2"},
			stdout: []string{
				`\AData-reply network latency distribution \(16-core, cycles\)\n`,
				`^variant +mean +p50 +p95 +p99$`,
				`^Baseline +\d+\.\d +\d+ +\d+ +\d+ *$`,
				`^Ideal +\d+\.\d +\d+ +\d+ +\d+ *$`,
			},
		},
		{
			name: "rctune", bin: "rctune",
			args: []string{"-chip", "16", "-ops", "200", "-workloads", "micro", "-variants", "Baseline,Complete_NoAck"},
			stdout: []string{
				`\A==== 16-core chip, 200 ops/core, seed 1 ====\n`,
				`^workload +best +cycles +speedup `,
				`^micro +\S+ +\d+ +\d+\.\d+x `,
			},
		},
		{
			// The binary, its flags and the differential legs. The policy
			// gauntlet it would run first is CI's own rcverify step and the
			// differ package's conformance tests; twice in tier-1 is 40 s.
			name: "rcverify", bin: "rcverify",
			args: []string{"-faults=false", "-policies=false", "-n", "1"},
			stdout: []string{
				`\Adifferential: 1 seeds from 1 \(legs: reference, dense-kernel, no-pool\)\n`,
				`^differential: 1 seeds passed in `,
			},
		},
		{
			// The paper's shape on one 14-hop miss: the reply needs 5 cycles
			// per hop as packets (81 in the network), 2 per hop on a circuit
			// (36, on every circuit variant), and NoAck puts no ack on the wire.
			name: "anatomy", bin: "anatomy",
			stdout: []string{
				`\Aone read miss: core 0 -> L2 bank 63 \(14 hops\) on an idle 64-core chip\n`,
				`^Baseline +\d+ cy +81 cy +1$`,
				`^Complete_NoAck +\d+ cy +36 cy +0$`,
				`\n(\S+ +\d+ cy +36 cy +[01]\n){8}\n`,
			},
		},
		{
			// The printed row is the committed one, in composite-literal
			// shape ready to paste.
			name: "goldengen", bin: "goldengen",
			args:   []string{"-only", "16-core/micro/Probe"},
			stdout: []string{`\A\{"16-core", "micro", "Probe_DejaVu", (\d+, ){9}\d+\},\n\z`},
			inFile: "internal/chip/golden_test.go",
		},
		{
			name: "rcsim rejects the removed -shards flag", bin: "rcsim",
			args:   []string{"-shards", "2"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -shards\n`,
		},
		{
			name: "rcsim rejects the removed -nopool flag", bin: "rcsim",
			args:   []string{"-nopool"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -nopool\n`,
		},
		{
			name: "rcsweep rejects the removed -keep-going flag", bin: "rcsweep",
			args:   []string{"-keep-going=false"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -keep-going\n`,
		},
		{
			name: "rcserved rejects the removed -shards flag", bin: "rcserved",
			args:   []string{"-shards", "4"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -shards\n`,
		},
		{
			name: "rcsweep rejects an unknown -exp before simulating", bin: "rcsweep",
			args:   []string{"-chip", "16", "-exp", "bogus"},
			exit:   2,
			stderr: `\Arcsweep: unknown -exp "bogus" \(valid: all, table1, .*, tail, ci\)\n\z`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, tc.bin), tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exitErr *exec.ExitError
			if err != nil && !errors.As(err, &exitErr) {
				t.Fatalf("run: %v", err)
			}
			if got := cmd.ProcessState.ExitCode(); got != tc.exit {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.exit, &stdout, &stderr)
			}
			for _, re := range tc.stdout {
				if !regexp.MustCompile(`(?m)` + re).Match(stdout.Bytes()) {
					t.Errorf("stdout does not match %q:\n%s", re, &stdout)
				}
			}
			if tc.inFile != "" {
				file, err := os.ReadFile(tc.inFile)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(file, stdout.Bytes()) {
					t.Errorf("%s does not contain stdout:\n%s", tc.inFile, &stdout)
				}
			}
			if tc.stderr == "" {
				if stderr.Len() != 0 {
					t.Errorf("unexpected stderr:\n%s", &stderr)
				}
			} else if !regexp.MustCompile(tc.stderr).Match(stderr.Bytes()) {
				t.Errorf("stderr does not match %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
}
