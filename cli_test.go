package reactivenoc_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"reactivenoc/internal/serve"
)

// TestCLISmoke builds the CLIs once and boots each on its smallest real
// run: exit code and the output's header/row shape are the contract scripts
// and CI steps parse. The table's last cases pin that removed flags, an
// unknown -exp and a malformed -remote list are rejected instead of being
// silently accepted; the final case boots rcserved for real and sweeps
// against it.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nine binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/rcsim", "./cmd/rcsweep", "./cmd/rcverify", "./cmd/goldengen",
		"./cmd/rcserved", "./examples/anatomy", "./examples/trafficmap", "./examples/quickstart",
		"./examples/tailviz")
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
				// Table 6 reports savings: Complete's smaller router saves area.
				`^area: +router area savings \+6\.81% vs baseline$`,
				`^circuits: +built \d+, undone \d+, scrounger rides \d+, eliminated acks \d+$`,
			},
		},
		{
			name: "rcsweep", bin: "rcsweep",
			args: []string{"-chip", "16", "-exp", "fig9", "-ops", "200", "-workloads", "micro"},
			stdout: []string{
				`\A==== 16-core chip \(\d+ runs x 200 ops/core\) ====\n`,
				`^Figure 9 \(16-core\): speedup over baseline$`,
				`^variant +speedup +stderr +paper *$`,
				`^Complete_NoAck +[+-]\d+\.\d+% +\d+\.\d+ *$`,
			},
		},
		{
			name: "rcsweep extension experiment", bin: "rcsweep",
			args: []string{"-chip", "16", "-exp", "compare", "-ops", "200", "-workers", "2"},
			stdout: []string{
				`\ARelated-work comparison \(16-core\)\n`,
				`^design +data-reply net \(cy\) +speedup +speedup @8x load +energy +router area$`,
				`^Baseline +\d+\.\d +[+-]0\.00% +[+-]0\.00% +1\.000 +[+-]0\.00% *$`,
				`^SlackDelay_1_NoAck +\d+\.\d +[+-]\d+\.\d+% `,
			},
		},
		{
			name: "rcsweep tune experiment", bin: "rcsweep",
			args: []string{"-chip", "16", "-exp", "tune", "-ops", "200", "-workloads", "micro,hotspot"},
			stdout: []string{
				`\ATuning \(16-core\): each workload's fastest variant of the tuning grid\n`,
				`^workload +best +cycles +speedup +Timed vs Baseline +hit \(best\) +hit \(Timed\)$`,
				`^micro +\S+ +\d+ +\d\.\d{3}x +[+-]\d+\.\d% +\d+\.\d% +\d+\.\d% *$`,
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
			// trafficmap reads Router.FlitsOut: the Baseline row is exact.
			name: "trafficmap", bin: "trafficmap",
			stdout: []string{
				`\Alink utilization heat map: canneal on the 64-core chip\n`,
				`^Baseline \(cycles: 14106, hottest router forwarded 3854 flits\)$`,
				`^Complete_NoAck \(cycles: \d+, hottest router forwarded \d+ flits\)$`,
				`^  [ .:=+*#%@-]{16}$`,
			},
		},
		{
			name: "quickstart", bin: "quickstart",
			stdout: []string{
				`\Arunning micro on 16-core\.\.\.\n`,
				`^execution cycles +\d+ +\d+$`,
				`^network energy \(pJ\) +\d+ +\d+$`,
				`^Reactive Circuits: [+-]\d+\.\d+% speedup, \d+\.\d+% network energy saved, `,
			},
		},
		{
			name: "tailviz", bin: "tailviz",
			stdout: []string{
				`\Adata-reply network latency distribution: fluidanimate on the 64-core chip\n`,
				`^Baseline \(mean \d+\.\d, p95 \d+, p99 \d+ cycles\)$`,
				`^Complete_NoAck \(mean \d+\.\d, p95 \d+, p99 \d+ cycles\)$`,
				`^ +\d+- *\d+ cy +\d+ #+$`,
			},
		},
		{
			// The printed row is the committed one, in composite-literal
			// shape ready to paste.
			name: "goldengen", bin: "goldengen",
			args:   []string{"-only", "16-core/micro/Probe"},
			stdout: []string{`\A\{"16-core", "micro", "Probe_DejaVu", (\d+, ){10}\[6\]int64\{(\d+, ){5}\d+\}, (\d+, ){3}\[10\]int64\{(\d+, ){9}\d+\}\},\n\z`},
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
			name: "rcserved rejects the removed -registry flag", bin: "rcserved",
			args:   []string{"-registry"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -registry\n`,
		},
		{
			name: "rcserved rejects the removed -join flag", bin: "rcserved",
			args:   []string{"-join", "x"},
			exit:   2,
			stderr: `\Aflag provided but not defined: -join\n`,
		},
		{
			name: "rcsweep rejects a malformed -remote list before simulating", bin: "rcsweep",
			args:   []string{"-chip", "16", "-exp", "fig9", "-remote", "http://a:1,,http://b:2"},
			exit:   2,
			stderr: `\Arcsweep: -remote: cluster: empty address in "http://a:1,,http://b:2"\n\z`,
		},
		{
			name: "rcsweep rejects an unknown -exp before simulating", bin: "rcsweep",
			args:   []string{"-chip", "16", "-exp", "bogus"},
			exit:   2,
			stderr: `\Arcsweep: unknown -exp "bogus" \(valid: all, table1, .*, compare, ci, tune\)\n\z`,
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

	t.Run("rcserved serves two remote sweeps and drains", func(t *testing.T) {
		bootRCServed(t, bin)
	})
}

// bootRCServed starts rcserved on a free loopback port, runs the rcsweep
// row against it twice — stdout must match the local run's, the sweep's
// wall-clock line aside, and the second pass must come from the cache —
// then sends SIGTERM and requires a clean drain.
func bootRCServed(t *testing.T, bin string) {
	row := []string{"-chip", "16", "-exp", "fig9", "-ops", "200", "-workloads", "micro"}
	wallClock := regexp.MustCompile(`(?m)^sweep finished in \S+$`)
	sweep := func(extra ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, "rcsweep"), append(row, extra...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil || stderr.Len() != 0 {
			t.Fatalf("rcsweep %v: %v\nstderr:\n%s", extra, err, &stderr)
		}
		return wallClock.ReplaceAllString(stdout.String(), "sweep finished in T")
	}
	local := sweep()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	url := "http://" + addr

	var logs bytes.Buffer // written by the process; read once it has exited
	srv := exec.Command(filepath.Join(bin, "rcserved"), "-addr", addr, "-journal", filepath.Join(t.TempDir(), "journal"))
	srv.Stdout, srv.Stderr = &logs, &logs
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() { waitErr = srv.Wait(); close(exited) }()
	t.Cleanup(func() {
		_ = srv.Process.Kill() // already gone on the happy path
		<-exited
	})

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("rcserved never answered /healthz")
		}
	}

	for pass := 1; pass <= 2; pass++ {
		if got := sweep("-remote", url); got != local {
			t.Fatalf("remote pass %d printed\n%s\nlocal run printed\n%s", pass, got, local)
		}
	}
	m, err := serve.NewClient(url).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m["serve/cache_hits"] == 0 || m["serve/runs"] != m["serve/jobs_done"] {
		t.Fatalf("want cache hits and runs == jobs_done: cache_hits=%d runs=%d jobs_done=%d",
			m["serve/cache_hits"], m["serve/runs"], m["serve/jobs_done"])
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("rcserved did not drain within 10s")
	}
	if waitErr != nil || !strings.Contains(logs.String(), "drained: ") {
		t.Fatalf("exit: %v\nlog:\n%s", waitErr, &logs)
	}
}
