// Process-level chaos: real rcserved binaries, real sockets, real SIGKILL.
// The in-process suite (chaos_e2e_test.go) covers the protocol; this one
// proves the packaging — flag wiring, advertise derivation, the embedded
// registry, and that a kill -9'd process (no drain, no journal flush, no
// TCP FIN beyond the kernel reset) costs a cluster sweep nothing.
//
// Skipped under -short: it builds cmd/rcserved and spawns four processes.
package cluster_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reactivenoc/internal/cluster"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/verify/differ"
)

// buildRCServed compiles the server binary into dir.
func buildRCServed(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "rcserved")
	cmd := exec.Command("go", "build", "-o", bin, "reactivenoc/cmd/rcserved")
	cmd.Dir = "../.." // repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build rcserved: %v\n%s", err, out)
	}
	return bin
}

// freePort grabs an ephemeral port. The tiny close-to-bind race is
// acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// proc is one spawned rcserved with its log file and base URL.
type proc struct {
	cmd *exec.Cmd
	url string
	log string
}

// spawn starts rcserved with args, logging to dir/name.log.
func spawn(t *testing.T, bin, dir, name string, args ...string) *proc {
	t.Helper()
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn %s: %v", name, err)
	}
	p := &proc{cmd: cmd, log: logPath}
	t.Cleanup(func() {
		logFile.Close()
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return p
}

// sigkill delivers the real thing and reaps the corpse.
func (p *proc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = p.cmd.Process.Wait()
}

// dumpLog attaches a process log to the test output on failure.
func (p *proc) dumpLog(t *testing.T) {
	if b, err := os.ReadFile(p.log); err == nil {
		t.Logf("---- %s ----\n%s", p.log, b)
	}
}

// scrapeCache reads a node's /v1/cache plain-text fingerprint list.
func scrapeCache(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/cache")
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			fps = append(fps, line)
		}
	}
	return fps
}

// TestClusterProcessSIGKILL: a four-process cluster (registry + three
// nodes) loses a node to kill -9 mid-sweep. The sweep completes with every
// cell bit-identical to a local run, and the surviving processes' caches
// partition the fingerprint space.
func TestClusterProcessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped under -short")
	}
	dir := t.TempDir()
	bin := buildRCServed(t, dir)

	regPort := freePort(t)
	regURL := fmt.Sprintf("http://127.0.0.1:%d", regPort)
	registry := spawn(t, bin, dir, "registry",
		"-addr", fmt.Sprintf("127.0.0.1:%d", regPort),
		"-registry", "-registry-ttl", "500ms", "-workers", "1", "-queue", "4")

	var nodes []*proc
	for i := 0; i < 3; i++ {
		port := freePort(t)
		name := fmt.Sprintf("node-%d", i)
		p := spawn(t, bin, dir, name,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-join", regURL,
			"-journal", filepath.Join(dir, name+".journal"),
			"-workers", "2")
		p.url = fmt.Sprintf("http://127.0.0.1:%d", port)
		nodes = append(nodes, p)
	}
	dumpAll := func() {
		registry.dumpLog(t)
		for _, n := range nodes {
			n.dumpLog(t)
		}
	}

	// Wait for the fleet to assemble.
	ctx := context.Background()
	assembled := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if m, ok := cluster.Probe(ctx, regURL); ok && len(m.Nodes) == 3 {
			assembled = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !assembled {
		dumpAll()
		t.Fatal("cluster never assembled 3 nodes")
	}

	scale := chaosScale()
	ref := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, exp.DefaultPolicy())
	if len(ref.Failures) > 0 {
		t.Fatalf("local reference sweep failed: %v", ref.Failures)
	}

	// SIGKILL node-0 once the fleet has demonstrably done work: poll the
	// nodes' /metrics for completed jobs while the sweep runs.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			var done int64
			for _, n := range nodes {
				if m, err := serve.NewClient(n.url).Metrics(ctx); err == nil {
					done += m["serve/jobs_done"]
				}
			}
			if done >= 3 {
				nodes[0].sigkill(t)
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	cl := cluster.NewClient(regURL, quiet)
	sweep := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, clusterPolicy(cl))
	<-killed

	if len(sweep.Failures) > 0 {
		dumpAll()
		t.Fatalf("cluster sweep failed despite handoff: %v", sweep.Failures)
	}
	for _, v := range config.Variants() {
		for _, w := range scale.Workloads() {
			got, want := sweep.Res[v.Name][w.Name], ref.Res[v.Name][w.Name]
			if got == nil {
				t.Fatalf("missing cell %s/%s", v.Name, w.Name)
			}
			if err := differ.Diff(want, got, nil); err != nil {
				t.Fatalf("cell %s/%s diverged from local run: %v", v.Name, w.Name, err)
			}
		}
	}

	// A second pass re-homes the dead process's keyspace, after which the
	// two survivors hold exactly one copy of every sweep fingerprint.
	again := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, clusterPolicy(cl))
	if len(again.Failures) > 0 {
		dumpAll()
		t.Fatalf("second pass failed: %v", again.Failures)
	}
	holders := map[string]int{}
	for _, n := range nodes[1:] {
		for _, fp := range scrapeCache(t, n.url) {
			holders[fp]++
		}
	}
	for _, spec := range sweepSpecs(scale) {
		if got := holders[spec.Fingerprint()]; got != 1 {
			dumpAll()
			t.Fatalf("fingerprint %.12s held by %d survivors, want exactly 1", spec.Fingerprint(), got)
		}
	}

	// The registry classifies the kill as an expiry once the dead node's
	// heartbeat ages past the TTL — which can be after both sweeps finish,
	// so poll rather than read once.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		resp, err := http.Get(regURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "cluster/expiries 0\n") {
			return
		}
		if time.Now().After(deadline) {
			dumpAll()
			t.Fatalf("SIGKILL never became a TTL expiry:\n%s", body)
		}
	}
}
