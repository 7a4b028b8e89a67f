// Process-level chaos: real rcserved binaries, real sockets, real SIGKILL.
// The in-process suite (chaos_e2e_test.go) covers the protocol; this one
// proves the packaging — that a kill -9'd process (no drain, no journal
// flush, no TCP FIN beyond the kernel reset) costs a cluster sweep nothing.
//
// Skipped under -short: it builds cmd/rcserved and spawns three processes.
package cluster_test

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
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

// dumpLog attaches a process log to the test output.
func (p *proc) dumpLog(t *testing.T) {
	if b, err := os.ReadFile(p.log); err == nil {
		t.Logf("---- %s ----\n%s", p.log, b)
	}
}

// TestClusterProcessSIGKILL runs killMidSweep on three rcserved processes,
// losing one to a real kill -9.
func TestClusterProcessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped under -short")
	}
	dir := t.TempDir()
	bin := buildRCServed(t, dir)

	var nodes []*proc
	var urls []string
	for i := 0; i < 3; i++ {
		port := freePort(t)
		name := fmt.Sprintf("node-%d", i)
		p := spawn(t, bin, dir, name,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-journal", filepath.Join(dir, name+".journal"),
			"-workers", "2")
		p.url = fmt.Sprintf("http://127.0.0.1:%d", port)
		nodes = append(nodes, p)
		urls = append(urls, p.url)
	}
	t.Cleanup(func() {
		if t.Failed() {
			for _, n := range nodes {
				n.dumpLog(t)
			}
		}
	})

	for _, n := range nodes {
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			if resp, err := http.Get(n.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became healthy", n.url)
			}
		}
	}

	killMidSweep(t, urls, func() { _ = nodes[0].cmd.Process.Kill() }) // spawn's cleanup reaps it
}
