// Command mutants runs the mutant catalogue (catalogue.go): each entry plants
// one known bug by replacing an exact snippet of one source file, and names
// the tests that must fail once it is in. It is how a test keeps its teeth:
// a refactor that defangs a test makes its mutant survive.
//
// For every entry the runner checks that the snippet occurs exactly once,
// writes the mutated file to a temporary directory and runs
//
//	go test -overlay=<json> -count=1 -run <regexp> <pkg>
//
// so the working tree is never edited. An entry passes only when a test
// fails or panics ("killed"). The run exits 1 when any entry's tests pass
// ("survived"), its package does not build or test ("broken"), or its
// snippet no longer occurs exactly once ("stale"). Each verdict is printed
// with its wall time.
//
// Usage, from the repository root:
//
//	go run ./cmd/mutants
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// A Mutant is one planted bug and the tests that must catch it.
type Mutant struct {
	Name     string // the bug, in a few words
	File     string // path from the repository root
	Old, New string // Old must occur exactly once in File
	Pkg      string // the package whose tests run, e.g. "./internal/cache"
	Run      string // go test -run regexp of the tests that must fail
	PR       int    // the change that introduced those tests, as CHANGES.md numbers it
}

type verdict string

const (
	killed   verdict = "killed"
	survived verdict = "survived"
	broken   verdict = "broken"
	stale    verdict = "stale"
)

func main() { os.Exit(run()) }

func run() int {
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mutants: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	start, failed := time.Now(), 0
	for _, m := range catalogue {
		t0 := time.Now()
		v, out := m.try(".", tmp)
		fmt.Printf("%-8s %5.1fs  PR %d  %s: %s\n", v, time.Since(t0).Seconds(), m.PR, m.File, m.Name)
		if v != killed {
			failed++
			fmt.Printf("%s\n", bytes.TrimSpace(out))
		}
	}
	fmt.Printf("mutants: %d of %d killed in %.0fs\n", len(catalogue)-failed, len(catalogue), time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

// mutate returns m.File's contents with the mutant planted, or an error
// when m.Old does not occur exactly once in it.
func (m Mutant) mutate(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.Old)); n != 1 {
		return nil, fmt.Errorf("%s: the old snippet occurs %d times, want 1", m.File, n)
	}
	return bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), nil
}

// try plants m under root through an overlay written to dir and runs its
// tests, returning the verdict and what explains it.
func (m Mutant) try(root, dir string) (verdict, []byte) {
	src, err := m.mutate(root)
	if err != nil {
		return stale, []byte(err.Error())
	}
	abs, err := filepath.Abs(filepath.Join(root, m.File))
	if err != nil {
		return broken, []byte(err.Error())
	}
	// The mutant keeps its file name, so compile errors name the file.
	mutant, overlay := filepath.Join(dir, filepath.Base(m.File)), filepath.Join(dir, "overlay.json")
	js, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutant}}) // strings always marshal
	if err := errors.Join(os.WriteFile(mutant, src, 0o644), os.WriteFile(overlay, js, 0o644)); err != nil {
		return broken, []byte(err.Error())
	}
	cmd := exec.Command("go", "test", "-overlay="+overlay, "-count=1", "-run", m.Run, m.Pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return classify(out, err), out
}

// classify reads a go test run's verdict from its output and exit error.
// A mutant that does not compile is never a kill, and neither is a non-zero
// exit that shows no failed test: only a failing or panicking test counts.
func classify(out []byte, err error) verdict {
	switch {
	case err == nil:
		return survived // including "[no tests to run]"
	case bytes.Contains(out, []byte("[build failed]")), bytes.Contains(out, []byte("[setup failed]")):
		return broken
	case bytes.Contains(out, []byte("--- FAIL")), bytes.Contains(out, []byte("panic: ")):
		return killed
	}
	return broken
}
