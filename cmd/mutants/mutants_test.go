package main

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueIsFresh keeps the catalogue moving with the code, in
// milliseconds: every snippet still occurs exactly once, every package
// exists, and every -run regexp still names a test in its package. The
// mutants themselves run in CI (go run ./cmd/mutants), not here.
func TestCatalogueIsFresh(t *testing.T) {
	root := filepath.Join("..", "..")
	tests := map[string][]string{} // package -> its Test and Fuzz functions
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	for _, m := range catalogue {
		if _, err := m.mutate(root); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		dir := filepath.Join(root, m.Pkg)
		if _, ok := tests[m.Pkg]; !ok {
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Errorf("%s: package %s has no test files", m.Name, m.Pkg)
			}
			tests[m.Pkg] = []string{}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range decl.FindAllSubmatch(src, -1) {
					tests[m.Pkg] = append(tests[m.Pkg], string(d[1]))
				}
			}
		}
		// go test matches the regexp's first /-separated element against
		// top-level test names.
		re, err := regexp.Compile(strings.SplitN(m.Run, "/", 2)[0])
		if err != nil {
			t.Errorf("%s: -run %q: %v", m.Name, m.Run, err)
			continue
		}
		named := false
		for _, name := range tests[m.Pkg] {
			named = named || re.MatchString(name)
		}
		if !named {
			t.Errorf("%s: -run %q names no test in %s", m.Name, m.Run, m.Pkg)
		}
	}
}

// TestClassify pins the verdicts on canned go test output. A mutant that
// does not compile must never count as killed, nor may a run that found no
// test to fail.
func TestClassify(t *testing.T) {
	exit1 := errors.New("exit status 1")
	for _, tc := range []struct {
		name string
		out  string
		err  error
		want verdict
	}{
		{"a test failed", "--- FAIL: TestSharers (0.00s)\n    sharers_test.go:40: Has(64) = false\nFAIL\nFAIL\treactivenoc/internal/cache\t0.012s\nFAIL\n", exit1, killed},
		{"a fuzz seed failed", "--- FAIL: FuzzKernelSchedule (0.01s)\n    --- FAIL: FuzzKernelSchedule/seed#2 (0.00s)\nFAIL\n", exit1, killed},
		{"a test panicked", "panic: cache: Fill with a line from another set [recovered]\n\ngoroutine 7 [running]:\nFAIL\treactivenoc/internal/cache\t0.010s\n", exit1, killed},
		{"the tests passed", "ok  \treactivenoc/internal/cache\t0.015s\n", nil, survived},
		{"no test matched", "ok  \treactivenoc/internal/cache\t0.004s [no tests to run]\n", nil, survived},
		{"the mutant does not compile", "# reactivenoc/internal/cache\ninternal/cache/cache.go:12:2: declared and not used: d\nFAIL\treactivenoc/internal/cache [build failed]\nFAIL\n", exit1, broken},
		{"the package cannot be set up", "# reactivenoc/internal/nope\nFAIL\treactivenoc/internal/nope [setup failed]\nFAIL\n", exit1, broken},
		{"a build failure beside a panic", "panic: x\nFAIL\treactivenoc/internal/cache [build failed]\n", exit1, broken},
		{"a non-zero exit with no failed test", "FAIL\treactivenoc/internal/cache\t0.003s\n", exit1, broken},
	} {
		if got := classify([]byte(tc.out), tc.err); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}
