// Package exp regenerates every table and figure of the paper's evaluation
// from simulation sweeps: message mixes (Table 1), circuit-reservation
// ordinals (Table 5), router area (Table 6), circuit-construction outcomes
// (Figure 6), message-latency anatomy (Figure 7), network energy
// (Figure 8) and system speedup (Figures 9 and 10).
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// Scale selects the sweep effort.
type Scale struct {
	// MeasureOps per core for each run.
	MeasureOps int64
	// Apps caps the workload list (0 = all 21 parallel apps + mix).
	Apps int
	// Seed feeds the deterministic workload generators.
	Seed uint64
	// Workers caps the concurrent runs (0 = runtime.GOMAXPROCS(0)).
	Workers int
	// Profiles, when non-empty, replaces the evaluation's workload list
	// entirely (Apps is ignored): the seam the closed-loop tuner and
	// rcsweep -workloads use to sweep adversarial generators or trace
	// replays instead of the paper's apps.
	Profiles []workload.Profile
}

// WorkersOr is the single place a requested worker count is validated:
// n when positive, runtime.GOMAXPROCS(0) for zero or negative requests.
// runCells and the simulation service's worker pool both size themselves
// through it, so such requests can never spawn an empty pool.
func WorkersOr(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// QuickScale keeps benches and smoke runs fast.
func QuickScale() Scale { return Scale{MeasureOps: 4000, Apps: 6, Seed: 1} }

// FullScale runs the whole workload suite.
func FullScale() Scale { return Scale{MeasureOps: 12000, Apps: 0, Seed: 1} }

// Workloads returns the evaluation's workload list under the scale cap:
// the parallel applications plus the multiprogrammed mix.
func (s Scale) Workloads() []workload.Profile {
	if len(s.Profiles) > 0 {
		return s.Profiles
	}
	apps := workload.Parallel()
	if s.Apps > 0 && s.Apps-1 < len(apps) {
		apps = apps[:s.Apps-1]
	}
	return append(apps, workload.Multiprogrammed())
}

// Sweep holds the results of (variant x workload) runs on one chip size.
type Sweep struct {
	Chip     config.Chip
	Variants []config.Variant
	Apps     []workload.Profile
	Scale    Scale

	// Res[variant][app] is that run's measurements; failed runs leave
	// their cell absent and are listed in Failures instead.
	Res map[string]map[string]*chip.Results

	// Failures records every failed (variant, workload) run: the sweep
	// completes with partial results instead of crashing.
	Failures []FailureReport
}

// spec is the scale's cell for (chip, variant, workload): the default spec
// at the scale's run length and seed.
func (s Scale) spec(c config.Chip, v config.Variant, w workload.Profile) chip.Spec {
	spec := chip.DefaultSpec(c, v, w)
	spec.MeasureOps = s.MeasureOps
	spec.Seed = s.Seed
	return spec
}

// RunSweepCtx executes every (variant, workload) pair, Scale.Workers at a
// time; each run itself is deterministic. Failed runs are handled per the
// policy (recorded, retried once under an alternate seed, survived).
// Cancelling the context stops scheduling new runs; results gathered so
// far are returned.
func RunSweepCtx(ctx context.Context, c config.Chip, variants []config.Variant, scale Scale, pol Policy) *Sweep {
	apps := scale.Workloads()
	s := &Sweep{Chip: c, Variants: variants, Apps: apps, Scale: scale,
		Res: map[string]map[string]*chip.Results{}}
	var specs []chip.Spec
	for _, v := range variants {
		s.Res[v.Name] = map[string]*chip.Results{}
		for _, w := range apps {
			specs = append(specs, scale.spec(c, v, w))
		}
	}
	var res []*chip.Results
	res, s.Failures = runCells(ctx, pol, scale.Workers, specs)
	for i, r := range res {
		if r != nil {
			s.Res[specs[i].Variant.Name][specs[i].Workload.Name] = r
		}
	}
	return s
}

// Baseline returns the baseline results per app; the error reports a sweep
// that ran without a Baseline variant.
func (s *Sweep) Baseline() (map[string]*chip.Results, error) {
	b, ok := s.Res["Baseline"]
	if !ok {
		return nil, fmt.Errorf("exp: sweep has no Baseline variant")
	}
	return b, nil
}

// FailureSummary renders the sweep's failure reports ("" when clean).
func (s *Sweep) FailureSummary() string { return FormatFailures(s.Failures) }

// AppNames returns the sweep's workload names in run order.
func (s *Sweep) AppNames() []string {
	out := make([]string, len(s.Apps))
	for i, a := range s.Apps {
		out[i] = a.Name
	}
	return out
}

// runs returns a variant's surviving runs in workload order. Folds that sum
// floats range over this, never over the Res map: map order varies from
// run to run and float addition does not commute in the last bits.
func (s *Sweep) runs(variant string) []*chip.Results {
	var out []*chip.Results
	for _, a := range s.Apps {
		if r := s.Res[variant][a.Name]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// table is a tiny fixed-width text-table builder shared by the reports.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func pct2(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// speedupPct renders a ratio over baseline as its signed percentage gain.
func speedupPct(ratio float64) string { return pct2(ratio - 1) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
