package exp

import (
	"context"
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/stats"
	"reactivenoc/internal/workload"
)

// ---------------------------------------------------------------------------
// Tail latency: circuits don't just move the mean, they cut the tail.
// ---------------------------------------------------------------------------

// Tail reports data-reply network-latency percentiles per variant.
type Tail struct {
	Chip     config.Chip
	Rows     []TailRow
	Failures []FailureReport
}

// TailRow is one variant's distribution summary (cycles).
type TailRow struct {
	Variant       string
	Mean          float64
	P50, P95, P99 int64
}

// TailRun measures the key variants on one workload.
func TailRun(ctx context.Context, c config.Chip, scale Scale, pol Policy) *Tail {
	t := &Tail{Chip: c}
	var specs []chip.Spec
	for _, v := range config.KeyVariants() {
		specs = append(specs, scale.spec(c, v, workload.Micro()))
	}
	var res []*chip.Results
	res, t.Failures = runCells(ctx, pol, scale.Workers, specs)
	for i, r := range res {
		if r == nil {
			continue
		}
		t.Rows = append(t.Rows, TailRow{
			Variant: specs[i].Variant.Name,
			Mean:    r.Lat.CircuitReplies.Network.Mean(),
			P50:     r.Lat.ReplyPercentile(0.50),
			P95:     r.Lat.ReplyPercentile(0.95),
			P99:     r.Lat.ReplyPercentile(0.99),
		})
	}
	return t
}

// Format renders the percentile table.
func (t *Tail) Format() string {
	tb := &table{header: []string{"variant", "mean", "p50", "p95", "p99"}}
	for _, r := range t.Rows {
		tb.add(r.Variant, fmt.Sprintf("%.1f", r.Mean),
			fmt.Sprintf("%d", r.P50), fmt.Sprintf("%d", r.P95), fmt.Sprintf("%d", r.P99))
	}
	return fmt.Sprintf("Data-reply network latency distribution (%s, cycles)\n%s", t.Chip.Name, tb.String()) +
		FormatFailures(t.Failures)
}

// ---------------------------------------------------------------------------
// Confidence intervals across seeds (the paper quotes 95% margins under 2%
// at 64 cores and under 5% at 16 cores).
// ---------------------------------------------------------------------------

// CI reports speedup means with 95% confidence half-widths, measured
// across (workload x seed) replicas.
type CI struct {
	Chip     config.Chip
	Seeds    int
	Rows     []CIRow
	Failures []FailureReport
}

// CIRow is one variant's aggregate.
type CIRow struct {
	Variant string
	Mean    float64
	CI95    float64 // half-width, absolute speedup units
}

// CIRun measures speedups across seeds for the given variants: replica k
// runs under scale.Seed+k, and each (workload, seed) replica's baseline
// run is shared by every variant.
func CIRun(ctx context.Context, c config.Chip, variants []string, seeds int, scale Scale, pol Policy) *CI {
	ci := &CI{Chip: c, Seeds: seeds}
	apps := []workload.Profile{workload.Micro(), workload.Multiprogrammed()}
	// One block of len(apps)*seeds replicas per variant, the baseline's first.
	var specs []chip.Spec
	for _, name := range append([]string{"Baseline"}, variants...) {
		v := mustVariant(name)
		for _, w := range apps {
			for k := 0; k < seeds; k++ {
				spec := scale.spec(c, v, w)
				spec.Seed += uint64(k)
				specs = append(specs, spec)
			}
		}
	}
	var res []*chip.Results
	res, ci.Failures = runCells(ctx, pol, scale.Workers, specs)
	block := len(apps) * seeds
	for i, name := range variants {
		var sample stats.Sample
		for j, b := range res[:block] {
			if r := res[(1+i)*block+j]; r != nil && b != nil {
				sample.Add(r.Speedup(b))
			}
		}
		// Like ratioRows: no surviving (variant, baseline) replica, no row.
		if sample.N() > 0 {
			ci.Rows = append(ci.Rows, CIRow{Variant: name, Mean: sample.Mean(), CI95: sample.CI95()})
		}
	}
	return ci
}

// Format renders the confidence table.
func (ci *CI) Format() string {
	tb := &table{header: []string{"variant", "speedup", "95% CI"}}
	for _, r := range ci.Rows {
		tb.add(r.Variant,
			speedupPct(r.Mean),
			fmt.Sprintf("±%.2f%%", r.CI95*100))
	}
	return fmt.Sprintf("Speedup confidence (%s, %d seeds x 2 workloads)\n%s", ci.Chip.Name, ci.Seeds, tb.String()) +
		"paper: margins of error at 95% confidence below 2% (64 cores) and 5% (16 cores)\n" +
		FormatFailures(ci.Failures)
}
