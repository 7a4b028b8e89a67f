package exp

import (
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/power"
	"reactivenoc/internal/stats"
)

// ---------------------------------------------------------------------------
// Table 1 — message mix
// ---------------------------------------------------------------------------

// Table1 aggregates the baseline message mix across a sweep's workloads:
// the population of the paper's Table 1 (percentage of messages that
// traverse the network, requests vs reply types).
type Table1 struct {
	Total        int64
	RequestFrac  float64
	ReplyFrac    float64
	ByType       map[string]float64
	EligibleFrac float64 // share of replies that can ride circuits
}

// Table1From computes the mix from a sweep's baseline runs. It fails when
// the sweep carries no baseline variant to aggregate.
func Table1From(s *Sweep) (*Table1, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	agg := coherence.MsgStats{}
	for _, r := range base {
		for t, n := range r.Msgs.Network {
			agg.Network[t] += n
		}
	}
	total, reqs := agg.Totals()
	t1 := &Table1{Total: total, ByType: map[string]float64{}}
	if total == 0 {
		return t1, nil
	}
	t1.RequestFrac = float64(reqs) / float64(total)
	t1.ReplyFrac = 1 - t1.RequestFrac
	var eligible, replies int64
	for t := coherence.MsgGetS; t < coherence.MsgType(len(agg.Network)); t++ {
		n := agg.Network[t]
		if n == 0 {
			continue
		}
		t1.ByType[t.String()] = float64(n) / float64(total)
		if t.IsReply() {
			replies += n
			if t.CircuitEligibleReply() {
				eligible += n
			}
		}
	}
	if replies > 0 {
		t1.EligibleFrac = float64(eligible) / float64(replies)
	}
	return t1, nil
}

// eligibleRow is Table 1's last row: the share of replies that can ride
// circuits.
const eligibleRow = "circuit-eligible (of replies)"

// Format renders the table with the paper's reference values.
func (t *Table1) Format() string { return t.table().text() }

func (t *Table1) table() *table {
	tb := &table{title: fmt.Sprintf("Table 1: message mix (%d network messages)", t.Total),
		header: []string{"class", "share"}}
	tb.add("Requests", pct(t.RequestFrac))
	tb.add("Replies", pct(t.ReplyFrac))
	for _, name := range sortedKeys(t.ByType) {
		tb.add(name, pct(t.ByType[name]))
	}
	tb.add(eligibleRow, pct(t.EligibleFrac))
	tb.paperColumn("paper (64-core)", paperTable1)
	return tb
}

// ---------------------------------------------------------------------------
// Table 5 — circuit reservation ordinals
// ---------------------------------------------------------------------------

// Table5 is the distribution of reservations over entry ordinals at the
// input ports, plus the failure share, for one variant.
type Table5 struct {
	Variant  string
	Ordinals []float64 // share of attempts that were the (i+1)-th circuit
	Failed   float64
}

// Table5From computes the distribution from the given variant's runs; it
// fails when the sweep has no such variant.
func Table5From(s *Sweep, variant string) (*Table5, error) {
	res, ok := s.Res[variant]
	if !ok {
		return nil, fmt.Errorf("exp: variant missing from sweep: %s", variant)
	}
	var ord [8]int64
	var failed int64
	for _, r := range res {
		if r.Circ == nil {
			continue
		}
		for i, n := range r.Circ.Ordinals {
			ord[i] += n
		}
		failed += r.Circ.ReserveFailedStorage + r.Circ.ReserveFailedConflict
	}
	var total int64 = failed
	for _, n := range ord {
		total += n
	}
	t5 := &Table5{Variant: variant, Ordinals: make([]float64, 5)}
	if total == 0 {
		return t5, nil
	}
	for _, n := range ord[5:] { // fold deeper ordinals into the 5th bucket
		ord[4] += n
	}
	for i := range t5.Ordinals {
		t5.Ordinals[i] = float64(ord[i]) / float64(total)
	}
	t5.Failed = float64(failed) / float64(total)
	return t5, nil
}

// Format renders the table with the paper's reference column.
func (t *Table5) Format() string { return t.table().text() }

func (t *Table5) table() *table {
	tb := &table{title: "Table 5: circuit reservations by input-port ordinal",
		header: []string{"ordinal", t.Variant, "paper (Complete_NoAck)"}}
	for i, v := range t.Ordinals {
		tb.add([]string{"1st", "2nd", "3rd", "4th", "5th"}[i], pct(v), paperTable5[i])
	}
	tb.add("failed", pct(t.Failed), paperTable5[5])
	return tb
}

// ---------------------------------------------------------------------------
// Table 6 — router area
// ---------------------------------------------------------------------------

// Table6 reports router-area savings per mechanism for both chip sizes.
type Table6 struct {
	Rows []Table6Row
}

// Table6Row is one mechanism's area delta (positive = smaller router).
type Table6Row struct {
	Version              string
	Savings16, Savings64 float64
}

// Table6Compute evaluates the analytical area model (no simulation).
func Table6Compute() *Table6 {
	t6 := &Table6{}
	for _, r := range [][2]string{{"Fragmented", "Fragmented"}, {"Complete", "Complete"}, {"Complete Timed", "Slack_1_NoAck"}} {
		v := mustVariant(r[1])
		t6.Rows = append(t6.Rows, Table6Row{r[0], power.AreaSavings(16, v.Opts), power.AreaSavings(64, v.Opts)})
	}
	return t6
}

// Format renders the table with the paper's reference values.
func (t *Table6) Format() string { return t.table().text() }

func (t *Table6) table() *table {
	tb := &table{title: "Table 6: router area savings (positive = smaller router)",
		header: []string{"version", "16 cores", "64 cores", "paper 16", "paper 64"}}
	for _, r := range t.Rows {
		ref := paperTable6[r.Version]
		tb.add(r.Version, pct2(r.Savings16), pct2(r.Savings64), ref[0], ref[1])
	}
	return tb
}

// ---------------------------------------------------------------------------
// Figure 6 — construction and use of circuits
// ---------------------------------------------------------------------------

// Fig6 is the per-variant reply-outcome breakdown.
type Fig6 struct {
	Chip string
	Rows []Fig6Row
}

// Fig6Row is one variant's Figure-6 bar.
type Fig6Row struct {
	Variant     string
	Circuit     float64
	Failed      float64
	Undone      float64
	Scrounger   float64
	NotEligible float64
	Eliminated  float64
}

// Fig6From averages each variant's outcome fractions across workloads.
func Fig6From(s *Sweep) *Fig6 {
	f := &Fig6{Chip: s.Chip.Name}
	for _, v := range s.Variants {
		if v.Name == "Baseline" {
			continue
		}
		var sum [6]float64 // circuit .. eliminated
		n := 0
		for _, r := range s.runs(v.Name) {
			if r.Circ == nil {
				continue
			}
			for i := range sum {
				sum[i] += r.Circ.OutcomeFraction(core.OutcomeCircuit + core.Outcome(i))
			}
			n++
		}
		mean(sum[:], n)
		f.Rows = append(f.Rows, Fig6Row{v.Name, sum[0], sum[1], sum[2], sum[3], sum[4], sum[5]})
	}
	return f
}

// Format renders the breakdown.
func (f *Fig6) Format() string { return f.table().text() }

func (f *Fig6) table() *table {
	tb := &table{title: fmt.Sprintf("Figure 6 (%s): reply outcomes per mechanism version", f.Chip),
		header: []string{"variant", "circuit", "failed", "undone", "scrounger", "not-elig", "eliminated"},
		notes:  []string{paperFig6}}
	for _, r := range f.Rows {
		tb.add(r.Variant, pct(r.Circuit), pct(r.Failed), pct(r.Undone),
			pct(r.Scrounger), pct(r.NotEligible), pct(r.Eliminated))
	}
	return tb
}

// ---------------------------------------------------------------------------
// Figure 7 — message latency anatomy
// ---------------------------------------------------------------------------

// Fig7 is the per-variant latency anatomy per message class.
type Fig7 struct {
	Chip string
	Rows []Fig7Row
}

// Fig7Row carries mean network and queueing latencies (cycles).
type Fig7Row struct {
	Variant                string
	ReqNet, ReqQ           float64
	CircRepNet, CircRepQ   float64
	OtherRepNet, OtherRepQ float64
}

// mean divides each of sums by n, when there were any.
func mean(sums []float64, n int) {
	for i := 0; n > 0 && i < len(sums); i++ {
		sums[i] /= float64(n)
	}
}

// Fig7From averages latency means across workloads.
func Fig7From(s *Sweep) *Fig7 {
	f := &Fig7{Chip: s.Chip.Name}
	for _, v := range s.Variants {
		var sum [6]float64 // network, queueing: requests, circuit replies, other replies
		runs := s.runs(v.Name)
		for _, r := range runs {
			for i, c := range []*stats.LatencyRecord{&r.Lat.Requests, &r.Lat.CircuitReplies, &r.Lat.OtherReplies} {
				sum[2*i] += c.Network.Mean()
				sum[2*i+1] += c.Queueing.Mean()
			}
		}
		mean(sum[:], len(runs))
		f.Rows = append(f.Rows, Fig7Row{v.Name, sum[0], sum[1], sum[2], sum[3], sum[4], sum[5]})
	}
	return f
}

// Format renders the latency table.
func (f *Fig7) Format() string { return f.table().text() }

func (f *Fig7) table() *table {
	tb := &table{title: fmt.Sprintf("Figure 7 (%s): message latency, cycles (network + queueing)", f.Chip),
		header: []string{"variant", "req net+q", "circuit-rep net+q", "other-rep net+q"}}
	for _, r := range f.Rows {
		tb.add(r.Variant,
			fmt.Sprintf("%.1f+%.1f", r.ReqNet, r.ReqQ),
			fmt.Sprintf("%.1f+%.1f", r.CircRepNet, r.CircRepQ),
			fmt.Sprintf("%.1f+%.1f", r.OtherRepNet, r.OtherRepQ))
	}
	return tb
}

// ---------------------------------------------------------------------------
// Figures 8 and 9 — normalized energy and speedup
// ---------------------------------------------------------------------------

// RatioRow is one variant's mean ratio vs baseline with its standard error
// across workloads (the paper's error bars).
type RatioRow struct {
	Variant string
	Mean    float64
	StdErr  float64
}

// Fig8 is normalized network energy per variant.
type Fig8 struct {
	Chip string
	Rows []RatioRow
}

// Fig8From computes per-app normalized energy, then averages.
func Fig8From(s *Sweep) (*Fig8, error) {
	rows, err := ratioRows(s, func(r, b *chip.Results) float64 {
		return r.Energy.Total() / b.Energy.Total()
	})
	if err != nil {
		return nil, err
	}
	return &Fig8{Chip: s.Chip.Name, Rows: rows}, nil
}

// Fig9 is speedup per variant.
type Fig9 struct {
	Chip string
	Rows []RatioRow
}

// Fig9From computes per-app speedups, then averages.
func Fig9From(s *Sweep) (*Fig9, error) {
	rows, err := ratioRows(s, func(r, b *chip.Results) float64 {
		return r.Speedup(b)
	})
	if err != nil {
		return nil, err
	}
	return &Fig9{Chip: s.Chip.Name, Rows: rows}, nil
}

// ratioRows folds per-app ratios for every non-baseline variant.
func ratioRows(s *Sweep, f func(r, b *chip.Results) float64) ([]RatioRow, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	var rows []RatioRow
	for _, v := range s.Variants {
		if v.Name == "Baseline" {
			continue
		}
		var sample stats.Sample
		for _, app := range s.AppNames() {
			if r, b := s.Res[v.Name][app], base[app]; r != nil && b != nil {
				sample.Add(f(r, b))
			}
		}
		// A variant with no surviving (variant, baseline) pairs — every run
		// failed or the sweep halted early — has no ratio to report.
		if sample.N() == 0 {
			continue
		}
		rows = append(rows, RatioRow{Variant: v.Name, Mean: sample.Mean(), StdErr: sample.StdErr()})
	}
	return rows, nil
}

// Format renders normalized energy (lower is better).
func (f *Fig8) Format() string { return f.table().text() }

func (f *Fig8) table() *table {
	tb := &table{title: fmt.Sprintf("Figure 8 (%s): network energy normalized to baseline", f.Chip),
		header: []string{"variant", "energy vs baseline", "stderr"}}
	for _, r := range f.Rows {
		tb.add(r.Variant, fmt.Sprintf("%.3f", r.Mean), fmt.Sprintf("%.3f", r.StdErr))
	}
	tb.paperColumn("paper", paperFig8[f.Chip])
	return tb
}

// Format renders speedups.
func (f *Fig9) Format() string { return f.table().text() }

func (f *Fig9) table() *table {
	tb := &table{title: fmt.Sprintf("Figure 9 (%s): speedup over baseline", f.Chip),
		header: []string{"variant", "speedup", "stderr"}}
	for _, r := range f.Rows {
		tb.add(r.Variant, speedupPct(r.Mean), fmt.Sprintf("%.3f", r.StdErr))
	}
	tb.paperColumn("paper", paperFig9[f.Chip])
	return tb
}

// ---------------------------------------------------------------------------
// Figure 10 — per-application speedup
// ---------------------------------------------------------------------------

// Fig10 is the per-application speedup of one variant.
type Fig10 struct {
	Chip    string
	Variant string
	Apps    []string
	Speedup []float64
}

// Fig10From extracts per-app speedups for the given variant.
func Fig10From(s *Sweep, variant string) (*Fig10, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	res, ok := s.Res[variant]
	if !ok {
		return nil, fmt.Errorf("exp: variant missing from sweep: %s", variant)
	}
	f := &Fig10{Chip: s.Chip.Name, Variant: variant}
	for _, app := range s.AppNames() {
		if r, b := res[app], base[app]; r != nil && b != nil {
			f.Apps = append(f.Apps, app)
			f.Speedup = append(f.Speedup, r.Speedup(b))
		}
	}
	return f, nil
}

// Format renders the per-app speedups.
func (f *Fig10) Format() string { return f.table().text() }

func (f *Fig10) table() *table {
	tb := &table{title: fmt.Sprintf("Figure 10 (%s, %s): per-application speedup", f.Chip, f.Variant),
		header: []string{"application", "speedup"}, notes: []string{paperFig10}}
	for i, app := range f.Apps {
		tb.add(app, speedupPct(f.Speedup[i]))
	}
	return tb
}
