package exp

import (
	"fmt"
	"strings"

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

// Format renders the table with the paper's reference values.
func (t *Table1) Format() string {
	tb := &table{header: []string{"class", "share", "paper (64-core)"}}
	tb.add("Requests", pct(t.RequestFrac), "47.0%")
	tb.add("Replies", pct(t.ReplyFrac), "53.0%")
	ref := map[string]string{
		"L2_Reply": "22.6%", "L1_DATA_ACK": "23.0%", "L2_WB_ACK": "4.7%",
		"L1_INV_ACK": "1.1%", "MEMORY_Data": "0.9% (with acks)", "L1_to_L1": "0.7%",
	}
	for _, name := range sortedKeys(t.ByType) {
		tb.add("  "+name, pct(t.ByType[name]), ref[name])
	}
	return fmt.Sprintf("Table 1: message mix (%d network messages)\n%s\nCircuit-eligible replies: %s (paper: 53.2%% of replies)\n",
		t.Total, tb.String(), pct(t.EligibleFrac))
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

// Table5From computes the distribution from the given variant's runs.
func Table5From(s *Sweep, variant string) *Table5 {
	res, ok := s.Res[variant]
	if !ok {
		panic("exp: variant missing from sweep: " + variant)
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
		return t5
	}
	for i := 0; i < 5; i++ {
		n := ord[i]
		if i == 4 { // fold deeper ordinals into the 5th bucket
			for j := 5; j < len(ord); j++ {
				n += ord[j]
			}
		}
		t5.Ordinals[i] = float64(n) / float64(total)
	}
	t5.Failed = float64(failed) / float64(total)
	return t5
}

// Format renders the table with the paper's reference row.
func (t *Table5) Format() string {
	tb := &table{header: []string{"", "1st", "2nd", "3rd", "4th", "5th", "failed"}}
	row := []string{t.Variant}
	for _, v := range t.Ordinals {
		row = append(row, pct(v))
	}
	row = append(row, pct(t.Failed))
	tb.add(row...)
	tb.add("paper", "48%", "24%", "7%", "6%", "6%", "9%")
	return "Table 5: circuit reservations by input-port ordinal\n" + tb.String()
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
	rows := []struct {
		name    string
		variant string
	}{
		{"Fragmented", "Fragmented"},
		{"Complete", "Complete"},
		{"Complete Timed", "Slack_1_NoAck"},
	}
	t6 := &Table6{}
	for _, r := range rows {
		v := mustVariant(r.variant)
		t6.Rows = append(t6.Rows, Table6Row{
			Version:   r.name,
			Savings16: power.AreaSavings(16, v.Opts),
			Savings64: power.AreaSavings(64, v.Opts),
		})
	}
	return t6
}

// Format renders the table with the paper's reference values.
func (t *Table6) Format() string {
	ref := map[string][2]string{
		"Fragmented":     {"-19.28%", "-18.96%"},
		"Complete":       {"+6.21%", "+5.77%"},
		"Complete Timed": {"+3.38%", "+1.09%"},
	}
	tb := &table{header: []string{"version", "16 cores", "64 cores", "paper 16", "paper 64"}}
	for _, r := range t.Rows {
		tb.add(r.Version, pct2(r.Savings16), pct2(r.Savings64), ref[r.Version][0], ref[r.Version][1])
	}
	return "Table 6: router area savings (positive = smaller router)\n" + tb.String()
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
		var row Fig6Row
		row.Variant = v.Name
		n := 0
		for _, r := range s.runs(v.Name) {
			if r.Circ == nil {
				continue
			}
			row.Circuit += r.Circ.OutcomeFraction(core.OutcomeCircuit)
			row.Failed += r.Circ.OutcomeFraction(core.OutcomeFailed)
			row.Undone += r.Circ.OutcomeFraction(core.OutcomeUndone)
			row.Scrounger += r.Circ.OutcomeFraction(core.OutcomeScrounger)
			row.NotEligible += r.Circ.OutcomeFraction(core.OutcomeNotEligible)
			row.Eliminated += r.Circ.OutcomeFraction(core.OutcomeEliminated)
			n++
		}
		if n > 0 {
			k := float64(n)
			row.Circuit /= k
			row.Failed /= k
			row.Undone /= k
			row.Scrounger /= k
			row.NotEligible /= k
			row.Eliminated /= k
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// Format renders the breakdown.
func (f *Fig6) Format() string {
	tb := &table{header: []string{"variant", "circuit", "failed", "undone", "scrounger", "not-elig", "eliminated"}}
	for _, r := range f.Rows {
		tb.add(r.Variant, pct(r.Circuit), pct(r.Failed), pct(r.Undone),
			pct(r.Scrounger), pct(r.NotEligible), pct(r.Eliminated))
	}
	return fmt.Sprintf("Figure 6 (%s): reply outcomes per mechanism version\n%s", f.Chip, tb.String())
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

// Fig7From averages latency means across workloads.
func Fig7From(s *Sweep) *Fig7 {
	f := &Fig7{Chip: s.Chip.Name}
	for _, v := range s.Variants {
		var row Fig7Row
		row.Variant = v.Name
		n := 0
		for _, r := range s.runs(v.Name) {
			row.ReqNet += r.Lat.Requests.Network.Mean()
			row.ReqQ += r.Lat.Requests.Queueing.Mean()
			row.CircRepNet += r.Lat.CircuitReplies.Network.Mean()
			row.CircRepQ += r.Lat.CircuitReplies.Queueing.Mean()
			row.OtherRepNet += r.Lat.OtherReplies.Network.Mean()
			row.OtherRepQ += r.Lat.OtherReplies.Queueing.Mean()
			n++
		}
		if n > 0 {
			k := float64(n)
			row.ReqNet /= k
			row.ReqQ /= k
			row.CircRepNet /= k
			row.CircRepQ /= k
			row.OtherRepNet /= k
			row.OtherRepQ /= k
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// Format renders the latency table.
func (f *Fig7) Format() string {
	tb := &table{header: []string{"variant", "req net+q", "circuit-rep net+q", "other-rep net+q"}}
	for _, r := range f.Rows {
		tb.add(r.Variant,
			fmt.Sprintf("%.1f+%.1f", r.ReqNet, r.ReqQ),
			fmt.Sprintf("%.1f+%.1f", r.CircRepNet, r.CircRepQ),
			fmt.Sprintf("%.1f+%.1f", r.OtherRepNet, r.OtherRepQ))
	}
	return fmt.Sprintf("Figure 7 (%s): message latency, cycles (network + queueing)\n%s", f.Chip, tb.String())
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
			r, ok := s.Res[v.Name][app]
			if !ok {
				continue
			}
			b, ok := base[app]
			if !ok {
				continue
			}
			sample.Add(f(r, b))
		}
		// A variant with no surviving (variant, baseline) pairs — every run
		// failed or the sweep halted early — has no ratio to report.
		if sample.N() == 0 {
			continue
		}
		rows = append(rows, RatioRow{Variant: v.Name, Mean: sample.Mean(), StdErr: sample.StdErr()})
	}
	// Preserve the sweep's variant order.
	ordered := make([]RatioRow, 0, len(rows))
	for _, v := range s.Variants {
		for _, r := range rows {
			if r.Variant == v.Name {
				ordered = append(ordered, r)
			}
		}
	}
	return ordered, nil
}

// Format renders normalized energy (lower is better).
func (f *Fig8) Format() string {
	tb := &table{header: []string{"variant", "energy vs baseline", "stderr"}}
	for _, r := range f.Rows {
		tb.add(r.Variant, fmt.Sprintf("%.3f", r.Mean), fmt.Sprintf("%.3f", r.StdErr))
	}
	return fmt.Sprintf("Figure 8 (%s): network energy normalized to baseline\n%s", f.Chip, tb.String()) +
		"paper: Complete_NoAck reaches 0.848 at 16 cores and 0.792 at 64 cores; Fragmented increases energy\n"
}

// Format renders speedups.
func (f *Fig9) Format() string {
	tb := &table{header: []string{"variant", "speedup", "stderr"}}
	for _, r := range f.Rows {
		tb.add(r.Variant, speedupPct(r.Mean), fmt.Sprintf("%.3f", r.StdErr))
	}
	return fmt.Sprintf("Figure 9 (%s): speedup over baseline\n%s", f.Chip, tb.String()) +
		"paper: Complete 3.8%/4.8%, SlackDelay_1 4.4%/6.0% (16/64 cores), ideal slightly above\n"
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
		r, ok := res[app]
		if !ok {
			continue
		}
		b, ok := base[app]
		if !ok {
			continue
		}
		f.Apps = append(f.Apps, app)
		f.Speedup = append(f.Speedup, r.Speedup(b))
	}
	return f, nil
}

// Format renders the per-app bars.
func (f *Fig10) Format() string {
	tb := &table{header: []string{"application", "speedup"}}
	for i, app := range f.Apps {
		bar := strings.Repeat("#", int((f.Speedup[i]-1)*400+0.5))
		tb.add(app, fmt.Sprintf("%+.2f%%  %s", (f.Speedup[i]-1)*100, bar))
	}
	return fmt.Sprintf("Figure 10 (%s, %s): per-application speedup\n%s", f.Chip, f.Variant, tb.String())
}
