package exp

import (
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/core"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

// ---------------------------------------------------------------------------
// Per-workload tuning: the argmin of a sweep over config.TuneGrid.
// ---------------------------------------------------------------------------

// TuneWorkloads is `rcsweep -exp tune`'s default rows: three stationary
// anchors (micro, canneal, mix) followed by the adversarial generator
// suite, so the report contrasts the regimes directly.
func TuneWorkloads() []workload.Profile {
	canneal, _ := workload.ByName("canneal")
	rows := []workload.Profile{workload.Micro(), canneal, workload.Multiprogrammed()}
	return append(rows, workload.Generators()...)
}

// Tune is each workload's optimum over a sweep of the tuning grid: which
// variant wins, by how much, and whether the plain timed-window predictor
// beats or loses to Baseline there.
type Tune struct {
	Chip string
	Rows []TuneRow
}

// TuneRow is one workload's optimum.
type TuneRow struct {
	Workload string
	// Best names the variant with the fewest measured cycles; Speedup is
	// Baseline cycles over Best cycles (0 when Baseline's cell failed).
	Best       string
	BestCycles sim.Cycle
	Speedup    float64
	// TimedDelta is (Timed_NoAck - Baseline) / Baseline cycles: negative
	// when the plain timed-window predictor beats the baseline, positive
	// when the workload defeats it.
	TimedDelta float64
	// BestCircuitHit and TimedCircuitHit are the shares of replies that
	// rode their own circuit (Figure 6's CIRCUIT outcome) under Best and
	// Timed_NoAck.
	BestCircuitHit  float64
	TimedCircuitHit float64
}

// TuneFrom picks each workload's fastest variant in the sweep. A workload
// whose every cell failed has no row; the sweep's Failures name its cells.
func TuneFrom(s *Sweep) (*Tune, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	hit := func(r *chip.Results) float64 {
		if r.Circ == nil {
			return 0
		}
		return r.Circ.OutcomeFraction(core.OutcomeCircuit)
	}
	t := &Tune{Chip: s.Chip.Name}
	for _, app := range s.AppNames() {
		var best *chip.Results
		row := TuneRow{Workload: app}
		for _, v := range s.Variants {
			if r := s.Res[v.Name][app]; r != nil && (best == nil || r.Cycles < best.Cycles) {
				best, row.Best = r, v.Name
			}
		}
		if best == nil {
			continue
		}
		row.BestCycles, row.BestCircuitHit = best.Cycles, hit(best)
		timed := s.Res["Timed_NoAck"][app]
		if timed != nil {
			row.TimedCircuitHit = hit(timed)
		}
		if b := base[app]; b != nil {
			row.Speedup = best.Speedup(b)
			if timed != nil {
				row.TimedDelta = float64(timed.Cycles-b.Cycles) / float64(b.Cycles)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Format renders one row per workload.
func (t *Tune) Format() string { return t.table().text() }

func (t *Tune) table() *table {
	tb := &table{title: fmt.Sprintf("Tuning (%s): each workload's fastest variant of the tuning grid", t.Chip),
		header: []string{"workload", "best", "cycles", "speedup", "Timed vs Baseline", "hit (best)", "hit (Timed)"}}
	for _, r := range t.Rows {
		tb.add(r.Workload, r.Best, fmt.Sprintf("%d", r.BestCycles), fmt.Sprintf("%.3fx", r.Speedup),
			fmt.Sprintf("%+.1f%%", r.TimedDelta*100), pct(r.BestCircuitHit), pct(r.TimedCircuitHit))
	}
	return tb
}
