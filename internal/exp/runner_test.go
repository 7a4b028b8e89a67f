package exp

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
)

// outcome is what a test needs from any experiment: the report rcsweep
// prints and marshals, how many rows it folded, and its failure list.
type outcome struct {
	text     string
	report   any
	rows     int
	failures []FailureReport
}

// runners drives every experiment of the package through the one cell
// runner at a small size: the paper's sweep plus the seven extensions.
var runners = []struct {
	name string
	run  func(ctx context.Context, scale Scale, pol Policy) outcome
}{
	{"sweep", func(ctx context.Context, scale Scale, pol Policy) outcome {
		vs := []config.Variant{mustVariant("Baseline"), mustVariant("Complete_NoAck")}
		scale.Apps = 3
		s := RunSweepCtx(ctx, config.Chip16(), vs, scale, pol)
		f6, f7 := Fig6From(s), Fig7From(s)
		rows := 0
		for _, byApp := range s.Res {
			rows += len(byApp)
		}
		return outcome{f6.Format() + f7.Format(), []any{f6, f7}, rows, s.Failures}
	}},
	{"load", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := LoadSweepRun(ctx, config.Chip16(), []float64{1, 8}, scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"ablate-circuits", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := AblateCircuitsPerPort(ctx, config.Chip16(), []int{1, 5}, scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"ablate-slack", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := AblateSlack(ctx, config.Chip16(), []int{0, 4}, scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"scale", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := ScaleSweepRun(ctx, []int{3, 4}, scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"compare", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := CompareRun(ctx, config.Chip16(), scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"tail", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := TailRun(ctx, config.Chip16(), scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
	{"ci", func(ctx context.Context, scale Scale, pol Policy) outcome {
		r := CIRun(ctx, config.Chip16(), []string{"Complete_NoAck", "SlackDelay_1_NoAck"}, 2, scale, pol)
		return outcome{r.Format(), r, len(r.Rows), r.Failures}
	}},
}

func runnerScale(workers int) Scale { return Scale{MeasureOps: 300, Seed: 1, Workers: workers} }

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// memo simulates each distinct spec once and replays it afterwards, so
// tests that rerun an experiment many times pay for one pass. calls counts
// executor invocations; poisoned (when set) decides what a cell armed
// through Policy.FaultFor does instead of running.
type memo struct {
	mu       sync.Mutex
	done     map[string]*chip.Results
	calls    atomic.Int64
	poisoned func() error
}

func (m *memo) run(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
	m.calls.Add(1)
	if spec.Fault != nil {
		return nil, m.poisoned()
	}
	key := spec.Fingerprint()
	m.mu.Lock()
	r := m.done[key]
	m.mu.Unlock()
	if r != nil {
		return r, nil
	}
	r, err := chip.RunCtx(ctx, spec)
	if err == nil {
		m.mu.Lock()
		if m.done == nil {
			m.done = map[string]*chip.Results{}
		}
		m.done[key] = r
		m.mu.Unlock()
	}
	return r, err
}

// specOrder lists an experiment's cells as runCells receives them: every
// cell fails under a refusing executor, and failures come back in spec
// order.
func specOrder(run func(context.Context, Scale, Policy) outcome) []FailureReport {
	refuse := Policy{Run: func(context.Context, chip.Spec) (*chip.Results, error) {
		return nil, errors.New("refused")
	}}
	return run(context.Background(), runnerScale(1), refuse).failures
}

// poisonCells arms the cells named by (variant, workload) of picks.
func poisonCells(picks ...FailureReport) func(variant, workload string) *fault.Plan {
	return func(variant, workload string) *fault.Plan {
		for _, p := range picks {
			if p.Variant == variant && p.Workload == workload {
				return &fault.Plan{Class: fault.FlipBuiltBit}
			}
		}
		return nil
	}
}

// cellKeys reduces failure reports to the identity of their cells.
func cellKeys(fs []FailureReport) [][3]any {
	var out [][3]any
	for _, f := range fs {
		out = append(out, [3]any{f.Variant, f.Workload, f.Seed})
	}
	return out
}

// TestWorkersDoNotMoveReports: completion order must not reach a report.
func TestWorkersDoNotMoveReports(t *testing.T) {
	for _, tc := range runners {
		t.Run(tc.name, func(t *testing.T) {
			one := tc.run(context.Background(), runnerScale(1), DefaultPolicy())
			two := tc.run(context.Background(), runnerScale(2), DefaultPolicy())
			if one.rows == 0 || len(one.failures) != 0 {
				t.Fatalf("%d rows, failures:\n%s", one.rows, FormatFailures(one.failures))
			}
			if one.text != two.text {
				t.Errorf("Format differs between 1 and 2 workers:\n%s\n%s", one.text, two.text)
			}
			if a, b := marshal(t, one.report), marshal(t, two.report); a != b {
				t.Errorf("JSON differs between 1 and 2 workers:\n%s\n%s", a, b)
			}
		})
	}
}

// TestSweepCancellation: a cancelled context reaches every experiment — no
// cell starts, no row is folded, nothing panics on the empty result slice.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := RunSweepCtx(ctx, config.Chip16(), []config.Variant{}, tinyScale(), DefaultPolicy())
	if len(s.Res) != 0 {
		t.Fatal("cancelled sweep still has variant maps to fill")
	}
	for _, tc := range runners {
		t.Run(tc.name, func(t *testing.T) {
			var m memo
			pol := DefaultPolicy()
			pol.Run = m.run
			got := tc.run(ctx, runnerScale(2), pol)
			if got.rows != 0 || m.calls.Load() != 0 {
				t.Fatalf("cancelled run folded %d rows from %d executed cells", got.rows, m.calls.Load())
			}
		})
	}
}

// TestFailuresInSpecOrder poisons two cells and makes whichever is reached
// first finish last: the failure list must still be in spec order.
func TestFailuresInSpecOrder(t *testing.T) {
	for _, tc := range runners {
		t.Run(tc.name, func(t *testing.T) {
			order := specOrder(tc.run)
			pol := Policy{FaultFor: poisonCells(order[1], order[len(order)-1])}
			var want []FailureReport
			for _, f := range order {
				if pol.FaultFor(f.Variant, f.Workload) != nil {
					want = append(want, f)
				}
			}
			var m memo
			pol.Run = m.run
			for rep := 0; rep < 10; rep++ {
				var first sync.Once
				second := make(chan struct{})
				var release sync.Once
				m.poisoned = func() error {
					held := false
					first.Do(func() { held = true })
					if held {
						<-second // the other worker reaches a later poisoned cell
					} else {
						release.Do(func() { close(second) })
					}
					return errors.New("poisoned")
				}
				got := tc.run(context.Background(), runnerScale(2), pol)
				if !reflect.DeepEqual(cellKeys(got.failures), cellKeys(want)) {
					t.Fatalf("repeat %d: failures %v, want spec order %v", rep, cellKeys(got.failures), cellKeys(want))
				}
			}
		})
	}
}

// TestFailFastStopsScheduling: with one worker, the first failing cell is
// the last cell any experiment starts.
func TestFailFastStopsScheduling(t *testing.T) {
	for _, tc := range runners {
		t.Run(tc.name, func(t *testing.T) {
			order := specOrder(tc.run)
			m := memo{poisoned: func() error { return errors.New("poisoned") }}
			pol := Policy{FailFast: true, FaultFor: poisonCells(order[1]), Run: m.run}
			got := tc.run(context.Background(), runnerScale(1), pol)
			started := int64(1) // cells up to and including the first armed one
			for pol.FaultFor(order[started-1].Variant, order[started-1].Workload) == nil {
				started++
			}
			if len(got.failures) != 1 || m.calls.Load() != started {
				t.Fatalf("fail-fast recorded %d failures and started %d of %d cells, want %d",
					len(got.failures), m.calls.Load(), len(order), started)
			}
		})
	}
}

// TestReportsBitStable: folding the same runs must give the same bits.
// Fig 6/7 once summed floats in map order and CIRun in completion order.
func TestReportsBitStable(t *testing.T) {
	var m memo
	pol := DefaultPolicy()
	pol.Run = m.run
	vs := []config.Variant{mustVariant("Baseline"), mustVariant("Complete_NoAck"), mustVariant("SlackDelay_1_NoAck")}
	s := RunSweepCtx(context.Background(), config.Chip16(), vs, Scale{MeasureOps: 300, Apps: 6, Seed: 1}, pol)
	fold := func() string {
		ci := CIRun(context.Background(), config.Chip16(), []string{"Complete_NoAck"}, 3, runnerScale(4), pol)
		return marshal(t, []any{Fig6From(s), Fig7From(s), ci})
	}
	want := fold()
	for i := 1; i < 50; i++ {
		if got := fold(); got != want {
			t.Fatalf("fold %d differs:\n%s\n%s", i, got, want)
		}
	}
}
