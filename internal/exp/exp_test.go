package exp

import (
	"context"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
)

func tinyScale() Scale { return Scale{MeasureOps: 2000, Apps: 3, Seed: 1} }

func tinySweep(t *testing.T, names ...string) *Sweep {
	t.Helper()
	var vs []config.Variant
	for _, n := range names {
		v, ok := config.ByName(n)
		if !ok {
			t.Fatalf("unknown variant %s", n)
		}
		vs = append(vs, v)
	}
	return RunSweepCtx(context.Background(), config.Chip16(), vs, tinyScale(), Policy{})
}

func TestScaleWorkloads(t *testing.T) {
	q := QuickScale()
	ws := q.Workloads()
	if len(ws) != q.Apps {
		t.Fatalf("quick scale produced %d workloads, want %d", len(ws), q.Apps)
	}
	if ws[len(ws)-1].Name != "mix" {
		t.Fatal("the mix must always be included")
	}
	full := FullScale().Workloads()
	if len(full) != 22 {
		t.Fatalf("full scale has %d workloads, want 22", len(full))
	}
}

func TestSweepRunsEveryCell(t *testing.T) {
	s := tinySweep(t, "Baseline", "Complete_NoAck")
	for _, v := range s.Variants {
		for _, app := range s.AppNames() {
			if s.Res[v.Name][app] == nil {
				t.Fatalf("missing run %s/%s", v.Name, app)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	s := tinySweep(t, "Baseline")
	t1, err := Table1From(s)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Total == 0 {
		t.Fatal("no traffic")
	}
	if t1.ReplyFrac < 0.45 || t1.ReplyFrac > 0.75 {
		t.Fatalf("reply fraction %.3f implausible", t1.ReplyFrac)
	}
	if t1.EligibleFrac < 0.3 || t1.EligibleFrac > 0.8 {
		t.Fatalf("eligible-reply fraction %.3f implausible", t1.EligibleFrac)
	}
	var sum float64
	for _, v := range t1.ByType {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("type shares sum to %.3f", sum)
	}
	if !strings.Contains(t1.Format(), "L1_DATA_ACK") {
		t.Fatal("format misses message rows")
	}
}

func TestTable5Shape(t *testing.T) {
	s := tinySweep(t, "Complete_NoAck")
	t5, err := Table5From(s, "Complete_NoAck")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range t5.Ordinals {
		sum += v
	}
	sum += t5.Failed
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("ordinal shares sum to %.3f", sum)
	}
	if t5.Ordinals[0] < t5.Ordinals[1] {
		t.Fatal("first-circuit reservations should dominate (Table 5)")
	}
	if t5.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestTable6Shape(t *testing.T) {
	t6 := Table6Compute()
	if len(t6.Rows) != 3 {
		t.Fatalf("%d rows", len(t6.Rows))
	}
	byName := map[string]Table6Row{}
	for _, r := range t6.Rows {
		byName[r.Version] = r
	}
	if byName["Fragmented"].Savings16 >= 0 {
		t.Fatal("fragmented must increase area")
	}
	if !(byName["Complete"].Savings16 > byName["Complete Timed"].Savings16) {
		t.Fatal("timed circuits must save less area than plain complete")
	}
	if !strings.Contains(t6.Format(), "paper") {
		t.Fatal("format misses the paper reference")
	}
}

func TestFig6Fractions(t *testing.T) {
	s := tinySweep(t, "Baseline", "Complete_NoAck", "Timed_NoAck")
	f := Fig6From(s)
	if len(f.Rows) != 2 {
		t.Fatalf("%d rows (baseline excluded)", len(f.Rows))
	}
	for _, r := range f.Rows {
		total := r.Circuit + r.Failed + r.Undone + r.Scrounger + r.NotEligible + r.Eliminated
		if total < 0.98 || total > 1.02 {
			t.Fatalf("%s: outcome fractions sum to %.3f", r.Variant, total)
		}
	}
	// Basic timed circuits are undone more often than untimed complete.
	var comp, timed Fig6Row
	for _, r := range f.Rows {
		switch r.Variant {
		case "Complete_NoAck":
			comp = r
		case "Timed_NoAck":
			timed = r
		}
	}
	if timed.Undone <= comp.Undone {
		t.Fatalf("timed undone %.3f should exceed complete undone %.3f (Section 5.2)",
			timed.Undone, comp.Undone)
	}
}

func TestFig7LatencyDrop(t *testing.T) {
	s := tinySweep(t, "Baseline", "Complete_NoAck")
	f := Fig7From(s)
	var base, rc Fig7Row
	for _, r := range f.Rows {
		if r.Variant == "Baseline" {
			base = r
		} else {
			rc = r
		}
	}
	if rc.CircRepNet >= base.CircRepNet {
		t.Fatalf("circuit replies not faster: %.1f vs %.1f", rc.CircRepNet, base.CircRepNet)
	}
	if rc.OtherRepNet >= base.OtherRepNet {
		t.Fatalf("NoAck should collapse other-reply latency: %.1f vs %.1f",
			rc.OtherRepNet, base.OtherRepNet)
	}
}

func TestFig8And9Bands(t *testing.T) {
	s := tinySweep(t, "Baseline", "Fragmented", "Complete_NoAck")
	f8, err := Fig8From(s)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := Fig9From(s)
	if err != nil {
		t.Fatal(err)
	}
	get := func(rows []RatioRow, name string) RatioRow {
		for _, r := range rows {
			if r.Variant == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return RatioRow{}
	}
	if e := get(f8.Rows, "Complete_NoAck").Mean; e >= 1.0 || e < 0.6 {
		t.Fatalf("Complete_NoAck energy ratio %.3f out of band", e)
	}
	if e := get(f8.Rows, "Fragmented").Mean; e <= 0.95 {
		t.Fatalf("fragmented energy ratio %.3f should not show big savings", e)
	}
	if sp := get(f9.Rows, "Complete_NoAck").Mean; sp < 1.0 || sp > 1.25 {
		t.Fatalf("Complete_NoAck speedup %.3f out of band", sp)
	}
}

func TestFig10PerApp(t *testing.T) {
	s := tinySweep(t, "Baseline", "SlackDelay_1_NoAck")
	f, err := Fig10From(s, "SlackDelay_1_NoAck")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Apps) != len(s.AppNames()) {
		t.Fatalf("%d apps in fig10, want %d", len(f.Apps), len(s.AppNames()))
	}
	for i, sp := range f.Speedup {
		if sp < 0.8 || sp > 1.4 {
			t.Fatalf("%s speedup %.3f implausible", f.Apps[i], sp)
		}
	}
	if !strings.Contains(f.Format(), f.Apps[0]) {
		t.Fatal("format misses app rows")
	}
}

func TestSweepDeterminism(t *testing.T) {
	a := tinySweep(t, "Baseline")
	b := tinySweep(t, "Baseline")
	for _, app := range a.AppNames() {
		if a.Res["Baseline"][app].Cycles != b.Res["Baseline"][app].Cycles {
			t.Fatalf("sweep not deterministic for %s", app)
		}
	}
}

// TestMarkdownReport: the document carries Table 6 and every report of
// the sweep, each exactly as its table renders to markdown.
func TestMarkdownReport(t *testing.T) {
	s := tinySweep(t, "Baseline", "Complete_NoAck", "SlackDelay_1_NoAck")
	md := Markdown(s, nil)
	for _, want := range []string{"## 16-core chip: 3 variants x 3 workloads", "Table 6", "Figure 6", "Figure 7", "Complete_NoAck"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown misses %q", want)
		}
	}
	for _, r := range Reports(s, false) {
		if r.Err != nil || !strings.Contains(md, r.Value.table().markdown()) {
			t.Errorf("markdown misses %s (%v)", r.Key, r.Err)
		}
	}
	// Nil sweeps are tolerated.
	if md2 := Markdown(nil, nil); !strings.Contains(md2, "Table 6") {
		t.Error("area-only report broken")
	}
}

// ---------------------------------------------------------------------------
// Fault-tolerant sweeps: poisoned runs are contained and reported.
// ---------------------------------------------------------------------------

func TestPoisonedSweepCompletesWithPartialResults(t *testing.T) {
	vs := []config.Variant{}
	for _, n := range []string{"Baseline", "Complete_NoAck"} {
		v, _ := config.ByName(n)
		vs = append(vs, v)
	}
	// Poison exactly one cell: Complete_NoAck on the first app dies from a
	// flipped built bit; everything else must still produce results.
	apps := tinyScale().Workloads()
	poisoned := apps[0].Name
	pol := Policy{Run: poisonCells(chip.RunCtx, FailureReport{Variant: "Complete_NoAck", Workload: poisoned})}
	s := RunSweepCtx(context.Background(), config.Chip16(), vs, tinyScale(), pol)

	if len(s.Failures) != 1 {
		t.Fatalf("%d failures recorded, want exactly 1:\n%s", len(s.Failures), s.FailureSummary())
	}
	f := s.Failures[0]
	if f.Variant != "Complete_NoAck" || f.Workload != poisoned {
		t.Fatalf("failure names wrong cell: %s/%s", f.Variant, f.Workload)
	}
	if f.Err == nil || f.Err.Phase == "" || f.Err.Cycle == 0 {
		t.Fatalf("failure lacks phase/cycle: %+v", f.Err)
	}
	if f.Err.Diag == "" {
		t.Fatal("failure lacks the diagnostic dump")
	}
	if f.Seed != tinyScale().Seed || f.Err.Seed != f.Seed {
		t.Fatalf("failure names seed %d (error %d), want the spec's %d", f.Seed, f.Err.Seed, tinyScale().Seed)
	}
	// Every other cell completed.
	for _, v := range s.Variants {
		for _, app := range s.AppNames() {
			if v.Name == "Complete_NoAck" && app == poisoned {
				if s.Res[v.Name][app] != nil {
					t.Fatal("poisoned cell leaked a result into the sweep")
				}
				continue
			}
			if s.Res[v.Name][app] == nil {
				t.Fatalf("healthy cell %s/%s missing", v.Name, app)
			}
		}
	}
	if s.FailureSummary() == "" {
		t.Fatal("no failure summary rendered")
	}
	// And the report generators survive the hole.
	if _, err := Fig9From(s); err != nil {
		t.Fatalf("Fig9 unavailable despite baseline present: %v", err)
	}
	md := Markdown(s, nil)
	if !strings.Contains(md, "Run failures") {
		t.Fatal("markdown report misses the failure section")
	}
}

func TestBaselineMissingIsAnError(t *testing.T) {
	s := tinySweep(t, "Complete_NoAck")
	if _, err := s.Baseline(); err == nil {
		t.Fatal("missing baseline not reported")
	}
	if _, err := Table1From(s); err == nil {
		t.Fatal("Table1From should fail without a baseline")
	}
	if _, err := Fig8From(s); err == nil {
		t.Fatal("Fig8From should fail without a baseline")
	}
	if _, err := Fig10From(s, "Complete_NoAck"); err == nil {
		t.Fatal("Fig10From should fail without a baseline")
	}
	if _, err := Fig10From(tinySweep(t, "Baseline"), "NoSuchVariant"); err == nil {
		t.Fatal("Fig10From should fail for an unknown variant")
	}
	// The markdown report degrades instead of panicking.
	if md := Markdown(nil, s); !strings.Contains(md, "unavailable") {
		t.Fatal("markdown report should note unavailable sections")
	}
}
