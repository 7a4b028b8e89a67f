package exp

import (
	"context"
	"strings"
	"testing"

	"reactivenoc/internal/config"
)

// opsScale is the extension runners' scale at the default seed.
func opsScale(ops int64) Scale { return Scale{MeasureOps: ops, Seed: 1} }

func TestLoadSweepShape(t *testing.T) {
	ls := LoadSweepRun(context.Background(), config.Chip16(), []float64{1, 8}, opsScale(2500), Policy{})
	if len(ls.Rows) != 2 {
		t.Fatalf("%d rows", len(ls.Rows))
	}
	light, heavy := ls.Rows[0], ls.Rows[1]
	if heavy.InjRate <= light.InjRate {
		t.Fatalf("offered load did not grow: %.4f -> %.4f", light.InjRate, heavy.InjRate)
	}
	// The paper's claim: heavier load means more reservation failures for
	// untimed complete circuits, and timed circuits fail less than
	// untimed at the same load.
	if heavy.Failed["Complete_NoAck"] <= light.Failed["Complete_NoAck"] {
		t.Fatalf("untimed failures did not grow with load: %.3f -> %.3f",
			light.Failed["Complete_NoAck"], heavy.Failed["Complete_NoAck"])
	}
	if heavy.Failed["SlackDelay_1_NoAck"] >= heavy.Failed["Complete_NoAck"] {
		t.Fatalf("timed circuits should fail less under load: timed %.3f vs untimed %.3f",
			heavy.Failed["SlackDelay_1_NoAck"], heavy.Failed["Complete_NoAck"])
	}
	if !strings.Contains(ls.Format(), "flits/node") {
		t.Fatal("format misses the load column")
	}
}

func TestAblateCircuitsPerPortShape(t *testing.T) {
	ab := AblateCircuitsPerPort(context.Background(), config.Chip16(), []int{1, 5}, opsScale(2500), Policy{})
	if len(ab.Rows) != 2 {
		t.Fatalf("%d rows", len(ab.Rows))
	}
	one, five := ab.Rows[0], ab.Rows[1]
	// One entry per port starves on storage; five (the paper's choice)
	// essentially eliminates storage failures, at an area cost.
	if one.StorageFailed <= five.StorageFailed {
		t.Fatalf("storage failures should drop with more entries: %.3f vs %.3f",
			one.StorageFailed, five.StorageFailed)
	}
	// The shared fold reports undone circuits for this ablation too (the
	// column was a hard zero while each ablation had its own loop).
	if one.Undone <= 0 || five.Undone <= 0 {
		t.Fatalf("undone share not measured: %.3f / %.3f", one.Undone, five.Undone)
	}
	if one.AreaSavings <= five.AreaSavings {
		t.Fatalf("fewer entries should save more area: %.4f vs %.4f",
			one.AreaSavings, five.AreaSavings)
	}
	if !strings.Contains(ab.Format(), "circuits/port") {
		t.Fatal("format misses the parameter name")
	}
}

func TestAblateSlackShape(t *testing.T) {
	ab := AblateSlack(context.Background(), config.Chip16(), []int{0, 1, 8}, opsScale(2500), Policy{})
	if len(ab.Rows) != 3 {
		t.Fatalf("%d rows", len(ab.Rows))
	}
	zero, one, eight := ab.Rows[0], ab.Rows[1], ab.Rows[2]
	// The paper's trade-off: zero slack loses circuits to jitter (more
	// undone); too much slack occupies ports longer (more conflicts).
	if zero.Undone <= one.Undone {
		t.Fatalf("zero slack should miss more windows: %.3f vs %.3f", zero.Undone, one.Undone)
	}
	if eight.ConflictFailed <= one.ConflictFailed {
		t.Fatalf("large slack should conflict more: %.3f vs %.3f",
			eight.ConflictFailed, one.ConflictFailed)
	}
}

func TestScaleSweepShape(t *testing.T) {
	ss := ScaleSweepRun(context.Background(), []int{4, 8}, opsScale(2500), Policy{})
	small, big := ss.Rows[0], ss.Rows[1]
	if small.Nodes != 16 || big.Nodes != 64 {
		t.Fatalf("sizes %d/%d", small.Nodes, big.Nodes)
	}
	// Bigger chips build fewer circuits (Section 5.2).
	if big.Circuit["Complete_NoAck"] >= small.Circuit["Complete_NoAck"] {
		t.Fatalf("circuit share should shrink with chip size: %.3f -> %.3f",
			small.Circuit["Complete_NoAck"], big.Circuit["Complete_NoAck"])
	}
	// Timed circuits degrade more gently than untimed at 64 cores.
	if big.Failed["SlackDelay_1_NoAck"] >= big.Failed["Complete_NoAck"] {
		t.Fatal("timed circuits should fail less at scale")
	}
	if !strings.Contains(ss.Format(), "Scalability") {
		t.Fatal("format header missing")
	}
}

func TestCIRun(t *testing.T) {
	ci := CIRun(context.Background(), config.Chip16(), []string{"Complete_NoAck"}, 2, opsScale(2000), Policy{})
	if len(ci.Rows) != 1 {
		t.Fatalf("%d rows", len(ci.Rows))
	}
	r := ci.Rows[0]
	if r.Mean <= 1.0 || r.Mean > 1.2 {
		t.Fatalf("speedup %.4f out of band", r.Mean)
	}
	if r.CI95 < 0 || r.CI95 > 0.06 {
		t.Fatalf("CI %.4f outside the paper's consistency claim", r.CI95)
	}
	if !strings.Contains(ci.Format(), "95% CI") {
		t.Fatal("format misses the CI column")
	}
}

func TestCompareRun(t *testing.T) {
	cmp := CompareRun(context.Background(), config.Chip16(), opsScale(2000), Policy{})
	if len(cmp.Rows) != 5 {
		t.Fatalf("%d rows", len(cmp.Rows))
	}
	byName := map[string]CompareRow{}
	for _, r := range cmp.Rows {
		byName[r.Name] = r
	}
	// The paper's positioning: probe setup cannot beat the baseline when
	// the L2 answers fast; request-time reservation can.
	if byName["Probe_DejaVu"].Speedup >= byName["Complete_NoAck"].Speedup {
		t.Fatalf("probe setup (%.4f) should lose to request-time reservation (%.4f)",
			byName["Probe_DejaVu"].Speedup, byName["Complete_NoAck"].Speedup)
	}
	if byName["Probe_DejaVu"].Speedup > 1.02 {
		t.Fatalf("probe setup should not meaningfully beat the baseline: %.4f", byName["Probe_DejaVu"].Speedup)
	}
	if byName["Speculative"].AreaSavings != 0 {
		t.Fatal("the speculative comparator keeps every buffer")
	}
}

// TestScaleSweepRejectsHugeChips: a mesh whose tile IDs a directory cannot
// name fails every cell closed, as a failure report rather than a panic.
func TestScaleSweepRejectsHugeChips(t *testing.T) {
	ss := ScaleSweepRun(context.Background(), []int{182}, opsScale(100), Policy{})
	if len(ss.Rows) != 0 || len(ss.Failures) == 0 {
		t.Fatalf("182x182 sweep: %d rows, %d failures; want no rows and every cell failed", len(ss.Rows), len(ss.Failures))
	}
	for _, f := range ss.Failures {
		if !strings.Contains(f.Err.Error(), "a directory can name at most") {
			t.Fatalf("%s failed for another reason: %v", f.Variant, f.Err)
		}
	}
}
