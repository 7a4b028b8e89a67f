package fault

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
)

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		FlipBuiltBit:   "flip-built-bit",
		DropUndoToken:  "drop-undo-token",
		TruncateWindow: "truncate-window",
		WithholdCredit: "withhold-credit",
		StallLink:      "stall-link",
		ReorderReply:   "reorder-reply",
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() != want[c] {
			t.Errorf("class %d renders %q, want %q", c, c.String(), want[c])
		}
	}
	if Class(200).String() != "class(200)" {
		t.Errorf("out-of-range class renders %q", Class(200).String())
	}
}

func TestInjectorFiresOnceByDefault(t *testing.T) {
	j := New(Plan{Class: WithholdCredit})
	fired := 0
	for i := 0; i < 20; i++ {
		if j.WithholdCredit(mesh.NodeID(i), mesh.East, 100) {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if len(j.Events()) != 1 {
		t.Fatalf("event log has %d entries", len(j.Events()))
	}
	ev := j.Events()[0]
	if ev.Class != WithholdCredit || ev.Cycle != 100 {
		t.Fatalf("bad event %+v", ev)
	}
	if ev.String() == "" {
		t.Fatal("empty event rendering")
	}
}

func TestInjectorCount(t *testing.T) {
	j := New(Plan{Class: DropUndoToken, Count: 3})
	fired := 0
	for i := 0; i < 20; i++ {
		if j.DropUndo(0, &noc.UndoToken{}, 1) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}

func TestInjectorAfterGate(t *testing.T) {
	j := New(Plan{Class: FlipBuiltBit, After: 500})
	if j.FlipBuiltBit(0, 499) {
		t.Fatal("fired before the After gate")
	}
	if !j.FlipBuiltBit(0, 500) {
		t.Fatal("did not fire at the After gate")
	}
}

func TestInjectorRouterFilter(t *testing.T) {
	j := New(Plan{Class: FlipBuiltBit, OnRouter: 4})
	if j.FlipBuiltBit(0, 1) || j.FlipBuiltBit(7, 1) {
		t.Fatal("fired on the wrong router")
	}
	if !j.FlipBuiltBit(3, 1) {
		t.Fatal("did not fire on router 3 (OnRouter is 1-based)")
	}
}

func TestInjectorSeedVariesTarget(t *testing.T) {
	// Different seeds must be able to pick different eligible events, and
	// the same seed must always pick the same one.
	pick := func(seed uint64) int {
		j := New(Plan{Class: WithholdCredit, Seed: seed})
		for i := 0; i < 20; i++ {
			if j.WithholdCredit(mesh.NodeID(i), mesh.West, 1) {
				return i
			}
		}
		return -1
	}
	if pick(1) != pick(1) {
		t.Fatal("same seed picked different events")
	}
	first := pick(0)
	varied := false
	for seed := uint64(1); seed < 16; seed++ {
		if pick(seed) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("seed never varied the injection target")
	}
}

func TestTruncateWindowCollapsesToNow(t *testing.T) {
	j := New(Plan{Class: TruncateWindow})
	end, ok := j.TruncateWindow(2, 100, 900, 150)
	if !ok || end != 150 {
		t.Fatalf("got (%d, %v), want window end collapsed to now=150", end, ok)
	}
}

func TestStallFlitUsesPlanStall(t *testing.T) {
	j := New(Plan{Class: StallLink, Stall: 77})
	if d := j.StallFlit(1, mesh.East, 10); d != 77 {
		t.Fatalf("stall %d, want 77", d)
	}
	// Exhausted budget -> no further stalls.
	if d := j.StallFlit(1, mesh.East, 11); d != 0 {
		t.Fatalf("stall %d after budget exhausted, want 0", d)
	}
	j2 := New(Plan{Class: StallLink})
	if d := j2.StallFlit(1, mesh.East, 10); d != 1<<40 {
		t.Fatalf("default stall %d, want effectively forever", d)
	}
}
