package sim

import "testing"

func TestRegistryCountersSumAcrossRegistrations(t *testing.T) {
	reg := NewRegistry()
	var a, b int64 = 3, 4
	reg.Counter("l1/hits", &a)
	reg.Counter("l1/hits", &b)
	if v := reg.Snapshot(0).Value("l1/hits"); v != 7 {
		t.Fatalf("summed counter = %d, want 7", v)
	}
	a += 10
	if v := reg.Snapshot(0).Value("l1/hits"); v != 17 {
		t.Fatalf("registry must read live fields: got %d, want 17", v)
	}
	if v := reg.Snapshot(0).Value("no/such"); v != 0 {
		t.Fatalf("unknown metric = %d, want 0", v)
	}
}

func TestRegistryGaugeAndKindConflict(t *testing.T) {
	reg := NewRegistry()
	level := int64(5)
	reg.Gauge("circ/open", func() int64 { return level })
	if v := reg.Snapshot(0).Value("circ/open"); v != 5 {
		t.Fatalf("gauge = %d, want 5", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge name as a counter must panic")
		}
	}()
	var c int64
	reg.Counter("circ/open", &c)
}

func TestSnapshotDeltaSubtractsCountersKeepsGauges(t *testing.T) {
	reg := NewRegistry()
	var flits int64
	level := int64(0)
	reg.Counter("noc/link_flits", &flits)
	reg.Gauge("circ/open", func() int64 { return level })

	prev := reg.Snapshot(0)
	flits, level = 100, 9
	cur := reg.Snapshot(50)
	d := reg.Delta(cur, prev)
	if d.At != 50 {
		t.Fatalf("delta At = %d, want 50", d.At)
	}
	if d.Value("noc/link_flits") != 100 {
		t.Fatalf("counter delta = %d, want 100", d.Value("noc/link_flits"))
	}
	if d.Value("circ/open") != 9 {
		t.Fatalf("gauge in delta = %d, want the level 9", d.Value("circ/open"))
	}
}

func TestSamplerWindowsPartitionTheRun(t *testing.T) {
	reg := NewRegistry()
	var ops int64
	reg.Counter("core/retired", &ops)

	s := NewSampler(reg, 10, 0)
	for now := Cycle(1); now <= 25; now++ {
		ops += 2
		s.Poll(now)
	}
	s.Flush(25)
	ws := s.Samples()
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3 (10+10+5 cycles)", len(ws))
	}
	wantAt := []Cycle{10, 20, 25}
	wantVal := []int64{20, 20, 10}
	var total int64
	for i, w := range ws {
		if w.At != wantAt[i] || w.Value("core/retired") != wantVal[i] {
			t.Fatalf("window %d = (at=%d, v=%d), want (at=%d, v=%d)",
				i, w.At, w.Value("core/retired"), wantAt[i], wantVal[i])
		}
		total += w.Value("core/retired")
	}
	if total != ops {
		t.Fatalf("windows sum to %d, want the full counter %d", total, ops)
	}
	// A second flush at the same cycle must not add an empty window.
	s.Flush(25)
	if len(s.Samples()) != 3 {
		t.Fatalf("idempotent flush added windows: %d", len(s.Samples()))
	}
}

func TestRegistryNamesKeepRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	var a, b int64
	reg.Counter("z/last", &a)
	reg.Counter("a/first", &b)
	reg.Counter("z/last", &b) // re-registration must not duplicate
	names := reg.Names()
	if len(names) != 2 || names[0] != "z/last" || names[1] != "a/first" {
		t.Fatalf("names = %v, want [z/last a/first]", names)
	}
}

// TestCounterAtReadsAtTheSnapshotCycle: a counter read through a function
// gets the snapshot's cycle, sums with same-name pointer counters and is
// differenced in windows like any counter.
func TestCounterAtReadsAtTheSnapshotCycle(t *testing.T) {
	reg := NewRegistry()
	var settled int64 = 4
	since := Cycle(10) // an open span credited only when it closes
	reg.Counter("core/stall_cycles", &settled)
	reg.CounterAt("core/stall_cycles", func(at Cycle) int64 { return at - since })
	prev := reg.Snapshot(12)
	if v := prev.Value("core/stall_cycles"); v != 6 {
		t.Fatalf("read at 12 = %d, want 4 settled + 2 open", v)
	}
	if d := reg.Delta(reg.Snapshot(20), prev); d.Value("core/stall_cycles") != 8 {
		t.Fatalf("window 12-20 = %d, want 8", d.Value("core/stall_cycles"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	reg.Gauge("core/stall_cycles", func() int64 { return 0 })
}
