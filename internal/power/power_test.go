package power

import (
	"testing"

	"reactivenoc/internal/core"
	"reactivenoc/internal/noc"
)

func opts(m core.Mechanism, maxPerPort int, timed bool, slack int) core.Options {
	o := core.Options{Mechanism: m, MaxCircuitsPerPort: maxPerPort}
	if timed {
		o.Timed = true
		o.SlackPerHop = slack
	}
	return o
}

func TestBaselineAreaDominatedByBuffers(t *testing.T) {
	rc := ConfigFor(16, core.Options{})
	buffers := float64(4*ports*bufDepth*flitBits) * sramBit
	frac := buffers / rc.RouterArea()
	if frac < 0.55 || frac > 0.75 {
		t.Fatalf("buffer share of router area %.2f outside the DSENT-plausible band", frac)
	}
}

func TestTable6AreaBands(t *testing.T) {
	// The paper's Table 6: Fragmented -19.28%/-18.96%, Complete
	// +6.21%/+5.77%, Complete Timed +3.38%/+1.09% (16/64 cores). The
	// model must land in the same bands with the same ordering.
	cases := []struct {
		name   string
		o      core.Options
		nodes  int
		lo, hi float64
	}{
		{"fragmented16", opts(core.MechFragmented, 2, false, 0), 16, -0.25, -0.14},
		{"fragmented64", opts(core.MechFragmented, 2, false, 0), 64, -0.25, -0.14},
		{"complete16", opts(core.MechComplete, 5, false, 0), 16, 0.04, 0.09},
		{"complete64", opts(core.MechComplete, 5, false, 0), 64, 0.03, 0.08},
		{"timed16", opts(core.MechComplete, 5, true, 1), 16, 0.005, 0.05},
		{"timed64", opts(core.MechComplete, 5, true, 1), 64, 0.001, 0.045},
	}
	for _, c := range cases {
		got := AreaSavings(c.nodes, c.o)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: area savings %.4f outside [%v, %v]", c.name, got, c.lo, c.hi)
		}
	}
}

func TestAreaOrderings(t *testing.T) {
	for _, nodes := range []int{16, 64} {
		frag := AreaSavings(nodes, opts(core.MechFragmented, 2, false, 0))
		comp := AreaSavings(nodes, opts(core.MechComplete, 5, false, 0))
		timed := AreaSavings(nodes, opts(core.MechComplete, 5, true, 1))
		if !(frag < 0) {
			t.Errorf("%d nodes: fragmented must increase area, got savings %.4f", nodes, frag)
		}
		if !(comp > timed && timed > 0) {
			t.Errorf("%d nodes: want complete (%.4f) > timed (%.4f) > 0", nodes, comp, timed)
		}
	}
	// Bigger chips store wider identifiers: savings shrink with size.
	if AreaSavings(64, opts(core.MechComplete, 5, false, 0)) >= AreaSavings(16, opts(core.MechComplete, 5, false, 0)) {
		t.Error("complete-circuit savings should shrink from 16 to 64 cores")
	}
	if AreaSavings(64, opts(core.MechComplete, 5, true, 1)) >= AreaSavings(16, opts(core.MechComplete, 5, true, 1)) {
		t.Error("timed savings should shrink from 16 to 64 cores")
	}
}

func TestBaselineSavingsZero(t *testing.T) {
	if s := AreaSavings(16, core.Options{}); s != 0 {
		t.Fatalf("baseline vs itself should be 0, got %v", s)
	}
}

func TestTimerBitsGrowWithChipAndSlack(t *testing.T) {
	small := ConfigFor(16, opts(core.MechComplete, 5, true, 0))
	big := ConfigFor(64, opts(core.MechComplete, 5, true, 0))
	if big.TimerBits < small.TimerBits {
		t.Fatalf("timer bits shrank with chip size: %d vs %d", small.TimerBits, big.TimerBits)
	}
	slacked := ConfigFor(64, opts(core.MechComplete, 5, true, 4))
	if slacked.TimerBits < big.TimerBits {
		t.Fatal("slack should widen reservation counters")
	}
}

func TestNetworkEnergyComponents(t *testing.T) {
	ev := &noc.PowerEvents{BufWrites: 100, BufReads: 100, XbarTraversals: 150, LinkFlits: 150}
	e := NetworkEnergy(ev, 16, core.Options{}, 10000)
	if e.Dynamic <= 0 || e.Static <= 0 {
		t.Fatalf("energy components must be positive: %+v", e)
	}
	if e.Total() != e.Dynamic+e.Static {
		t.Fatal("total mismatch")
	}
	// Leakage scales with run length.
	e2 := NetworkEnergy(ev, 16, core.Options{}, 20000)
	if e2.Static <= e.Static || e2.Dynamic != e.Dynamic {
		t.Fatal("static energy must scale with cycles only")
	}
}

func TestStaticEnergyTracksArea(t *testing.T) {
	ev := &noc.PowerEvents{}
	base := NetworkEnergy(ev, 64, core.Options{}, 1000).Static
	frag := NetworkEnergy(ev, 64, opts(core.MechFragmented, 2, false, 0), 1000).Static
	comp := NetworkEnergy(ev, 64, opts(core.MechComplete, 5, false, 0), 1000).Static
	if !(frag > base && comp < base) {
		t.Fatalf("leakage ordering wrong: frag=%v base=%v comp=%v", frag, base, comp)
	}
}

func TestAreaBudgetItemization(t *testing.T) {
	base := ConfigFor(64, core.Options{}).Budget()
	if base.CircuitInfo != 0 {
		t.Fatal("baseline router has no circuit storage")
	}
	if base.Total() != ConfigFor(64, core.Options{}).RouterArea() {
		t.Fatal("budget total disagrees with RouterArea")
	}
	comp := ConfigFor(64, opts(core.MechComplete, 5, false, 0)).Budget()
	if comp.Buffers >= base.Buffers {
		t.Fatal("complete circuits must shed buffer area")
	}
	if comp.CircuitInfo <= 0 {
		t.Fatal("complete circuits need circuit-information storage")
	}
	timed := ConfigFor(64, opts(core.MechComplete, 5, true, 1)).Budget()
	if timed.CircuitInfo <= comp.CircuitInfo {
		t.Fatal("timers must grow the circuit storage")
	}
	if timed.Fixed != comp.Fixed || timed.Buffers != comp.Buffers {
		t.Fatal("timers must not change unrelated components")
	}
}

func TestEnergyComponentBreakdown(t *testing.T) {
	ev := &noc.PowerEvents{
		BufWrites: 10, BufReads: 10, XbarTraversals: 20, LinkFlits: 20,
		VAActivity: 5, SAActivity: 5, CircuitChecks: 8, CircuitWrites: 2, CreditsSent: 12,
	}
	e := NetworkEnergy(ev, 16, core.Options{}, 100)
	sum := e.Buffers + e.Crossbars + e.Links + e.Arbiters + e.Circuits + e.Credits
	if sum != e.Dynamic {
		t.Fatalf("component sum %.3f != dynamic %.3f", sum, e.Dynamic)
	}
	if e.Buffers <= 0 || e.Links <= 0 || e.Circuits <= 0 {
		t.Fatal("components missing")
	}
}

func TestIntSqrt(t *testing.T) {
	for _, c := range [][2]int{{16, 4}, {64, 8}, {15, 3}, {17, 4}, {1, 1}} {
		if got := intSqrt(c[0]); got != c[1] {
			t.Errorf("intSqrt(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestAddrBits(t *testing.T) {
	for _, c := range [][2]int{{16, 4}, {64, 6}, {1, 1}, {2, 1}, {17, 5}} {
		if got := addrBits(c[0]); got != c[1] {
			t.Errorf("addrBits(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestRouterInventories pins the inventory ConfigFor derives from each
// policy's network (core.NetConfigFor) and options — nothing here is
// restated per policy in this package. The probe comparator's row is the
// one that used to be wrong: its MaxCircuitsPerPort-deep tables were never
// charged, so it was costed as a baseline router.
func TestRouterInventories(t *testing.T) {
	for name, tc := range map[string]struct {
		o                             core.Options
		total, buffered, entries, lan int
	}{
		"baseline":    {core.Options{}, 4, 4, 0, 0},
		"speculative": {core.Options{SpeculativeRouter: true}, 4, 4, 0, 0},
		"fragmented":  {opts(core.MechFragmented, 2, false, 0), 5, 5, 2, 0},
		"dynamic-vc": {core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 3, Policy: "dynamic-vc"},
			6, 6, 3, 0},
		"dynamic-vc max 4": {core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 4, Policy: "dynamic-vc", DynVCMax: 4},
			7, 7, 4, 0},
		"complete": {opts(core.MechComplete, 5, false, 0), 4, 3, 5, 0},
		"sdm":      {core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, Policy: "sdm"}, 4, 4, 5, 4},
		"ideal":    {core.Options{Mechanism: core.MechIdeal}, 4, 4, 5, 0},
		"probe":    {opts(core.MechProbe, 5, false, 0), 4, 4, 5, 0},
	} {
		rc := ConfigFor(16, tc.o)
		if rc.TotalVCs != tc.total || rc.BufferedVCs != tc.buffered || rc.CircEntries != tc.entries || rc.LinkLanes != tc.lan {
			t.Errorf("%s: VCs %d/%d buffered, %d entries, %d lanes; want %d/%d, %d, %d", name,
				rc.TotalVCs, rc.BufferedVCs, rc.CircEntries, rc.LinkLanes, tc.total, tc.buffered, tc.entries, tc.lan)
		}
	}
	// Probe setup keeps every buffer and adds complete circuits' storage:
	// strictly more area than the baseline router.
	probe, complete := opts(core.MechProbe, 5, false, 0), opts(core.MechComplete, 5, false, 0)
	if got, want := ConfigFor(16, probe).Budget().CircuitInfo, ConfigFor(16, complete).Budget().CircuitInfo; got != want {
		t.Errorf("probe circuit storage %v, want complete's %v", got, want)
	}
	if s := AreaSavings(16, probe); s >= 0 {
		t.Errorf("probe setup must cost area, got savings %.4f", s)
	}
}

// TestSDMRouterInventory: the sdm policy keeps the full buffer complement
// (lane-paced flits wait under credit flow control), provisions the
// configured lane count (defaulting to 4), and pays for it — serdes per
// extra lane per mesh port plus a lane-index field in every circuit
// entry — so more lanes must cost strictly more area.
func TestSDMRouterInventory(t *testing.T) {
	base := core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, Policy: "sdm"}

	rc := ConfigFor(16, base)
	if rc.BufferedVCs != 4 {
		t.Fatalf("sdm BufferedVCs = %d, want 4 (packet lane keeps its buffers)", rc.BufferedVCs)
	}
	if rc.LinkLanes != 4 {
		t.Fatalf("default sdm LinkLanes = %d, want 4", rc.LinkLanes)
	}

	lanes := func(n int) RouterConfig {
		o := base
		o.SDMLanes = n
		return ConfigFor(16, o)
	}
	if got := lanes(8).LinkLanes; got != 8 {
		t.Fatalf("SDMLanes=8 gave LinkLanes=%d", got)
	}
	a2, a4, a8 := lanes(2).RouterArea(), lanes(4).RouterArea(), lanes(8).RouterArea()
	if !(a2 < a4 && a4 < a8) {
		t.Fatalf("area must grow with lane count: %v, %v, %v", a2, a4, a8)
	}

	// The lane cost lands in serdes (Fixed) and the entry's lane-index
	// bits (CircuitInfo); buffers stay the baseline complement.
	plain := ConfigFor(16, core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5})
	b4, bPlain := lanes(4).Budget(), plain.Budget()
	if b4.Fixed <= bPlain.Fixed {
		t.Fatal("lane serdes must grow the fixed logic area")
	}
	if b4.CircuitInfo <= bPlain.CircuitInfo {
		t.Fatal("lane-index bits must widen the circuit entries")
	}
	if b4.Buffers <= bPlain.Buffers {
		t.Fatal("sdm keeps the circuit VC's buffer; plain complete sheds it")
	}

	// A complete-mechanism variant without the sdm policy never slices links.
	if plain.LinkLanes != 0 {
		t.Fatalf("plain complete LinkLanes = %d, want 0 (policy leak?)", plain.LinkLanes)
	}
}

// TestDynamicVCRouterInventory: the dynamic-vc policy provisions its
// maximum reserved-VC partition in hardware — the area model must charge
// for DynVCMax buffered VCs (plus 2 request VCs and 1 ordinary reply VC),
// defaulting to 3 when the knob is unset, and more VCs must cost area.
func TestDynamicVCRouterInventory(t *testing.T) {
	base := core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 4, Policy: "dynamic-vc"}

	rc := ConfigFor(16, base)
	if rc.TotalVCs != 6 || rc.BufferedVCs != 6 {
		t.Fatalf("default dynamic-vc VCs = %d/%d, want 6/6 (3 + DynVCMax default 3)", rc.TotalVCs, rc.BufferedVCs)
	}

	wide := base
	wide.DynVCMax = 5
	rcWide := ConfigFor(16, wide)
	if rcWide.TotalVCs != 8 || rcWide.BufferedVCs != 8 {
		t.Fatalf("DynVCMax=5 VCs = %d/%d, want 8/8", rcWide.TotalVCs, rcWide.BufferedVCs)
	}
	if rcWide.RouterArea() <= rc.RouterArea() {
		t.Fatal("a wider provisioned partition must cost router area")
	}

	frag := ConfigFor(16, core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2})
	if frag.TotalVCs != 5 {
		t.Fatalf("plain fragmented VCs = %d, want 5 (policy leak?)", frag.TotalVCs)
	}
}
