package workload

import (
	"math"
	"testing"
	"testing/quick"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/cpu"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range Parallel() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	mix := Multiprogrammed()
	if err := mix.Validate(); err != nil {
		t.Errorf("mix: %v", err)
	}
	micro := Micro()
	if err := micro.Validate(); err != nil {
		t.Errorf("micro: %v", err)
	}
}

func TestParallelCountMatchesPaper(t *testing.T) {
	// 10 PARSEC + 11 SPLASH-2 applications.
	if n := len(Parallel()); n != 21 {
		t.Fatalf("%d parallel profiles, want 21", n)
	}
	if n := len(Names()); n != 22 {
		t.Fatalf("%d workload names, want 22 (21 apps + mix)", n)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("canneal"); !ok {
		t.Error("canneal missing")
	}
	if _, ok := ByName("mix"); !ok {
		t.Error("mix missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("phantom workload found")
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := Micro()
	a, b := p.Stream(3, 42), p.Stream(3, 42)
	for i := 0; i < 5000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("streams diverged at op %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestStreamsDifferAcrossCores(t *testing.T) {
	p := Micro()
	a, b := p.Stream(0, 1), p.Stream(1, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("cores produced %d/1000 identical ops", same)
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	p := Micro()
	regions := p.Regions(2)
	inRegion := func(a uint64) bool {
		if a >= uint64(coldBase(2)) && a < uint64(coldBase(2))+uint64(p.ColdLines*64) {
			return true
		}
		for _, r := range regions {
			if a >= uint64(r.Start) && a < uint64(r.Start)+uint64(r.Lines*64) {
				return true
			}
		}
		return false
	}
	st := p.Stream(2, 7)
	for i := 0; i < 20000; i++ {
		op := st.Next()
		if op.Kind == cpu.OpCompute {
			continue
		}
		if !inRegion(uint64(op.Addr)) {
			t.Fatalf("address %#x outside every region", op.Addr)
		}
		if op.Addr%64 != 0 {
			t.Fatalf("address %#x not line-aligned", op.Addr)
		}
	}
}

func TestMemFractionObserved(t *testing.T) {
	p := Micro()
	st := p.Stream(0, 9)
	mem := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if st.Next().Kind != cpu.OpCompute {
			mem++
		}
	}
	frac := float64(mem) / n
	if frac < p.MemFraction-0.02 || frac > p.MemFraction+0.02 {
		t.Fatalf("observed mem fraction %.3f, want ~%.3f", frac, p.MemFraction)
	}
}

func TestWriteFractionObserved(t *testing.T) {
	p := Micro()
	st := p.Stream(0, 11)
	mem, writes := 0, 0
	for i := 0; i < 100000; i++ {
		op := st.Next()
		if op.Kind == cpu.OpCompute {
			continue
		}
		mem++
		if op.Kind == cpu.OpStore {
			writes++
		}
	}
	frac := float64(writes) / float64(mem)
	if frac < p.WriteFraction-0.03 || frac > p.WriteFraction+0.03 {
		t.Fatalf("observed write fraction %.3f, want ~%.3f", frac, p.WriteFraction)
	}
}

func TestRegionsDoNotOverlapAcrossCores(t *testing.T) {
	p := Multiprogrammed()
	check := func(a, b uint8) bool {
		ca, cb := int(a%64), int(b%64)
		if ca == cb {
			return true
		}
		for _, ra := range p.Regions(ca) {
			for _, rb := range p.Regions(cb) {
				aEnd := uint64(ra.Start) + uint64(ra.Lines*64)
				bEnd := uint64(rb.Start) + uint64(rb.Lines*64)
				if uint64(ra.Start) < bEnd && uint64(rb.Start) < aEnd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSharedRegionSharedAcrossCores(t *testing.T) {
	p := Micro()
	r0 := p.Regions(0)
	r1 := p.Regions(1)
	if r0[len(r0)-1].Start != r1[len(r1)-1].Start {
		t.Fatal("shared region must be common to all cores")
	}
}

func TestHotRegionWarmsWholeL1(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		var l1 int
		for _, r := range p.Regions(0) {
			l1 += r.L1Lines
		}
		if l1 > 512 {
			t.Errorf("%s prefills %d L1 lines (capacity 512)", name, l1)
		}
		if p.StreamLines > 0 && l1 < 400 {
			t.Errorf("%s leaves the L1 mostly cold (%d lines)", name, l1)
		}
	}
}

func TestInvalidProfilesRejected(t *testing.T) {
	bad := []Profile{
		{Name: "x", MemFraction: 1.2, HotLines: 10},
		{Name: "x", MemFraction: 0.3, HotLines: 0},
		{Name: "x", MemFraction: 0.3, HotLines: 10, StreamFraction: 0.1},
		{Name: "x", MemFraction: 0.3, HotLines: 10, SharedFraction: 0.1},
		{Name: "x", MemFraction: 0.3, HotLines: 10, ColdFraction: 0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestScaledClampsAndRenames(t *testing.T) {
	p := Micro()
	q := p.Scaled(100)
	if q.StreamFraction > 0.5 || q.SharedFraction > 0.5 {
		t.Fatal("scaling must clamp fractions")
	}
	if q.Name == p.Name {
		t.Fatal("scaled profile should carry a distinct name")
	}
	half := p.Scaled(0.5)
	if half.StreamFraction >= p.StreamFraction {
		t.Fatal("down-scaling did not reduce intensity")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMalformedGeneratorConfigs(t *testing.T) {
	base := Micro()
	with := func(mut func(*Profile)) Profile {
		p := base
		mut(&p)
		return p
	}
	cases := []struct {
		name string
		p    Profile
	}{
		{"nan share", with(func(p *Profile) { p.SharedFraction = math.NaN() })},
		{"inf share", with(func(p *Profile) { p.StreamFraction = math.Inf(1) })},
		{"negative share", with(func(p *Profile) { p.MemFraction = -0.1 })},
		{"share above one", with(func(p *Profile) { p.WriteFraction = 1.5 })},
		{"nan locality", with(func(p *Profile) { p.Locality = math.NaN() })},
		{"unknown pattern", with(func(p *Profile) { p.Pattern = "zigzag" })},
		{"pattern without shared region", with(func(p *Profile) {
			p.Pattern = PatternHotspot
			p.SharedLines, p.SharedFraction = 0, 0
		})},
		{"negative burst on", with(func(p *Profile) { p.BurstOn = -1 })},
		{"negative burst off", with(func(p *Profile) { p.BurstOff = -4 })},
		{"off-only burst", with(func(p *Profile) { p.BurstOn, p.BurstOff = 0, 100 })},
		{"negative phase switch", with(func(p *Profile) { p.PhaseOps, p.PhaseNext = -5, "micro" })},
		{"phase switch without successor", with(func(p *Profile) { p.PhaseOps = 1000 })},
		{"successor without switch point", with(func(p *Profile) { p.PhaseNext = "micro" })},
		{"unresolvable successor", with(func(p *Profile) { p.PhaseOps, p.PhaseNext = 1000, "no_such_workload" })},
		{"trace with synthetic knobs", with(func(p *Profile) { p.TracePath = "x.rctf" })},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestValidateAcceptsGeneratorConfigs(t *testing.T) {
	base := Micro()
	good := []Profile{
		func() Profile { p := base; p.Pattern = PatternHotspot; return p }(),
		func() Profile { p := base; p.Pattern = PatternTranspose; return p }(),
		func() Profile { p := base; p.Pattern = PatternTornado; return p }(),
		func() Profile { p := base; p.BurstOn, p.BurstOff = 200, 800; return p }(),
		func() Profile { p := base; p.BurstOn = 100; return p }(), // on-only: plain stream
		func() Profile { p := base; p.PhaseOps, p.PhaseNext = 1000, "mix"; return p }(),
		{Name: "replay", TracePath: "run.rctf", TraceCRC: 0xDEADBEEF},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestRegisterAndResolveGenerators(t *testing.T) {
	p := Micro()
	p.Name = "test_gen_profile"
	p.Pattern = PatternTornado
	Register(p)
	got, ok := ByName("test_gen_profile")
	if !ok {
		t.Fatal("registered generator not resolvable via ByName")
	}
	if got.Pattern != PatternTornado {
		t.Fatalf("resolved wrong profile: %+v", got)
	}
	found := false
	for _, n := range GeneratorNames() {
		if n == "test_gen_profile" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered generator missing from GeneratorNames")
	}
}

func TestRegisterRejectsBuiltinCollisions(t *testing.T) {
	for _, name := range []string{"", "micro", "mix", "canneal"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			p := Micro()
			p.Name = name
			Register(p)
		}()
	}
}

func TestBurstDutyCycleObserved(t *testing.T) {
	p := Micro()
	p.BurstOn, p.BurstOff = 100, 300
	st := p.Stream(0, 13)
	mem := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if st.Next().Kind != cpu.OpCompute {
			mem++
		}
	}
	// Duty cycle 1/4: memory share should be ~MemFraction/4.
	want := p.MemFraction / 4
	frac := float64(mem) / n
	if frac < want-0.02 || frac > want+0.02 {
		t.Fatalf("observed mem fraction %.3f under bursts, want ~%.3f", frac, want)
	}
}

func TestBurstOnWindowIndependentOfDuty(t *testing.T) {
	// The off-window draws no RNG, so the on-window op sequence must be the
	// plain stream's sequence, whatever the duty cycle.
	plain := Micro()
	bursty := Micro()
	bursty.BurstOn, bursty.BurstOff = 50, 150
	a, b := plain.Stream(2, 21), bursty.Stream(2, 21)
	period := bursty.BurstOn + bursty.BurstOff
	for i := int64(0); i < 20000; i++ {
		got := b.Next()
		if i%period >= bursty.BurstOn {
			if got.Kind != cpu.OpCompute {
				t.Fatalf("op %d: off-window issued %+v", i, got)
			}
			continue
		}
		if want := a.Next(); got != want {
			t.Fatalf("op %d: on-window op %+v != plain op %+v", i, got, want)
		}
	}
}

func TestPhaseSwitchChangesBehaviour(t *testing.T) {
	heavy := Micro()
	heavy.Name = "test_phase_heavy"
	Register(heavy)
	p := Micro()
	p.MemFraction = 0.0 // first phase: pure compute
	p.PhaseOps = 1000
	p.PhaseNext = "test_phase_heavy"
	st := p.Stream(0, 5)
	for i := 0; i < 1000; i++ {
		if op := st.Next(); op.Kind != cpu.OpCompute {
			t.Fatalf("op %d: pre-switch phase issued memory op %+v", i, op)
		}
	}
	mem := 0
	for i := 0; i < 10000; i++ {
		if st.Next().Kind != cpu.OpCompute {
			mem++
		}
	}
	if mem == 0 {
		t.Fatal("post-switch phase never touched memory")
	}
}

func TestPatternAddressesHomeOnTarget(t *testing.T) {
	const w, h = 4, 4
	nodes := w * h
	homeOf := func(a cache.Addr) int { return int((uint64(a) / 64) % uint64(nodes)) }
	for _, pat := range []string{PatternHotspot, PatternTranspose, PatternTornado} {
		p := Micro()
		p.Pattern = pat
		p.SharedFraction = 1.0 // every memory op shared, to sample the pattern
		p.ColdFraction, p.StreamFraction = 0, 0
		for core := 0; core < nodes; core++ {
			st := p.StreamGeom(core, w, h, 99).(*stream)
			want := st.patternTarget()
			for i := 0; i < 2000; i++ {
				op := st.Next()
				if op.Kind == cpu.OpCompute {
					continue
				}
				if got := homeOf(op.Addr); got != want {
					t.Fatalf("%s core %d: address %#x homes on %d, want %d", pat, core, op.Addr, got, want)
				}
			}
		}
	}
}

func TestHotspotAimsAtCentralTile(t *testing.T) {
	p := Micro()
	p.Pattern = PatternHotspot
	st := p.StreamGeom(0, 4, 4, 1).(*stream)
	if got := st.patternTarget(); got != 2*4+2 {
		t.Fatalf("hotspot target %d, want central tile 10", got)
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	const w, h = 8, 8
	p := Micro()
	p.Pattern = PatternTranspose
	for core := 0; core < w*h; core++ {
		s1 := p.StreamGeom(core, w, h, 1).(*stream)
		t1 := s1.patternTarget()
		s2 := p.StreamGeom(t1, w, h, 1).(*stream)
		if got := s2.patternTarget(); got != core {
			t.Fatalf("transpose(transpose(%d)) = %d", core, got)
		}
	}
}

func TestClassifyRoundTripsRegions(t *testing.T) {
	p := Micro()
	st := p.Stream(1, 33)
	for i := 0; i < 20000; i++ {
		op := st.Next()
		if op.Kind == cpu.OpCompute {
			continue
		}
		rc, hint := p.Classify(1, op.Addr)
		if rc == RegionNone || rc == RegionOther {
			t.Fatalf("address %#x classified %v", op.Addr, rc)
		}
		if rc != RegionShared && hint != 0 {
			t.Fatalf("private address %#x carries sharer hint %d", op.Addr, hint)
		}
	}
}

func TestStreamGeomPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StreamGeom accepted an invalid profile")
		}
	}()
	p := Micro()
	p.Pattern = "bogus"
	p.StreamGeom(0, 4, 4, 1)
}

func TestRegionClassStrings(t *testing.T) {
	want := map[RegionClass]string{
		RegionNone: "none", RegionHot: "hot", RegionStream: "stream",
		RegionCold: "cold", RegionShared: "shared", RegionOther: "other",
	}
	for rc, s := range want {
		if rc.String() != s {
			t.Errorf("%d.String() = %q, want %q", rc, rc.String(), s)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("no-such-workload"); ok {
		t.Fatal("ByName invented a workload")
	}
}

func TestRegionsEdgeShapes(t *testing.T) {
	// A stream region smaller than the free L1 space: the whole stream
	// prefills, starting at its first line.
	p := Micro()
	p.StreamLines = 4
	for _, r := range p.Regions(0) {
		if r.Start == streamBase(0) {
			if r.L1From != 0 || r.L1Lines != 4 {
				t.Fatalf("small stream region prefill = from %d lines %d, want the whole region", r.L1From, r.L1Lines)
			}
		}
	}
	// No shared region → no shared entry.
	p.SharedLines, p.SharedFraction = 0, 0
	for _, r := range p.Regions(1) {
		if r.Start == sharedBase {
			t.Fatal("sharedless profile emitted a shared region")
		}
	}
}

func TestStreamGeomRefusesTraceProfiles(t *testing.T) {
	p := Micro()
	p.TracePath = "/tmp/whatever.rctf"
	defer func() {
		if recover() == nil {
			t.Fatal("StreamGeom synthesized a trace-driven profile")
		}
	}()
	p.StreamGeom(0, 4, 4, 1)
}

func TestTransposeRectangularFallback(t *testing.T) {
	// On a non-square mesh the transpose has no axis to mirror across;
	// the point reflection keeps every target distinct and off-tile.
	p := Micro()
	p.Pattern = PatternTranspose
	p.SharedLines, p.SharedFraction = 256, 0.5
	w, h := 4, 2
	seen := map[int]bool{}
	for core := 0; core < w*h; core++ {
		s := p.StreamGeom(core, w, h, 9).(*stream)
		target := s.patternTarget()
		if target < 0 || target >= w*h {
			t.Fatalf("core %d: target %d off the %dx%d mesh", core, target, w, h)
		}
		if seen[target] {
			t.Fatalf("core %d: target %d already taken (not a permutation)", core, target)
		}
		seen[target] = true
	}
}

func TestPatternAddrTinySharedRegion(t *testing.T) {
	// Fewer shared lines than mesh tiles: the span clamps to one line per
	// target and the address still homes on the pattern tile.
	p := Micro()
	p.Pattern = PatternHotspot
	p.SharedLines, p.SharedFraction = 8, 0.5
	w, h := 4, 4
	for core := 0; core < w*h; core++ {
		s := p.StreamGeom(core, w, h, 3).(*stream)
		a := s.patternAddr()
		if home := int((a / lineBytes) % cache.Addr(w*h)); home != s.patternTarget() {
			t.Fatalf("core %d: addr homes on %d, want %d", core, home, s.patternTarget())
		}
	}
}

func TestClassifyTinySharedHotEighth(t *testing.T) {
	// Fewer than eight shared lines: the contended eighth clamps to one
	// line instead of vanishing.
	p := Micro()
	p.SharedLines = 4
	if rc, hint := p.Classify(0, sharedBase); rc != RegionShared || hint != 2 {
		t.Fatalf("first shared line = %v/%d, want shared/2", rc, hint)
	}
	if rc, hint := p.Classify(0, sharedBase+lineBytes); rc != RegionShared || hint != 1 {
		t.Fatalf("second shared line = %v/%d, want shared/1", rc, hint)
	}
}
