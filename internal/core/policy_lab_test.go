package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// TestProfiledDemotionAndReadmission drives the profiled-hybrid decision
// logic directly: a flow whose replies keep missing their circuits is
// demoted after one full window, its requests travel as packets for the
// backoff period, and it is then re-admitted with a clean window.
func TestProfiledDemotionAndReadmission(t *testing.T) {
	p := &profiledPolicy{}
	mg := NewManager(Options{
		Mechanism: MechComplete, MaxCircuitsPerPort: 5,
		Policy:         "profiled-hybrid",
		ProfileWindow:  4,
		ProfileBackoff: 3,
	}, mesh.New(4, 4))
	p.Attach(mg)

	req := &noc.Message{Src: 1, Dst: 6}
	rep := &noc.Message{Src: 6, Dst: 1} // the reply's endpoints are swapped

	// A window of failures demotes the flow.
	for i := 0; i < 4; i++ {
		if !p.admit(req) {
			t.Fatalf("request %d: flow demoted before its window closed", i)
		}
		p.Observe(mg, rep, OutcomeFailed)
	}
	if p.demotions != 1 {
		t.Fatalf("demotions = %d, want 1", p.demotions)
	}

	// Demoted requests are packets for exactly the backoff period.
	for i := 0; i < 3; i++ {
		if p.admit(req) {
			t.Fatalf("request %d during backoff admitted", i)
		}
	}
	if !p.admit(req) {
		t.Fatal("flow not re-admitted after backoff")
	}
	if p.circuitReqs != 5 || p.packetReqs != 3 {
		t.Fatalf("circuit/packet requests = %d/%d, want 5/3", p.circuitReqs, p.packetReqs)
	}

	// A winning window keeps the re-admitted flow on circuits.
	p.Observe(mg, rep, OutcomeCircuit)
	for i := 0; i < 3; i++ {
		p.Observe(mg, rep, OutcomeCircuit)
	}
	if p.demotions != 1 || !p.admit(req) {
		t.Fatal("winning flow was demoted")
	}

	// Outcomes that say nothing about the flow leave the window alone.
	p.Observe(mg, rep, OutcomeScrounger)
	p.Observe(mg, rep, OutcomeEliminated)
	if f := p.flows[flowKey{src: 1, dst: 6}]; f.winDone != 0 {
		t.Fatalf("neutral outcomes advanced the window: winDone = %d", f.winDone)
	}
}

// TestProfiledThreshold checks the demotion boundary: a flow at exactly
// the threshold percentage survives; one reply short is demoted.
func TestProfiledThreshold(t *testing.T) {
	for _, tc := range []struct {
		wins    int
		demoted bool
	}{{2, false}, {1, true}} {
		p := &profiledPolicy{}
		mg := NewManager(Options{
			Mechanism: MechComplete, MaxCircuitsPerPort: 5,
			Policy:        "profiled-hybrid",
			ProfileWindow: 4, ProfileThresholdPct: 50,
		}, mesh.New(4, 4))
		p.Attach(mg)
		req := &noc.Message{Src: 0, Dst: 5}
		rep := &noc.Message{Src: 5, Dst: 0}
		p.admit(req)
		for i := 0; i < 4; i++ {
			o := OutcomeFailed
			if i < tc.wins {
				o = OutcomeCircuit
			}
			p.Observe(mg, rep, o)
		}
		if got := !p.admit(req); got != tc.demoted {
			t.Errorf("wins=%d: demoted=%v, want %v", tc.wins, got, tc.demoted)
		}
	}
}

// TestDynVCAdaptation drives the per-router partition controller: windows
// with failures grow the usable VC count to the maximum, clean windows
// shrink it back to the minimum, and both bounds hold.
func TestDynVCAdaptation(t *testing.T) {
	p := &dynVCPolicy{}
	mg := NewManager(Options{
		Mechanism: MechFragmented, MaxCircuitsPerPort: 4,
		Policy:   "dynamic-vc",
		DynVCMin: 1, DynVCMax: 4, DynVCWindow: 2,
	}, mesh.New(4, 4))
	p.Attach(mg)

	const id = 3
	if p.limit[id] != 1 {
		t.Fatalf("initial limit = %d, want DynVCMin = 1", p.limit[id])
	}
	failWindow := func() {
		p.attempts[id] = 2
		p.fails[id] = 1
		p.adapt(id)
	}
	cleanWindow := func() {
		p.attempts[id] = 2
		p.fails[id] = 0
		p.adapt(id)
	}

	for i := 0; i < 5; i++ {
		failWindow()
	}
	if p.limit[id] != 4 {
		t.Fatalf("limit after failing windows = %d, want capped at DynVCMax = 4", p.limit[id])
	}
	if p.grows != 3 {
		t.Fatalf("grows = %d, want 3 (1 -> 4)", p.grows)
	}

	for i := 0; i < 5; i++ {
		cleanWindow()
	}
	if p.limit[id] != 1 {
		t.Fatalf("limit after clean windows = %d, want floored at DynVCMin = 1", p.limit[id])
	}
	if p.shrinks != 3 {
		t.Fatalf("shrinks = %d, want 3 (4 -> 1)", p.shrinks)
	}

	// A half-open window adapts nothing.
	p.attempts[id], p.fails[id] = 1, 1
	p.adapt(id)
	if p.limit[id] != 1 || p.attempts[id] != 1 {
		t.Fatal("adapt fired before the window closed")
	}

	// Other routers are independent.
	if p.limit[0] != 1 || p.attempts[0] != 0 {
		t.Fatal("adaptation leaked to another router")
	}
}

// TestPolicyNetConfigs pins the network each new policy provisions:
// profiled-hybrid inherits the complete mechanism's unbuffered circuit VC
// and YX replies; dynamic-vc provisions its maximum partition in hardware.
func TestPolicyNetConfigs(t *testing.T) {
	m := mesh.New(4, 4)

	cfg := NetConfigFor(m, Options{
		Mechanism: MechComplete, MaxCircuitsPerPort: 5, NoAck: true,
		Policy: "profiled-hybrid",
	})
	if cfg.ReplyCircuitVCs != 1 || !cfg.CircuitVCUnbuffered || cfg.RepRouting != mesh.RouteYX {
		t.Fatalf("profiled-hybrid network = %+v, want the complete mechanism's", cfg)
	}

	cfg = NetConfigFor(m, Options{
		Mechanism: MechFragmented, MaxCircuitsPerPort: 4,
		Policy: "dynamic-vc", DynVCMax: 4,
	})
	if cfg.VCsPerVN[noc.VNReply] != 5 || cfg.ReplyCircuitVCs != 4 {
		t.Fatalf("dynamic-vc network = %+v, want 1+DynVCMax reply VCs with DynVCMax reserved", cfg)
	}
	if cfg.CircuitVCUnbuffered {
		t.Fatal("dynamic-vc partition must stay buffered (fragmented family)")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("dynamic-vc network invalid: %v", err)
	}
}

// TestPolicyTraits pins every registered policy's Traits and the two facts
// derived from them rather than restated per policy: bypass flits may be
// buffered exactly when the policy's network keeps the circuit VC's buffer,
// and Options.Validate rejects each of Timed/Reuse/NoAck exactly when the
// trait is off.
func TestPolicyTraits(t *testing.T) {
	complete := Traits{
		Mech: MechComplete, Timed: true, Reuse: true, NoAck: true,
		ConflictChecked: true, RegistryChecked: true, LeakChecked: true,
	}
	cases := map[string]struct {
		opts Options
		want Traits
	}{
		"baseline":        {Options{}, Traits{Mech: MechNone}},
		"fragmented":      {fragmentedOpts(), Traits{Mech: MechFragmented, Partial: true}},
		"complete":        {completeOpts(), complete},
		"ideal":           {Options{Mechanism: MechIdeal}, Traits{Mech: MechIdeal, NoAck: true, Unbounded: true}},
		"probe-setup":     {probeOpts(), Traits{Mech: MechProbe, Forward: true}},
		"profiled-hybrid": {Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5, Policy: "profiled-hybrid"}, complete},
		"dynamic-vc": {Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 3, Policy: "dynamic-vc"},
			Traits{Mech: MechFragmented, Partial: true}},
		"sdm": {sdmOpts(0), Traits{
			Mech: MechComplete, Reuse: true, Lanes: 4, RegistryChecked: true, LeakChecked: true,
		}},
	}
	for _, name := range PolicyNames() {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("policy %q has no pinned traits", name)
			continue
		}
		if got := PolicyName(tc.opts); got != name {
			t.Fatalf("%s: options resolve to policy %q", name, got)
		}
		if err := tc.opts.Validate(); err != nil {
			t.Fatalf("%s: base options rejected: %v", name, err)
		}
		if got := TraitsFor(tc.opts); got != tc.want {
			t.Errorf("%s: traits = %+v, want %+v", name, got, tc.want)
		}
		if tc.opts.Enabled() {
			r := newRig(t, 2, 2, tc.opts, 7)
			if got, want := r.mgr.BypassBuffered(), !NetConfigFor(r.m, tc.opts).CircuitVCUnbuffered; got != want {
				t.Errorf("%s: BypassBuffered = %v, want %v (the circuit VC's buffer)", name, got, want)
			}
			if wantBuffered := name != "complete" && name != "profiled-hybrid"; r.mgr.BypassBuffered() != wantBuffered {
				t.Errorf("%s: BypassBuffered = %v, want %v", name, !wantBuffered, wantBuffered)
			}
		}
		for _, opt := range []struct {
			name string
			set  func(*Options)
			can  bool
		}{
			{"Timed", func(o *Options) { o.Timed = true }, tc.want.Timed},
			{"Reuse", func(o *Options) { o.Reuse = true }, tc.want.Reuse},
			{"NoAck", func(o *Options) { o.NoAck = true }, tc.want.NoAck},
		} {
			o := tc.opts
			opt.set(&o)
			if err := o.Validate(); (err == nil) != opt.can {
				t.Errorf("%s with %s: Validate = %v, trait says supported = %v", name, opt.name, err, opt.can)
			}
		}
	}
	// Timed entries self-expire, so the leak oracle stands down.
	if TraitsFor(timedOpts(1, 0, 0)).LeakChecked {
		t.Error("timed complete circuits must not be leak-checked")
	}
}

// TestPolicyValidateErrors: every knob misconfiguration for the lab
// policies is rejected with a specific error, and PolicyFor refuses
// unregistered names.
func TestPolicyValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"profiled wrong mechanism", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 4, Policy: "profiled-hybrid"}},
		{"profiled negative window", Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Policy: "profiled-hybrid", ProfileWindow: -1}},
		{"profiled pct over 100", Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Policy: "profiled-hybrid", ProfileThresholdPct: 150}},
		{"dynvc wrong mechanism", Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Policy: "dynamic-vc"}},
		{"dynvc negative min", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 4, Policy: "dynamic-vc", DynVCMin: -1}},
		{"dynvc min over max", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 4, Policy: "dynamic-vc", DynVCMin: 4, DynVCMax: 2}},
		{"dynvc max over 6", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 8, Policy: "dynamic-vc", DynVCMax: 7}},
		{"dynvc too few table entries", Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 2, Policy: "dynamic-vc", DynVCMax: 4}},
		{"unregistered policy", Options{Mechanism: MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Policy: "no-such-policy"}},
	}
	for _, c := range cases {
		if err := c.o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.o)
		}
	}
	if _, err := PolicyFor(Options{Policy: "no-such-policy"}); err == nil {
		t.Error("PolicyFor accepted an unregistered policy")
	}
}

// TestPolicyDescribeMetrics: the lab policies export their counters under
// the circ/ namespace so sweeps and the service surface them.
func TestPolicyDescribeMetrics(t *testing.T) {
	p := &profiledPolicy{circuitReqs: 7, packetReqs: 3, demotions: 1}
	reg := sim.NewRegistry()
	p.DescribeMetrics(reg)
	snap := reg.Snapshot(0)
	for name, want := range map[string]int64{
		"circ/profiled_circuit_requests": 7,
		"circ/profiled_packet_requests":  3,
		"circ/profiled_demotions":        1,
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	d := &dynVCPolicy{grows: 5, shrinks: 2}
	rd := sim.NewRegistry()
	d.DescribeMetrics(rd)
	if ds := rd.Snapshot(0); ds.Value("circ/dynvc_grows") != 5 || ds.Value("circ/dynvc_shrinks") != 2 {
		t.Errorf("dynvc counters = %d/%d, want 5/2", ds.Value("circ/dynvc_grows"), ds.Value("circ/dynvc_shrinks"))
	}
}
