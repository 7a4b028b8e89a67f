package core

import (
	"testing"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

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

// TestPolicyNetConfigs pins the network dynamic-vc provisions: its maximum
// partition, in hardware.
func TestPolicyNetConfigs(t *testing.T) {
	cfg := NetConfigFor(mesh.New(4, 4), Options{
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
		"baseline":    {Options{}, Traits{Mech: MechNone}},
		"fragmented":  {fragmentedOpts(), Traits{Mech: MechFragmented, Partial: true}},
		"complete":    {completeOpts(), complete},
		"ideal":       {Options{Mechanism: MechIdeal}, Traits{Mech: MechIdeal, NoAck: true, Unbounded: true}},
		"probe-setup": {probeOpts(), Traits{Mech: MechProbe, Forward: true}},
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
			if wantBuffered := name != "complete"; r.mgr.BypassBuffered() != wantBuffered {
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

// TestPolicyDescribeMetrics: a lab policy's counters reach the registry
// scope the manager exports, under the circ/ namespace, so sweeps and the
// service surface them.
func TestPolicyDescribeMetrics(t *testing.T) {
	mg := NewManager(Options{Mechanism: MechFragmented, MaxCircuitsPerPort: 3, Policy: "dynamic-vc"}, mesh.New(4, 4))
	d := mg.pol.(*dynVCPolicy)
	d.grows, d.shrinks = 5, 2
	reg := sim.NewRegistry()
	mg.DescribeMetrics(reg)
	snap := reg.Snapshot(0)
	for name, want := range map[string]int64{"circ/dynvc_grows": 5, "circ/dynvc_shrinks": 2} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
