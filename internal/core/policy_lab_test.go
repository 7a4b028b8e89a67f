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
	mg := NewManager(Options{Mechanism: MechDynamicVC, MaxCircuitsPerPort: 3}, mesh.New(4, 4))
	p.Attach(mg)

	const id = 3
	if p.limit[id] != dynVCMin {
		t.Fatalf("initial limit = %d, want dynVCMin = %d", p.limit[id], dynVCMin)
	}
	failWindow := func() {
		p.attempts[id] = dynVCWindow
		p.fails[id] = 1
		p.adapt(id)
	}
	cleanWindow := func() {
		p.attempts[id] = dynVCWindow
		p.fails[id] = 0
		p.adapt(id)
	}

	for i := 0; i < 5; i++ {
		failWindow()
	}
	if p.limit[id] != dynVCMax {
		t.Fatalf("limit after failing windows = %d, want capped at dynVCMax = %d", p.limit[id], dynVCMax)
	}
	if p.grows != dynVCMax-dynVCMin {
		t.Fatalf("grows = %d, want %d", p.grows, dynVCMax-dynVCMin)
	}

	for i := 0; i < 5; i++ {
		cleanWindow()
	}
	if p.limit[id] != dynVCMin {
		t.Fatalf("limit after clean windows = %d, want floored at dynVCMin = %d", p.limit[id], dynVCMin)
	}
	if p.shrinks != dynVCMax-dynVCMin {
		t.Fatalf("shrinks = %d, want %d", p.shrinks, dynVCMax-dynVCMin)
	}

	// A half-open window adapts nothing.
	p.attempts[id], p.fails[id] = dynVCWindow-1, 1
	p.adapt(id)
	if p.limit[id] != dynVCMin || p.attempts[id] != dynVCWindow-1 {
		t.Fatal("adapt fired before the window closed")
	}

	// Other routers are independent.
	if p.limit[0] != dynVCMin || p.attempts[0] != 0 {
		t.Fatal("adaptation leaked to another router")
	}
}

// TestPolicyNetConfigs pins the network dynamic-vc provisions: its maximum
// partition, in hardware.
func TestPolicyNetConfigs(t *testing.T) {
	cfg := NetConfigFor(mesh.New(4, 4), Options{Mechanism: MechDynamicVC, MaxCircuitsPerPort: 3})
	if cfg.VCsPerVN[noc.VNReply] != 1+dynVCMax || cfg.ReplyCircuitVCs != dynVCMax {
		t.Fatalf("dynamic-vc network = %+v, want 1+dynVCMax reply VCs with dynVCMax reserved", cfg)
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
		Timed: true, Reuse: true, NoAck: true,
		ConflictChecked: true, RegistryChecked: true, LeakChecked: true,
	}
	cases := map[string]struct {
		opts Options
		want Traits
	}{
		"baseline":    {Options{}, Traits{}},
		"fragmented":  {fragmentedOpts(), Traits{Partial: true}},
		"complete":    {completeOpts(), complete},
		"ideal":       {Options{Mechanism: MechIdeal}, Traits{NoAck: true, Unbounded: true}},
		"probe-setup": {probeOpts(), Traits{Forward: true}},
		"dynamic-vc":  {Options{Mechanism: MechDynamicVC, MaxCircuitsPerPort: 3}, Traits{Partial: true}},
		"sdm":         {sdmOpts(0), Traits{Reuse: true, Lanes: 4, RegistryChecked: true, LeakChecked: true}},
		"speculative": {Options{Mechanism: MechSpeculative}, Traits{}},
	}
	for _, name := range PolicyNames() {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("policy %q has no pinned traits", name)
			continue
		}
		if got := tc.opts.Mechanism.String(); got != name {
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

// TestPolicyValidateErrors: a dynamic-vc table too small for its partition
// is rejected, and Validate and PolicyFor refuse a Mechanism past the
// policies table.
func TestPolicyValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"dynvc too few table entries", Options{Mechanism: MechDynamicVC, MaxCircuitsPerPort: dynVCMax - 1}},
		{"unregistered policy", Options{Mechanism: MechSpeculative + 1, MaxCircuitsPerPort: 5}},
	}
	for _, c := range cases {
		if err := c.o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.o)
		}
	}
	if _, err := PolicyFor(Options{Mechanism: MechSpeculative + 1}); err == nil {
		t.Error("PolicyFor accepted an unregistered policy")
	}
}

// TestPolicyDescribeMetrics: a lab policy's counters reach the registry
// scope the manager exports, under the circ/ namespace, so sweeps and the
// service surface them.
func TestPolicyDescribeMetrics(t *testing.T) {
	mg := NewManager(Options{Mechanism: MechDynamicVC, MaxCircuitsPerPort: 3}, mesh.New(4, 4))
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
