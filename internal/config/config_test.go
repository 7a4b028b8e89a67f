package config

import (
	"testing"

	"reactivenoc/internal/core"
)

func TestChipPresets(t *testing.T) {
	c16, c64 := Chip16(), Chip64()
	if c16.Nodes() != 16 || c64.Nodes() != 64 {
		t.Fatalf("node counts %d/%d", c16.Nodes(), c64.Nodes())
	}
	if c16.MCs != 4 || c64.MCs != 4 {
		t.Fatal("the paper uses 4 memory controllers for both sizes")
	}
}

func TestAllVariantsValid(t *testing.T) {
	for _, v := range Variants() {
		if err := v.Opts.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
}

func TestVariantInventoryMatchesPaper(t *testing.T) {
	want := []string{
		"Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck",
		"Timed_NoAck", "Slack_1_NoAck", "Slack_2_NoAck", "Slack_4_NoAck",
		"SlackDelay_1_NoAck", "Postponed_1_NoAck", "Ideal",
	}
	got := Variants()
	if len(got) != len(want) {
		t.Fatalf("variants %v", got)
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Fatalf("variant %d = %s, want %s", i, got[i].Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	v, ok := ByName("SlackDelay_1_NoAck")
	if !ok {
		t.Fatal("missing SlackDelay_1_NoAck")
	}
	if !v.Opts.Timed || v.Opts.SlackPerHop != 1 || v.Opts.DelayPerHop != 1 || !v.Opts.NoAck {
		t.Fatalf("wrong options: %+v", v.Opts)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom variant")
	}
}

func TestVariantSemantics(t *testing.T) {
	frag, _ := ByName("Fragmented")
	if frag.Opts.Mechanism != core.MechFragmented || frag.Opts.MaxCircuitsPerPort != 2 {
		t.Fatal("fragmented must use 2 circuits per port (one per reserved VC)")
	}
	comp, _ := ByName("Complete")
	if comp.Opts.Mechanism != core.MechComplete || comp.Opts.MaxCircuitsPerPort != 5 {
		t.Fatal("complete must use the paper's 5 circuits per port")
	}
	post, _ := ByName("Postponed_1_NoAck")
	if post.Opts.PostponePerHop != 1 || post.Opts.SlackPerHop != 0 {
		t.Fatal("postponed uses exact windows at a later time")
	}
	ideal, _ := ByName("Ideal")
	if ideal.Opts.Mechanism != core.MechIdeal || ideal.Opts.NoAck {
		t.Fatal("ideal keeps all coherence messages")
	}
}

func TestKeyVariantsSubset(t *testing.T) {
	ks := KeyVariants()
	if len(ks) < 5 {
		t.Fatalf("only %d key variants", len(ks))
	}
	for _, k := range ks {
		if _, ok := ByName(k.Name); !ok {
			t.Errorf("key variant %s not in the full list", k.Name)
		}
	}
	if ks[0].Name != "Baseline" {
		t.Fatal("key variants must start with the baseline")
	}
}

func TestComparators(t *testing.T) {
	cs := Comparators()
	if len(cs) != 5 {
		t.Fatalf("%d comparators", len(cs))
	}
	names := map[string]bool{}
	for _, c := range cs {
		if err := c.Opts.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"Baseline", "Speculative", "Probe_DejaVu", "Complete_NoAck", "SlackDelay_1_NoAck"} {
		if !names[want] {
			t.Errorf("missing comparator %s", want)
		}
	}
	spec, _ := func() (Variant, bool) {
		for _, c := range cs {
			if c.Name == "Speculative" {
				return c, true
			}
		}
		return Variant{}, false
	}()
	if !spec.Opts.SpeculativeRouter || spec.Opts.Enabled() {
		t.Fatal("the speculative comparator must be a circuit-less baseline router")
	}
}

func TestTuneGridValid(t *testing.T) {
	grid := TuneGrid()
	if len(grid) < 8 {
		t.Fatalf("tuning grid has only %d variants", len(grid))
	}
	seen := map[string]bool{}
	for _, v := range grid {
		if seen[v.Name] {
			t.Errorf("duplicate grid variant %s", v.Name)
		}
		seen[v.Name] = true
	}
	for _, want := range []string{"Baseline", "Timed_NoAck", "Slack_8_NoAck", "Postponed_2_NoAck"} {
		if !seen[want] {
			t.Errorf("grid missing %s", want)
		}
	}
	// The beyond-the-paper grid points resolve through the registry too
	// (rcsim -variant Slack_8_NoAck).
	if _, ok := ByName("Slack_8_NoAck"); !ok {
		t.Error("Slack_8_NoAck not in the variant registry")
	}
}
