package chip

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

// FuzzSpec holds Spec.Validate to its converse: every spec it accepts runs
// as a coherent, oracle-clean machine. The input is a Spec's JSON; a spec
// that decodes and validates runs with the audit and the online oracles
// armed, and must come back clean or as a *RunError that is neither a
// contained panic nor an oracle or audit failure (a watchdog, horizon or
// wall-clock stop: the spec asked for too little time). A finding becomes a
// Validate rule or a model fix, plus a seed below.
//
// Runs stay small and their allocation bounded: the mesh is clamped to at
// most 9x9 tiles, each phase to 200 operations per core, working sets,
// trace buffers and sampling to modest sizes, and each run to a few seconds
// of wall clock. Inputs the simulator does not own are dropped: fault plans
// (deliberate corruption) and trace files (host paths).
func FuzzSpec(f *testing.F) {
	seed := func(c config.Chip, variant, wl string, simSeed uint64) {
		v, ok := config.ByName(variant)
		if !ok {
			f.Fatalf("unknown variant %s", variant)
		}
		w, ok := workload.ByName(wl)
		if !ok {
			f.Fatalf("unknown workload %s", wl)
		}
		s := DefaultSpec(c, v, w)
		s.WarmupOps, s.MeasureOps, s.Seed = 200, 200, simSeed
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A hot bank's queued NoAck reply overtaken by a later Fwd: the
	// delivery-order oracle caught it at cycle 128 before canEliminateAck
	// required an idle reply VN for untimed variants too.
	seed(config.Chip64(), "Complete_NoAck", "hotspot", 1)
	// Past 64 tiles a directory sharer set spills into a second word.
	nineByEight := config.Chip{Name: "9x8", Width: 9, Height: 8, MCs: 4}
	for _, v := range []string{"Baseline", "Complete_NoAck", "Reuse_NoAck", "SlackDelay_1_NoAck", "Fragmented"} {
		seed(nineByEight, v, "micro", 1)
	}
	seed(nineByEight, "Reuse_NoAck", "canneal", 2)
	seed(config.Chip{Name: "9x9", Width: 9, Height: 9, MCs: 2}, "DynamicVC", "hotspot", 3)
	seed(config.Chip16(), "SDM", "transpose", 4)
	seed(config.Chip16(), "Probe_DejaVu", "onoff", 5)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Chip":{"Width":9,"Height":8,"MCs":1},"MeasureOps":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		clampSpec(&s)
		if s.Validate() != nil {
			return
		}
		s.Audit, s.Verify = true, true
		_, err := RunCtx(context.Background(), s)
		if err == nil {
			return
		}
		re := AsRunError(err)
		switch {
		case re == nil:
			t.Fatalf("validated spec failed outside a *RunError: %v", err)
		case re.Panicked, re.Oracle != "", re.Phase == "audit":
			t.Fatalf("validated spec broke the machine:\n%s\nspec: %s", re.Verbose(), data)
		}
	})
}

// clampSpec bounds a fuzzed spec's size and cost. A value at or below zero
// passes through untouched, so Validate still judges it.
func clampSpec(s *Spec) {
	atMost := func(v *int, limit int) {
		if *v > limit {
			*v = limit
		}
	}
	atMost(&s.Chip.Width, 9)
	atMost(&s.Chip.Height, 9)
	atMost(&s.Chip.MCs, 81)
	atMost(&s.TraceCap, 1<<12)
	for _, lines := range []*int{&s.Workload.HotLines, &s.Workload.StreamLines, &s.Workload.SharedLines, &s.Workload.ColdLines} {
		atMost(lines, 1<<14)
	}
	s.WarmupOps, s.MeasureOps = min(s.WarmupOps, 200), min(s.MeasureOps, 200)
	if s.SampleEvery > 0 {
		s.SampleEvery = max(s.SampleEvery, 64)
	}
	if s.Timeout == 0 || s.Timeout > 5*time.Second {
		s.Timeout = 5 * time.Second
	}
	s.Fault = nil
	s.Workload.TracePath = ""
}
