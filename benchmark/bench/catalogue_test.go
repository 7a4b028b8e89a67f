package bench

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMirrorsCatalogue: BENCHMARK.json is what the driver
// reads, the Go catalogue is what rcbench emits and -compare applies; they
// must say the same thing.
func TestBenchmarkJSONMirrorsCatalogue(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if bj.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, bj.Workloads[i], w)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: name or %d-character why outside the contract's limits", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file, cat []MetricDef) {
		if len(file) != len(cat) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(file), len(cat))
		}
		seen := map[string]bool{}
		for i, d := range cat {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, f, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != Lower && d.Better != Higher) {
				t.Errorf("%s %s: name, unit %q or direction %q outside the contract's limits", kind, d.Name, d.Unit, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s %s named twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	same("end_to_end", bj.EndToEnd, EndToEnd)
	same("per_layer", bj.PerLayer, PerLayer)
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		for _, l := range PerLayer {
			if l.Name == d.Name {
				t.Errorf("%s is both end-to-end and per-layer", d.Name)
			}
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v unexpected", bj.RunSeconds, bj.Paths)
	}
}

// TestQuickSmoke runs every workload at smoke-test size, untraced and
// traced, on the default seed and on a second one, and checks that each
// pass emits every metric BENCHMARK.json names for it exactly once, with
// its unit, and that no output check failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	bj := readBenchmarkJSON(t)
	for _, seed := range []uint64{11, 23} {
		for _, w := range bj.Workloads {
			for _, traced := range []bool{false, true} {
				log := NewSpanLog()
				p, err := RunPass(context.Background(), w.Name, traced, Options{Seed: seed, Seconds: 0.2, Quick: true, Spans: log})
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", w.Name, seed, traced, err)
				}
				if p.Failed != 0 || p.Attempted < 1 {
					t.Fatalf("%s seed %d traced %v: %d of %d checks failed: %v", w.Name, seed, traced, p.Failed, p.Attempted, p.Notes)
				}
				line, err := ContractLine(p)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || !*got.Correct || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("%s: result line %s", w.Name, line)
				}
				want := bj.EndToEnd
				if traced {
					want = bj.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%s traced %v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(got.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("%s traced %v: metric %s missing or unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
					}
					if !traced && ok && m.Value != nil && *m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
					}
				}
				if traced && log.Len() == 0 {
					t.Errorf("%s: traced pass recorded no spans", w.Name)
				}
			}
		}
	}
}

// TestLayerSeparation pins what makes the traced pass worth reading: the
// circuit layer is absent from the packet workload and present on the
// circuit one, and the class times explain the stepping wall time.
func TestLayerSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	run := func(name string) *Pass {
		p, err := RunPass(context.Background(), name, true, Options{Seed: 11, Seconds: 0.2, Quick: true})
		if err != nil || p.Failed > 0 {
			t.Fatalf("%s: %v %v", name, err, p)
		}
		return p
	}
	packet, circuit := run("packet64"), run("circuit64")
	for _, m := range []string{"core.flush.ns_per_cycle", "core.circuits_built", "sim.circuit_reply_pct"} {
		if packet.Metrics[m] != 0 {
			t.Errorf("packet64 %s = %v, want 0: the baseline has no circuit layer", m, packet.Metrics[m])
		}
		if circuit.Metrics[m] == 0 {
			t.Errorf("circuit64 %s = 0, want the circuit layer at work", m)
		}
	}
	for _, p := range []*Pass{packet, circuit} {
		if a := p.Metrics["trace.accounted_pct"]; a < 90 || a > 100.5 {
			t.Errorf("%s: class times account for %.1f%% of the stepping wall time, want 90..100", p.Workload, a)
		}
	}
}
