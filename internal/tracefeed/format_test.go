package tracefeed

import (
	"path/filepath"
	"reflect"
	"testing"

	"reactivenoc/internal/cpu"
	"reactivenoc/internal/workload"
)

// sampleTrace records a few thousand ops of a synthetic stream per core
// through the real Recorder, so tests exercise the same path chip runs.
func sampleTrace(t *testing.T, p workload.Profile, cores, ops int) *Trace {
	t.Helper()
	rec := NewRecorder(p, cores, 7, int64(ops/3), int64(ops-ops/3))
	for c := 0; c < cores; c++ {
		st := p.Stream(c, 7)
		now := int64(0)
		for i := 0; i < ops; i++ {
			op := st.Next()
			rec.Record(c, now, op)
			// Model the issue clock loosely: memory ops cost extra cycles.
			now++
			if op.Kind != cpu.OpCompute {
				now += int64(i % 13)
			}
		}
	}
	return rec.Trace()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 4, 3000)
	enc := tr.Encode()
	got, crc, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if crc == 0 {
		t.Fatal("zero CRC")
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("decoded trace differs from original")
	}
}

func TestEncodeIsCanonical(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 2, 1000)
	a, b := tr.Encode(), tr.Encode()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two encodings of one trace differ")
	}
	dec, _, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Encode(), a) {
		t.Fatal("encode(decode(x)) != x for a canonical encoding")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 2, 500)
	enc := tr.Encode()
	// Flip one byte anywhere: the CRC must catch it.
	for _, pos := range []int{0, 4, len(enc) / 2, len(enc) - 5} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0xFF
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d accepted", pos)
		}
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(enc); n += 7 {
		if _, _, err := Decode(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestReplayMatchesRecordedStream(t *testing.T) {
	p := workload.Micro()
	tr := sampleTrace(t, p, 3, 5000)
	for c := 0; c < 3; c++ {
		live := p.Stream(c, 7)
		replay := tr.Stream(c)
		for i := 0; i < 5000; i++ {
			if got, want := replay.Next(), live.Next(); got != want {
				t.Fatalf("core %d op %d: replay %+v != live %+v", c, i, got, want)
			}
		}
		// Exhausted replay degrades to compute.
		if op := replay.Next(); op.Kind != cpu.OpCompute {
			t.Fatalf("exhausted replay returned %+v", op)
		}
	}
}

func TestReplayPreservesAdversarialStreams(t *testing.T) {
	for _, p := range workload.Generators() {
		tr := sampleTrace(t, p, 2, 4000)
		live := p.Stream(1, 7)
		replay := tr.Stream(1)
		for i := 0; i < 4000; i++ {
			if got, want := replay.Next(), live.Next(); got != want {
				t.Fatalf("%s op %d: replay %+v != live %+v", p.Name, i, got, want)
			}
		}
	}
}

func TestRegionTableSurvivesRoundTrip(t *testing.T) {
	p := workload.Micro()
	tr := sampleTrace(t, p, 4, 100)
	enc := tr.Encode()
	dec, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if !reflect.DeepEqual(dec.CoreRegions(c), p.Regions(c)) {
			t.Fatalf("core %d regions differ after round trip", c)
		}
	}
	if dec.CoreRegions(99) != nil {
		t.Fatal("out-of-range core returned regions")
	}
}

func TestRecordsCarryRegionLabels(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 1, 20000)
	seen := map[workload.RegionClass]bool{}
	for _, r := range tr.Recs[0] {
		seen[r.Region] = true
		if r.Kind == cpu.OpCompute && r.Region != workload.RegionNone {
			t.Fatalf("compute record labeled %v", r.Region)
		}
		if r.Kind != cpu.OpCompute && r.Region == workload.RegionNone {
			t.Fatalf("memory record at %#x unlabeled", r.Addr)
		}
	}
	for _, want := range []workload.RegionClass{workload.RegionHot, workload.RegionStream, workload.RegionShared} {
		if !seen[want] {
			t.Errorf("no record labeled %v in 20k micro ops", want)
		}
	}
}

func TestLoadWorkloadPinsCRC(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 2, 500)
	path := filepath.Join(t.TempDir(), "run.rctf")
	crc, err := tr.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, loaded, err := LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.TraceCRC != crc {
		t.Fatalf("profile CRC %08x != written CRC %08x", p.TraceCRC, crc)
	}
	if p.TracePath != path || p.Name != "trace:run.rctf" {
		t.Fatalf("bad trace profile: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if loaded.Cores() != 2 {
		t.Fatalf("loaded %d cores", loaded.Cores())
	}
}

func TestResolveWorkload(t *testing.T) {
	for _, name := range []string{"micro", "mix", "canneal", "hotspot", "tornado", "onoff", "phased"} {
		p, err := ResolveWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name != name {
			t.Errorf("resolved %q as %q", name, p.Name)
		}
	}
	if _, err := ResolveWorkload("doom"); err == nil {
		t.Error("phantom workload resolved")
	}
	if _, err := ResolveWorkload("trace:/no/such/file.rctf"); err == nil {
		t.Error("missing trace file resolved")
	}
	tr := sampleTrace(t, workload.Micro(), 1, 100)
	path := filepath.Join(t.TempDir(), "t.rctf")
	if _, err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveWorkload("trace:" + path); err != nil {
		t.Error(err)
	}
}

func TestWorkloadNamesEnumeratesEverything(t *testing.T) {
	names := WorkloadNames()
	want := map[string]bool{
		"micro": false, "mix": false, "canneal": false,
		"hotspot": false, "transpose": false, "tornado": false,
		"onoff": false, "phased": false, "phased_quiet": false, "trace:<path>": false,
	}
	if names[0] != "micro" || names[len(names)-1] != "trace:<path>" {
		t.Errorf("WorkloadNames runs %s..%s, want micro..trace:<path>", names[0], names[len(names)-1])
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("%s missing from WorkloadNames", n)
		}
	}
}

func TestGeneratorsAllValid(t *testing.T) {
	for _, p := range workload.Generators() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestComputeRunsCompress(t *testing.T) {
	// A compute-heavy profile must not pay one record per op.
	p := workload.Micro()
	p.MemFraction = 0.05
	tr := sampleTrace(t, p, 1, 10000)
	if n := len(tr.Recs[0]); n > 2500 {
		t.Fatalf("%d records for 10000 ops at 5%% memory: compute runs not compressed", n)
	}
}

// TestReplayComputeRunMatchesNext: a replay drawn in compute runs, as a
// core does, yields exactly the recorded operations Next alone yields,
// runs split across records and across the end of the trace included.
func TestReplayComputeRunMatchesNext(t *testing.T) {
	tr := sampleTrace(t, workload.Micro(), 2, 5000)
	for c := 0; c < 2; c++ {
		a, b := tr.Stream(c), tr.Stream(c)
		var got []cpu.Op
		for i := 0; len(got) < 5100; i++ {
			max := int64(1 + i*7%40)
			run := b.ComputeRun(max)
			if run > max {
				t.Fatalf("ComputeRun(%d) consumed %d", max, run)
			}
			for range run {
				got = append(got, cpu.Op{Kind: cpu.OpCompute})
			}
			if run < max {
				got = append(got, b.Next())
			}
		}
		for i := 0; i < 5100; i++ {
			if want := a.Next(); got[i] != want {
				t.Fatalf("core %d op %d: drawn in runs %+v, by Next %+v", c, i, got[i], want)
			}
		}
	}
}
