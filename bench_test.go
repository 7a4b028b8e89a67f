// Microbenchmarks of the two run shapes no rcbench workload (benchmark/)
// covers: the lane-sliced SDM fabric and a replayed trace. Everything else
// the repository measures — chip runs, sweeps, the kernel, the network, the
// circuit manager, the service — is an rcbench workload or rig; run it with
// `bash benchmark/run.sh`. These two are for measuring while you work
// (`go test -run '^$' -bench . -benchtime 5x -count 5`); nothing gates on
// them.
package reactivenoc_test

import (
	"path/filepath"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

// benchChipRun times 16-core runs of w under variant and reports the host throughput: simulated cycles per wall-clock second and
// its inverse.
func benchChipRun(b *testing.B, variant string, w workload.Profile) {
	b.ReportAllocs()
	v, ok := config.ByName(variant)
	if !ok {
		b.Fatalf("unknown variant %s", variant)
	}
	var simCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(config.Chip16(), v, w)
		spec.MeasureOps = 3000
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 && simCycles > 0 {
		b.ReportMetric(float64(simCycles)/secs, "sim_cycles/sec")
		b.ReportMetric(secs*1e9/float64(simCycles), "ns/sim_cycle")
	}
}

// BenchmarkChipRunSDM is a full 16-core run on the lane-sliced SDM fabric:
// per-lane circuit tables, lane-paced bypass and the deferred teardown
// queue are all on the hot path here.
func BenchmarkChipRunSDM(b *testing.B) { benchChipRun(b, "SDM", workload.Micro()) }

// BenchmarkTraceReplay is a 16-core Complete_NoAck run driven from a
// recorded trace instead of the synthetic generator: the setup records one
// run to a temporary file, the timed loop replays it. Replay is a
// pre-decoded slice walk, so it should not be slower than synthesis.
func BenchmarkTraceReplay(b *testing.B) {
	v, _ := config.ByName("Complete_NoAck")
	path := filepath.Join(b.TempDir(), "bench.rctf")
	rec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	rec.MeasureOps = 3000
	rec.RecordTrace = path
	chip.MustRun(rec)
	p, _, err := tracefeed.LoadWorkload(path)
	if err != nil {
		b.Fatal(err)
	}
	benchChipRun(b, "Complete_NoAck", p)
}
