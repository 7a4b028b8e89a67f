// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced scale (fewer workloads, shorter runs); cmd/rcsweep runs the
// full versions. Custom metrics carry the headline numbers: speedup_pct,
// energy_ratio, area savings, circuit shares.
package reactivenoc_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

// benchScale keeps the per-figure macro-benchmarks to a few seconds each.
func benchScale() exp.Scale {
	return exp.Scale{MeasureOps: 3000, Apps: 4, Seed: 1}
}

func benchVariants(names ...string) []config.Variant {
	out := make([]config.Variant, 0, len(names))
	for _, n := range names {
		v, ok := config.ByName(n)
		if !ok {
			panic("unknown variant " + n)
		}
		out = append(out, v)
	}
	return out
}

// BenchmarkTable1MessageMix reproduces the Table 1 message population on
// the 64-core chip: the request/reply split and the per-type shares.
func BenchmarkTable1MessageMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), benchVariants("Baseline"), benchScale())
		t1, err := exp.Table1From(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t1.ReplyFrac*100, "reply_pct")
		b.ReportMetric(t1.EligibleFrac*100, "eligible_reply_pct")
	}
}

// BenchmarkTable5CircuitOrdinals reproduces the reservation-ordinal
// distribution for complete circuits with eliminated acks, 64 cores.
func BenchmarkTable5CircuitOrdinals(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), benchVariants("Complete_NoAck"), benchScale())
		t5 := exp.Table5From(s, "Complete_NoAck")
		b.ReportMetric(t5.Ordinals[0]*100, "first_circuit_pct")
		b.ReportMetric(t5.Failed*100, "failed_pct")
	}
}

// BenchmarkTable6RouterArea evaluates the analytical router-area model for
// every mechanism at both chip sizes.
func BenchmarkTable6RouterArea(b *testing.B) {
	b.ReportAllocs()
	var t6 *exp.Table6
	for i := 0; i < b.N; i++ {
		t6 = exp.Table6Compute()
	}
	b.ReportMetric(t6.Rows[0].Savings64*100, "fragmented64_pct")
	b.ReportMetric(t6.Rows[1].Savings64*100, "complete64_pct")
	b.ReportMetric(t6.Rows[2].Savings64*100, "timed64_pct")
}

// BenchmarkFig6CircuitOutcomes reproduces the reply-outcome breakdown
// (circuit / failed / undone / scrounger / not-eligible / eliminated).
func BenchmarkFig6CircuitOutcomes(b *testing.B) {
	b.ReportAllocs()
	vs := benchVariants("Baseline", "Fragmented", "Complete_NoAck", "Timed_NoAck", "SlackDelay_1_NoAck", "Ideal")
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), vs, benchScale())
		f := exp.Fig6From(s)
		for _, row := range f.Rows {
			if row.Variant == "Complete_NoAck" {
				b.ReportMetric(row.Circuit*100, "circuit_pct")
				b.ReportMetric(row.Eliminated*100, "eliminated_pct")
			}
			if row.Variant == "Timed_NoAck" {
				b.ReportMetric(row.Undone*100, "timed_undone_pct")
			}
		}
	}
}

// BenchmarkFig7MessageLatency reproduces the latency anatomy per message
// class for the key variants.
func BenchmarkFig7MessageLatency(b *testing.B) {
	b.ReportAllocs()
	vs := benchVariants("Baseline", "Complete_NoAck")
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), vs, benchScale())
		f := exp.Fig7From(s)
		base, rc := f.Rows[0], f.Rows[1]
		b.ReportMetric(base.CircRepNet, "baseline_reply_cycles")
		b.ReportMetric(rc.CircRepNet, "circuit_reply_cycles")
		b.ReportMetric(base.CircRepNet/rc.CircRepNet, "reply_latency_ratio")
	}
}

// BenchmarkFig8NetworkEnergy reproduces the normalized network energy.
func BenchmarkFig8NetworkEnergy(b *testing.B) {
	b.ReportAllocs()
	vs := benchVariants("Baseline", "Fragmented", "Complete_NoAck")
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), vs, benchScale())
		f, err := exp.Fig8From(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Rows {
			switch row.Variant {
			case "Fragmented":
				b.ReportMetric(row.Mean, "fragmented_energy_ratio")
			case "Complete_NoAck":
				b.ReportMetric(row.Mean, "noack_energy_ratio")
			}
		}
	}
}

// BenchmarkFig9Speedup reproduces the average speedup of the key variants.
func BenchmarkFig9Speedup(b *testing.B) {
	b.ReportAllocs()
	vs := benchVariants("Baseline", "Complete_NoAck", "SlackDelay_1_NoAck", "Ideal")
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), vs, benchScale())
		f, err := exp.Fig9From(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Rows {
			switch row.Variant {
			case "Complete_NoAck":
				b.ReportMetric((row.Mean-1)*100, "noack_speedup_pct")
			case "SlackDelay_1_NoAck":
				b.ReportMetric((row.Mean-1)*100, "slackdelay_speedup_pct")
			case "Ideal":
				b.ReportMetric((row.Mean-1)*100, "ideal_speedup_pct")
			}
		}
	}
}

// BenchmarkFig10PerAppSpeedup reproduces the per-application speedups of
// timed circuits with slack and delay on the 64-core chip.
func BenchmarkFig10PerAppSpeedup(b *testing.B) {
	b.ReportAllocs()
	vs := benchVariants("Baseline", "SlackDelay_1_NoAck")
	for i := 0; i < b.N; i++ {
		s := exp.RunSweep(config.Chip64(), vs, benchScale())
		f, err := exp.Fig10From(s, "SlackDelay_1_NoAck")
		if err != nil {
			b.Fatal(err)
		}
		best, worst := 0.0, 10.0
		for _, v := range f.Speedup {
			if v > best {
				best = v
			}
			if v < worst {
				worst = v
			}
		}
		b.ReportMetric((best-1)*100, "best_app_speedup_pct")
		b.ReportMetric((worst-1)*100, "worst_app_speedup_pct")
	}
}

// BenchmarkLoadThreshold reproduces the Section-5.5 congestion argument:
// circuit failures vs offered load, untimed vs timed.
func BenchmarkLoadThreshold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ls := exp.LoadSweepRun(config.Chip64(), []float64{1, 8}, 2500, exp.DefaultPolicy())
		heavy := ls.Rows[len(ls.Rows)-1]
		b.ReportMetric(heavy.Failed["Complete_NoAck"]*100, "untimed_fail_pct")
		b.ReportMetric(heavy.Failed["SlackDelay_1_NoAck"]*100, "timed_fail_pct")
	}
}

// BenchmarkAblationCircuitsPerPort sweeps the paper's experimentally chosen
// five-entries-per-port constant.
func BenchmarkAblationCircuitsPerPort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ab := exp.AblateCircuitsPerPort(config.Chip64(), []int{1, 5}, 2500, exp.DefaultPolicy())
		b.ReportMetric(ab.Rows[0].StorageFailed*100, "one_entry_storage_fail_pct")
		b.ReportMetric(ab.Rows[1].StorageFailed*100, "five_entry_storage_fail_pct")
	}
}

// BenchmarkScalability measures circuit construction across chip sizes.
func BenchmarkScalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss := exp.ScaleSweepRun([]int{4, 8}, 2500, exp.DefaultPolicy())
		b.ReportMetric(ss.Rows[0].Circuit["Complete_NoAck"]*100, "circuit16_pct")
		b.ReportMetric(ss.Rows[1].Circuit["Complete_NoAck"]*100, "circuit64_pct")
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the substrates.
// ---------------------------------------------------------------------------

// reportCycleRate attaches the host-throughput metrics every simulation
// benchmark quotes: simulated cycles per wall-clock second and its inverse.
func reportCycleRate(b *testing.B, simCycles int64) {
	secs := b.Elapsed().Seconds()
	if secs > 0 && simCycles > 0 {
		b.ReportMetric(float64(simCycles)/secs, "sim_cycles/sec")
		b.ReportMetric(secs*1e9/float64(simCycles), "ns/sim_cycle")
	}
}

// BenchmarkNetworkCycle measures the raw simulation rate of an idle-ish
// 64-router mesh carrying light random traffic, with every router and NI
// activity-tracked — the low-load regime the quiescence scheduler targets.
func BenchmarkNetworkCycle(b *testing.B) {
	b.ReportAllocs()
	m := mesh.New(8, 8)
	net := noc.NewNetwork(noc.BaselineConfig(m), nil, nil)
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(*noc.Message, sim.Cycle) {})
	}
	rng := sim.NewRNG(1)
	kernel := sim.NewKernel()
	net.Register(kernel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%25 == 0 {
			src := mesh.NodeID(rng.Intn(m.Nodes()))
			dst := mesh.NodeID(rng.Intn(m.Nodes()))
			net.Send(&noc.Message{Src: src, Dst: dst, VN: noc.VNRequest, Size: 1}, kernel.Now())
		}
		kernel.Step()
	}
	reportCycleRate(b, kernel.Now())
}

// BenchmarkBusyNetworkCycle measures the saturated steady state: a closed
// population of messages permanently in flight across the 64-router mesh,
// each delivery recycling its message and injecting a replacement drawn from
// the pool. After warm-up this loop must not allocate — the 0 allocs/op
// figure here is the tentpole claim of the recycling work, and the CI bench
// gate pins it.
func BenchmarkBusyNetworkCycle(b *testing.B) {
	b.ReportAllocs()
	m := mesh.New(8, 8)
	net := noc.NewNetwork(noc.BaselineConfig(m), nil, nil)
	rng := sim.NewRNG(2)
	kernel := sim.NewKernel()
	inject := func(now sim.Cycle) {
		msg := net.NewMessage()
		msg.Src = mesh.NodeID(rng.Intn(m.Nodes()))
		msg.Dst = mesh.NodeID(rng.Intn(m.Nodes()))
		msg.VN = rng.Intn(noc.NumVNs)
		msg.Size = 1
		if rng.Bool(0.5) {
			msg.Size = 5
		}
		net.Send(msg, now)
	}
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			net.FreeMessage(msg)
			inject(now)
		})
	}
	net.Register(kernel)
	for i := 0; i < 96; i++ {
		inject(0)
	}
	kernel.Run(500) // reach steady state and fill the pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.Step()
	}
	reportCycleRate(b, int64(b.N))
}

// BenchmarkKernelStep isolates the scheduler's per-cycle overhead on a
// fully quiescent 128-component mesh: sparse mode pays only the active-set
// scan, dense mode pays a no-op Tick per component — the gap is what
// activity tracking buys before any simulation work happens.
func BenchmarkKernelStep(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []struct {
		name  string
		dense bool
	}{{"sparse", false}, {"dense", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			m := mesh.New(8, 8)
			net := noc.NewNetwork(noc.BaselineConfig(m), nil, nil)
			for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
				net.NI(id).SetReceiver(func(*noc.Message, sim.Cycle) {})
			}
			kernel := sim.NewKernel()
			kernel.SetDense(mode.dense)
			net.Register(kernel)
			kernel.Run(4) // let the initial active flags settle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.Step()
			}
			reportCycleRate(b, int64(b.N))
		})
	}
}

// BenchmarkChipRun measures a full 16-core end-to-end run.
func BenchmarkChipRun(b *testing.B) {
	b.ReportAllocs()
	c := config.Chip16()
	v, _ := config.ByName("Complete_NoAck")
	w := workload.Micro()
	var simCycles int64
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = 3000
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	reportCycleRate(b, simCycles)
}

// BenchmarkChipRunSDM is BenchmarkChipRun on the lane-sliced SDM fabric:
// per-lane circuit tables, lane-paced bypass and the deferred teardown
// queue are all on the hot path here. The CI bench gate pins its
// sim_cycles/sec so lane bookkeeping cannot quietly tax the router's
// inner loop.
func BenchmarkChipRunSDM(b *testing.B) {
	b.ReportAllocs()
	c := config.Chip16()
	v, _ := config.ByName("SDM")
	w := workload.Micro()
	var simCycles int64
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = 3000
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	reportCycleRate(b, simCycles)
}

// BenchmarkLargeMesh measures a 256-core (16×16) end-to-end run — the
// scaling point beyond the paper's 16- and 64-core chips.
func BenchmarkLargeMesh(b *testing.B) {
	b.ReportAllocs()
	c := config.Chip256()
	v, _ := config.ByName("Complete_NoAck")
	w := workload.Micro()
	var simCycles int64
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = 3000
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	reportCycleRate(b, simCycles)
}

// BenchmarkTraceReplay is BenchmarkChipRun driven from a recorded trace
// instead of the synthetic generator: the setup records one run to a
// temporary file, the timed loop replays it. Replay is a pre-decoded
// slice walk, so it must not be slower than synthesis — the CI bench
// gate pins its sim_cycles/sec and allocs/op alongside the other chip
// runs.
func BenchmarkTraceReplay(b *testing.B) {
	b.ReportAllocs()
	c := config.Chip16()
	v, _ := config.ByName("Complete_NoAck")
	path := filepath.Join(b.TempDir(), "bench.rctf")
	rec := chip.DefaultSpec(c, v, workload.Micro())
	rec.MeasureOps = 3000
	rec.RecordTrace = path
	chip.MustRun(rec)
	p, _, err := tracefeed.LoadWorkload(path)
	if err != nil {
		b.Fatal(err)
	}
	var simCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(c, v, p)
		spec.MeasureOps = 3000
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	reportCycleRate(b, simCycles)
}

// BenchmarkChipRunVerify is BenchmarkChipRun with the invariant oracles
// armed (Spec.Verify, default cadence): the ratio between the two is the
// price of paranoia, quoted in DESIGN.md. Only the plain variant is pinned
// by the CI bench gate.
func BenchmarkChipRunVerify(b *testing.B) {
	b.ReportAllocs()
	c := config.Chip16()
	v, _ := config.ByName("Complete_NoAck")
	w := workload.Micro()
	var simCycles int64
	for i := 0; i < b.N; i++ {
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = 3000
		spec.Verify = true
		r := chip.MustRun(spec)
		simCycles += r.SimCycles
		b.ReportMetric(float64(r.Cycles), "cycles")
	}
	reportCycleRate(b, simCycles)
}

// BenchmarkServeSubmitCached measures the service's cache-hit fast path:
// submitting a spec whose results are already memoized. This is the whole
// admission round trip — fingerprint, shard lookup, job bookkeeping —
// without a simulation.
func BenchmarkServeSubmitCached(b *testing.B) {
	b.ReportAllocs()
	srv, err := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	v, _ := config.ByName("Complete_NoAck")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	spec.WarmupOps = 200
	spec.MeasureOps = 500
	if _, err := srv.Submit(spec); err != nil {
		b.Fatal(err)
	}
	for srv.Metrics().Value("serve/jobs_done") == 0 {
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := srv.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("submission missed the cache")
		}
	}
}

// BenchmarkServeSubmitMiss measures admission for a never-seen spec:
// fingerprint, miss in every shard index, in-flight registration, and the
// queue handoff. Workers never start, so no simulation time leaks in.
func BenchmarkServeSubmitMiss(b *testing.B) {
	b.ReportAllocs()
	srv, err := serve.New(serve.Config{Workers: 1, QueueDepth: b.N + 1})
	if err != nil {
		b.Fatal(err)
	}
	v, _ := config.ByName("Complete_NoAck")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	spec.WarmupOps = 200
	spec.MeasureOps = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1) // a fresh fingerprint every iteration
		if _, err := srv.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Queued-but-never-run jobs are expected debris here; drop them.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// BenchmarkCircuitReservation measures the reservation fast path: a
// request-reply pair on complete circuits, end to end.
func BenchmarkCircuitReservation(b *testing.B) {
	b.ReportAllocs()
	opts := core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5}
	m := mesh.New(8, 8)
	mgr := core.NewManager(opts, m)
	net := noc.NewNetwork(core.NetConfigFor(m, opts), mgr, mgr)
	mgr.Bind(net)
	delivered := 0
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			if msg.VN == noc.VNRequest {
				rep := &noc.Message{
					Src: msg.Dst, Dst: msg.Src, VN: noc.VNReply,
					Size: 5, Block: msg.Block,
				}
				net.Send(rep, now)
			} else {
				delivered++
			}
		})
	}
	kernel := sim.NewKernel()
	kernel.Register(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &noc.Message{
			Src: 0, Dst: 63, VN: noc.VNRequest, Size: 1,
			WantCircuit: true, Block: uint64(i+1) * 64,
		}
		net.Send(req, kernel.Now())
		want := delivered + 1
		kernel.RunUntil(func() bool { return delivered >= want }, 10000)
	}
}
