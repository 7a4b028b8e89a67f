package bench

import (
	"context"
	"fmt"
	"time"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

// The isolated rigs time only the named public calls of one layer. They do
// not depend on the workload: every traced pass runs them, so the layer
// budget and the workload's class times come from one process.

// rigIters scales a rig's loop; Quick shrinks it to a smoke test.
func rigIters(o Options, n int) int {
	if o.Quick {
		return n/50 + 1
	}
	return n
}

// nsPer times fn, which performs n operations, and returns ns per
// operation: the median of five runs.
func nsPer(n int, fn func()) float64 {
	var vs []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		fn()
		vs = append(vs, float64(time.Since(t))/float64(n))
	}
	return median(vs)
}

func runRigs(ctx context.Context, p *Pass, o Options) error {
	rigIdleKernel(p, o)
	rigBusyNetwork(p, o)
	rigManager(p, o)
	rigCache(p, o)
	rigStream(p, o)
	return rigServeAdmit(ctx, p, o)
}

// rigIdleKernel: Kernel.Step on a fully quiescent 8x8 network — what the
// scheduler costs per cycle before any simulation work happens.
func rigIdleKernel(p *Pass, o Options) {
	m := mesh.New(8, 8)
	net := noc.NewNetwork(noc.BaselineConfig(m), nil, nil)
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		net.NI(id).SetReceiver(func(*noc.Message, sim.Cycle) {})
	}
	k := sim.NewKernel()
	net.Register(k)
	k.Run(4) // let the initial active flags settle
	n := rigIters(o, 200_000)
	p.set("sim.kernel.idle_step_ns", nsPer(n, func() { k.Run(sim.Cycle(n)) }))
}

// rigBusyNetwork: Kernel.Step on a closed population of 96 messages kept
// permanently in flight across an 8x8 mesh — the saturated router path.
func rigBusyNetwork(p *Pass, o Options) {
	m := mesh.New(8, 8)
	net := noc.NewNetwork(noc.BaselineConfig(m), nil, nil)
	rng := sim.NewRNG(o.Seed)
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
	k := sim.NewKernel()
	net.Register(k)
	for i := 0; i < 96; i++ {
		inject(0)
	}
	k.Run(500) // reach steady state and fill the pools
	n := rigIters(o, 20_000)
	flits0, cyc0 := net.Events().LinkFlits, k.Now()
	p.set("noc.busy_step_ns", nsPer(n, func() { k.Run(sim.Cycle(n)) }))
	p.set("noc.flit_hops_per_step", float64(net.Events().LinkFlits-flits0)/float64(k.Now()-cyc0))
}

// timedManager wraps core.Manager behind the two interfaces the network
// calls it through, timing and counting every call. It reads the clock
// twice per call, so ns_per_call includes one clock read (clockCostNS).
type timedManager struct {
	mgr   *core.Manager
	ns    int64
	calls int64
}

func (t *timedManager) timed(t0 time.Time) {
	t.ns += int64(time.Since(t0))
	t.calls++
}

func (t *timedManager) OnRequestVA(id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, now sim.Cycle) {
	defer t.timed(time.Now())
	t.mgr.OnRequestVA(id, msg, in, out, now)
}

func (t *timedManager) Bypass(id mesh.NodeID, f *noc.Flit, in mesh.Dir, now sim.Cycle) (mesh.Dir, int, bool) {
	defer t.timed(time.Now())
	return t.mgr.Bypass(id, f, in, now)
}

func (t *timedManager) Release(id mesh.NodeID, f *noc.Flit, in mesh.Dir, now sim.Cycle) {
	defer t.timed(time.Now())
	t.mgr.Release(id, f, in, now)
}

func (t *timedManager) OnUndo(id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	defer t.timed(time.Now())
	return t.mgr.OnUndo(id, tok, in, now)
}

func (t *timedManager) BypassBuffered() bool { return t.mgr.BypassBuffered() }

func (t *timedManager) OnInject(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	defer t.timed(time.Now())
	return t.mgr.OnInject(ni, msg, now)
}

func (t *timedManager) OnDeliver(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) bool {
	defer t.timed(time.Now())
	return t.mgr.OnDeliver(ni, msg, now)
}

// rigManager: an 8x8 network whose circuit handler and NI hook are timing
// wrappers around core.Manager, under seeded request→reply pairs — every
// request reserves a circuit for a 5-flit reply sent 7 cycles after it
// arrives, the coherence protocol's skeleton without the protocol.
func rigManager(p *Pass, o Options) {
	const procDelay, replyFlits = 7, 5
	v, _ := config.ByName("SlackDelay_1_NoAck")
	m := mesh.New(8, 8)
	tm := &timedManager{mgr: core.NewManager(v.Opts, m)}
	net := noc.NewNetwork(core.NetConfigFor(m, v.Opts), tm, tm)
	tm.mgr.Bind(net)

	type pending struct {
		at  sim.Cycle
		msg *noc.Message
	}
	var due []pending
	var replies int
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		id := id
		net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			if msg.VN == noc.VNReply {
				replies++
				return
			}
			due = append(due, pending{now + procDelay, &noc.Message{
				Src: id, Dst: msg.Src, VN: noc.VNReply, Size: replyFlits, Block: msg.Block,
			}})
		})
	}
	k := sim.NewKernel()
	net.Register(k)
	k.AddEpilogue(tm.mgr.FlushCycle)

	rng := sim.NewRNG(o.Seed)
	var block uint64
	cycles := rigIters(o, 40_000)
	for c := 0; c < cycles; c++ {
		now := k.Now()
		if c%4 == 0 { // one new request per four cycles, chip-wide
			src := mesh.NodeID(rng.Intn(m.Nodes()))
			dst := mesh.NodeID(rng.Intn(m.Nodes()))
			if src != dst {
				block += 64
				net.Send(&noc.Message{
					Src: src, Dst: dst, VN: noc.VNRequest, Size: 1, Block: block,
					WantCircuit: true, ExpectedProcDelay: procDelay, ExpectedReplySize: replyFlits,
				}, now)
			}
		}
		rest := due[:0]
		for _, d := range due {
			if d.at <= now {
				net.Send(d.msg, now)
			} else {
				rest = append(rest, d)
			}
		}
		due = rest
		k.Step()
	}
	st := tm.mgr.StatsTotal()
	var reserved int64
	for _, n := range st.Ordinals {
		reserved += n
	}
	failed := st.ReserveFailedStorage + st.ReserveFailedConflict
	if tm.calls > 0 && replies > 0 {
		p.set("core.manager.ns_per_call", float64(tm.ns)/float64(tm.calls))
		p.set("core.manager.calls_per_reply", float64(tm.calls)/float64(replies))
		p.set("core.manager.reserve_ok_pct", pct(float64(reserved), float64(reserved+failed)))
	}
}

// rigCache: cache.Cache lookups with fills on miss, half over a resident
// set (hits) and half over a set four times the cache (misses).
func rigCache(p *Pass, o Options) {
	c := cache.New(cache.L1Config())
	lines := c.Config().SizeBytes / c.Config().LineBytes
	access := func(a cache.Addr) {
		if _, ok := c.Lookup(a); !ok {
			c.Fill(c.Victim(a), a, 1)
		}
	}
	n := rigIters(o, 1_000_000)
	p.set("cache.access_ns", nsPer(n, func() {
		for i := 0; i < n/2; i++ {
			access(cache.Addr(i%(lines/2)) * 64)
		}
		for i := 0; i < n/2; i++ {
			access(cache.Addr(i%(4*lines)) * 64)
		}
	}))
}

// rigStream: the synthetic instruction stream's Next, the call every core
// makes once per retired operation.
func rigStream(p *Pass, o Options) {
	w, _ := workload.ByName("swaptions")
	st := w.StreamGeom(0, 8, 8, o.Seed)
	n := rigIters(o, 1_000_000)
	p.set("workload.next_ns", nsPer(n, func() {
		for i := 0; i < n; i++ {
			st.Next()
		}
	}))
}

// rigServeAdmit: Spec.Fingerprint and Server.Submit called directly, no
// HTTP. Misses are fresh specs queued on a server whose workers never
// start; hits resubmit one spec a started server has already simulated.
func rigServeAdmit(ctx context.Context, p *Pass, o Options) error {
	spec := serveSpec(o, 1)
	n := rigIters(o, 2000)
	p.set("chip.fingerprint_us", nsPer(n, func() {
		for i := 0; i < n; i++ {
			spec.Fingerprint()
		}
	})/1e3)

	// Misses: at most the default queue depth (256), or Submit refuses.
	cold, err := serve.New(serve.Config{Workers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		return fmt.Errorf("bench: admit rig: %w", err)
	}
	misses := rigIters(o, 200)
	t := time.Now()
	for i := 0; i < misses; i++ {
		if _, err := cold.Submit(serveSpec(o, uint64(1000+i))); err != nil {
			return fmt.Errorf("bench: admit rig miss %d: %w", i, err)
		}
	}
	p.set("serve.admit_miss_us", float64(time.Since(t))/1e3/float64(misses))
	_ = cold.Shutdown(ctx) // reports the queued jobs as lost, which is the point

	warm, err := serve.New(serve.Config{Workers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		return fmt.Errorf("bench: admit rig: %w", err)
	}
	warm.Start()
	defer func() { _ = warm.Shutdown(ctx) }() // nothing queued: nothing to lose
	for {
		st, err := warm.Submit(spec)
		if err != nil {
			return fmt.Errorf("bench: admit rig warm-up: %w", err)
		}
		if st.Cached {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	hits := rigIters(o, 2000)
	var notHit error
	p.set("serve.admit_hit_us", nsPer(hits, func() {
		for i := 0; i < hits; i++ {
			if st, err := warm.Submit(spec); err != nil || !st.Cached {
				notHit = fmt.Errorf("bench: admit rig expected a cache hit, got cached=%v, %v", st.Cached, err)
			}
		}
	})/1e3)
	return notHit
}

// serveSpec is serve16's job: a 16-core Complete_NoAck/micro run short
// enough that the service, not the simulation, is what a client waits for.
func serveSpec(o Options, seed uint64) chip.Spec {
	v, _ := config.ByName("Complete_NoAck")
	s := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	s.WarmupOps, s.MeasureOps, s.Seed = 200, 500, seed
	if o.Quick {
		s.WarmupOps, s.MeasureOps = 50, 100
	}
	return s
}
