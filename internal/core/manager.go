package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/recycle"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Timing constants of the paper's Section 4.7 estimate: "the number of hops
// between the current router and the destination, the hop latency for the
// request (five cycles/hop) and for the reply (two cycles/hop), and the
// cache hit latency".
const (
	reqHopLatency = 5
	repHopLatency = 2
	// estimateOverhead covers the fixed per-transaction cycles outside
	// the hop terms: the remaining pipeline stages of the reserving
	// router plus ejection (5), destination scheduling (1) and the
	// reply's NI injection turnaround (1). Verified by the timed-circuit
	// calibration test: an undisturbed request yields a reservation the
	// reply meets with zero waiting and zero slack.
	estimateOverhead = 7
	// injectLead is the NI-to-router link latency: a reply injected at
	// cycle t reaches the first router's circuit check at t+injectLead.
	injectLead = 2
)

// circKey names a circuit: the destination (original requestor) plus the
// cache-line address, exactly the identifying pair stored in the routers.
type circKey struct {
	dest  mesh.NodeID
	block uint64
}

// record is the circuit information kept "in the network interface where
// the circuit starts" (the request's destination, where the reply will be
// injected).
type record struct {
	key      circKey
	complete bool // fully built end to end
	failed   bool // could not be (completely) built
	reserved int  // routers reserved (fragmented partial paths)
	path     int  // routers on the full path
	injectVC int  // VC at the first router's local input (0 = allocator's choice)
	timed    bool
	injStart sim.Cycle // earliest reply injection cycle
	injEnd   sim.Cycle // latest reply injection cycle
	inUse    bool      // a scrounger is currently riding the circuit
	src      mesh.NodeID
	// pendingUndo defers teardown until a riding scrounger finishes: the
	// coherence protocol decided to undo the circuit mid-ride.
	pendingUndo bool
	// probeUp marks that the comparator's setup flit has been injected
	// and injStart holds the reply's no-overtake launch cycle.
	probeUp bool
}

// empty reports that nothing was reserved for the record: there is no
// circuit (or fragment) to ride, undo or tear down.
func (r *record) empty() bool { return r.failed && r.reserved == 0 }

// walk is the reservation state a request carries along its path.
type walk struct {
	routers int
	// prevVC is the VC reserved at the previous router (fragmented circuits
	// chain them), or -1 when that router left a gap.
	prevVC int
	// injLo/injHi is the running intersection of per-router injection
	// constraints for timed circuits; an empty intersection means the
	// request's own delays made the schedule infeasible.
	injLo, injHi sim.Cycle
	// sched is the fixed injection cycle of a postponed reservation,
	// pinned at the first router.
	sched    sim.Cycle
	hasSched bool
}

// Manager owns the mechanism-independent circuit state: every router's
// circuit table, every NI's circuit registry, the reservation walks, the
// ways a circuit ends and the statistics of Section 5.2. It plugs into the
// network as both the router-side CircuitHandler and the NI-side NIHook,
// reads the resolved policy's Traits for everything the shared paths need
// to know, and asks the Policy itself only where variants decide
// differently (see policy.go).
type Manager struct {
	opts   Options
	pol    Policy
	traits Traits
	// capacity is the per-input-port entry bound table.insert enforces
	// (0 = unbounded).
	capacity int
	m        mesh.Mesh
	net      *noc.Network

	tables []*table
	regs   []map[circKey]*record
	// walkFree recycles walk objects: a walk lives strictly between the
	// first OnRequestVA on a path and recordCircuit/probe delivery, so a
	// LIFO free-list is deterministic and keeps reservation
	// allocation-free. The walk itself travels on Message.Walk.
	walkFree []*walk
	// recFree recycles records the same way: a record lives from
	// recordCircuit (or a probe's launch) until it has left its registry
	// and no scrounger rides it (retire).
	recFree []*record
	// cand is the candidate entry the reservation walk hands to
	// Policy.Arbitrate. It lives here because a pointer to a local passed
	// through the interface would escape: one allocation per router crossed.
	cand entry

	// Stats aggregates the circuit-construction outcomes (Figure 6,
	// Table 5) for the run.
	Stats Stats

	// ops holds the cross-tile mutations deferred to the cycle epilogue
	// (FlushCycle): scrounger ride releases and probe-completion notices.
	// Applying them at the end of the cycle, in enqueue order, is simulated
	// behaviour the goldens pin. It is the only deferred queue.
	ops []managerOp
	// walksLive/ridesLive count outstanding walks and rides for the
	// quiescence audit.
	walksLive int64
	ridesLive int64

	tracer *trace.Buffer
	fault  FaultHook
}

// managerOp is one deferred cross-tile mutation, applied at FlushCycle.
type managerOp struct {
	kind   uint8
	rec    *record     // opRideRelease: the ridden circuit's record
	src    mesh.NodeID // opProbeUp: the probe's source NI
	key    circKey     // opProbeUp
	failed bool        // opProbeUp
}

const (
	opRideRelease uint8 = iota + 1
	opProbeUp
)

// SetTracer attaches a lifecycle tracer for circuit events (nil detaches).
func (mg *Manager) SetTracer(t *trace.Buffer) { mg.tracer = t }

var (
	_ noc.CircuitHandler = (*Manager)(nil)
	_ noc.NIHook         = (*Manager)(nil)
)

// NewManager builds the mechanism state for a chip of the given mesh. Call
// Bind after constructing the network.
func NewManager(opts Options, m mesh.Mesh) *Manager { return new(Manager).Init(opts, m) }

// Init builds the mechanism state in mg and returns mg. mg is either zero
// or a manager a finished run left (DESIGN.md §4.11): the rebuild names every
// field it sets, so statistics, live counts, the tracer and the fault hook
// come back zero and the policy is resolved afresh. What carries over is
// memory: the tables' entry objects (emptied), the registries (cleared) and
// the walk and record free lists.
func (mg *Manager) Init(opts Options, m mesh.Mesh) *Manager {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	*mg = Manager{
		opts:     opts,
		m:        m,
		tables:   recycle.Slice(mg.tables, m.Nodes()),
		regs:     recycle.Slice(mg.regs, m.Nodes()),
		walkFree: mg.walkFree,
		recFree:  mg.recFree,
		ops:      recycle.Slice(mg.ops, 0),
	}
	for i := range mg.tables {
		recycle.Object(&mg.tables[i]).empty()
		mg.regs[i] = recycle.Map(mg.regs[i])
	}
	mg.pol = mustPolicyFor(opts)
	mg.traits = mg.pol.Traits(&opts)
	if !mg.traits.Unbounded {
		mg.capacity = opts.MaxCircuitsPerPort
	}
	mg.pol.Attach(mg)
	return mg
}

// StatsTotal returns a copy of Stats; rcbench's harvest calls it.
func (mg *Manager) StatsTotal() Stats { return mg.Stats }

// ResetStats zeroes the statistics (post-warm-up measurement reset;
// architectural circuit state is untouched).
func (mg *Manager) ResetStats() { mg.Stats = Stats{} }

// FlushCycle applies the cycle's deferred cross-tile operations in enqueue
// order — ascending NI order, the order the NI phase visits the raising
// tiles. It runs from the kernel epilogue; unit tests driving hooks by hand
// call it directly.
func (mg *Manager) FlushCycle(now sim.Cycle) {
	for i := range mg.ops {
		op := mg.ops[i]
		mg.ops[i] = managerOp{}
		switch op.kind {
		case opRideRelease:
			op.rec.inUse = false
			if op.rec.pendingUndo {
				// The protocol undid the circuit mid-ride; tear it down
				// now that the borrowed flits have cleared every router.
				// Undo took the record out of its registry, so it retires.
				mg.teardown(op.rec, now)
				mg.retire(op.rec)
			}
		case opProbeUp:
			if rec := mg.regs[op.src][op.key]; rec != nil {
				rec.probeUp = true
				rec.failed = op.failed
				rec.complete = !op.failed
			}
		}
	}
	mg.ops = mg.ops[:0]
}

// NetConfigFor returns the network microarchitecture the selected policy
// needs: the baseline Table 4 router, the fragmented variant's third
// buffered reply VC, the complete variants' unbuffered circuit VC, or
// whatever a registered policy asks for. Circuit policies route requests
// XY and replies YX so both traverse the same routers.
func NetConfigFor(m mesh.Mesh, opts Options) noc.NetConfig {
	cfg := noc.BaselineConfig(m)
	cfg.NoPool = opts.NoPool
	mustPolicyFor(opts).NetConfig(&cfg, &opts)
	return cfg
}

// Bind attaches the manager to its network (needed for undo walks and
// scrounger re-injection).
func (mg *Manager) Bind(net *noc.Network) { mg.net = net }

// RepliesReserve reports whether circuits are set up by the replies
// themselves (a setup flit ahead of the data, the probe comparator) rather
// than by the requests that provoke them.
func (mg *Manager) RepliesReserve() bool { return mg.traits.Forward }

// circuitVC returns the reply VC index circuits travel on in the complete
// and ideal mechanisms.
func (mg *Manager) circuitVC() int {
	return mg.net.Config().CircuitVC()
}

// newWalk returns a reset walk from the free-list (or a fresh one) and
// counts it live.
func (mg *Manager) newWalk() *walk {
	var w *walk
	if n := len(mg.walkFree); n > 0 {
		w = mg.walkFree[n-1]
		mg.walkFree[n-1] = nil
		mg.walkFree = mg.walkFree[:n-1]
	} else {
		w = new(walk)
	}
	mg.walksLive++
	*w = walk{prevVC: -1, injLo: -1 << 60, injHi: 1 << 60}
	return w
}

// freeWalk retires w to the free-list.
func (mg *Manager) freeWalk(w *walk) {
	if w != nil {
		mg.walkFree = append(mg.walkFree, w)
		mg.walksLive--
	}
}

// newRecord returns a record holding r, from the free list when one is
// there.
func (mg *Manager) newRecord(r record) *record {
	var p *record
	if n := len(mg.recFree); n > 0 {
		p = mg.recFree[n-1]
		mg.recFree[n-1] = nil
		mg.recFree = mg.recFree[:n-1]
	} else {
		p = new(record)
	}
	*p = r
	return p
}

// retire recycles rec, which has left its registry. While a scrounger
// rides it, msg.Ride and the ride's release still hold it: the release
// retires it then (FlushCycle) if Undo deferred a teardown, and otherwise
// the GC takes it. With pooling disabled (Options.NoPool) every record
// stays fresh.
func (mg *Manager) retire(rec *record) {
	if rec.inUse || mg.opts.NoPool {
		return
	}
	*rec = record{}
	mg.recFree = append(mg.recFree, rec)
}

// ---------------------------------------------------------------------------
// Router-side hooks (noc.CircuitHandler)
// ---------------------------------------------------------------------------

// OnRequestVA is the reservation walk: at every router a circuit-wanting
// message crosses, in parallel with its VC allocation, build the candidate
// entry, ask the policy whether it may be installed, and run the one install
// path or the one failure path. A request reserves for its reply — the reply
// will enter via port out (where the request leaves) and exit via port in
// (where the request entered) — while a Forward policy's setup flit reserves
// its own direction.
func (mg *Manager) OnRequestVA(id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, now sim.Cycle) {
	w, _ := msg.Walk.(*walk)
	if w == nil {
		w = mg.newWalk()
		msg.Walk = w
	}
	w.routers++
	if msg.BuildFailed {
		return // a failed all-or-nothing circuit reserves nothing further
	}
	cvc := mg.circuitVC()
	e, port := &mg.cand, out
	*e = entry{
		built: true, dest: msg.Src, block: msg.Block,
		out: in, outVC: cvc, vc: cvc,
		winEnd: noWindow, // untimed until the policy sets a window
	}
	if mg.traits.Forward {
		e.dest, e.out, port = msg.Dst, out, in
	}

	v := mg.pol.Arbitrate(mg, id, msg, port, e, w, now)
	var ins *entry
	var ord int
	if v == granted {
		if ins, ord = mg.tables[id].insert(port, *e, mg.capacity, now); ins == nil {
			v = noStorage
		}
	}
	if v != granted {
		mg.refuse(v, id, msg, in, e.dest, w, now)
		return
	}

	if mg.fault != nil {
		if ins.timed() {
			if end, ok := mg.fault.TruncateWindow(id, ins.winStart, ins.winEnd, now); ok {
				ins.winEnd = end
			}
		}
		if mg.fault.FlipBuiltBit(id, now) {
			ins.built = false
		}
	}
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
	msg.ReservedHops++
	w.prevVC = e.vc
	if mg.tracer != nil {
		note := fmt.Sprintf("in=%v out=%v", port, e.out)
		if e.timed() {
			note += fmt.Sprintf(" window=[%d,%d]", e.winStart, e.winEnd)
		}
		if e.lane > 0 {
			note += fmt.Sprintf(" lane=%d", e.lane)
		}
		mg.tracer.Record(now, trace.Reserve, msg.ID, id, note)
	}
}

// refuse is the walk's one failure path. A declined message drops its
// circuit wish before any state exists and travels on as a plain packet.
// Otherwise a Partial policy keeps the path reserved so far, leaves a gap
// and retries at the next hop (Section 4.2, fragmented alternative), while
// an all-or-nothing policy fails the whole circuit and tears down the prefix
// reserved so far with an undo credit sent back the way the message came —
// except timed prefixes, which self-expire when their finish counters run
// out.
func (mg *Manager) refuse(v verdict, id mesh.NodeID, msg *noc.Message, in mesh.Dir, dest mesh.NodeID, w *walk, now sim.Cycle) {
	switch v {
	case declined:
		msg.WantCircuit = false // downstream routers skip reservation entirely
		msg.Walk = nil
		mg.freeWalk(w)
		return
	case noStorage:
		mg.Stats.ReserveFailedStorage++
	default:
		mg.Stats.ReserveFailedConflict++
	}
	if mg.traits.Partial {
		w.prevVC = -1
		return
	}
	msg.BuildFailed = true
	if mg.opts.Timed || in == mesh.Local {
		return
	}
	mg.net.Router(id).SendUndoCredit(in, noc.UndoToken{Dest: dest, Block: msg.Block}, now)
}

// noteOrdinal counts a reservation that was the ord-th simultaneous circuit
// at its input port (Table 5; the last bucket absorbs deeper tables).
func (mg *Manager) noteOrdinal(ord int) {
	if ord >= 1 {
		mg.Stats.Ordinals[min(ord, len(mg.Stats.Ordinals))-1]++
	}
}

// Bypass implements the input-unit circuit check of Figure 3.
func (mg *Manager) Bypass(id mesh.NodeID, f *noc.Flit, in mesh.Dir, now sim.Cycle) (mesh.Dir, int, bool) {
	msg := f.Msg
	if !msg.UseCircuit {
		return 0, 0, false
	}
	e := mg.tables[id].find(in, msg.CircDest, msg.CircBlock, now)
	if e == nil {
		if mg.traits.Partial {
			return 0, 0, false // gap in a fragmented circuit: normal pipeline
		}
		panic(fmt.Sprintf("core: reply msg %d expected a circuit at router %d port %v (invariant violated)", msg.ID, id, in))
	}
	if f.Head {
		if e.inUse != nil && e.inUse != msg {
			panic(fmt.Sprintf("core: circuit (%d,%#x) at router %d double-claimed", e.dest, e.block, id))
		}
		e.inUse = msg
	} else if e.inUse != msg {
		panic(fmt.Sprintf("core: body flit of msg %d on unclaimed circuit at router %d", msg.ID, id))
	}
	if mg.traits.Partial && e.outVC < 0 && e.out != mesh.Local {
		// The next hop is not reserved: the flits re-enter the normal
		// pipeline from this reserved VC's buffer; the entry frees when
		// the tail has arrived.
		if f.Tail {
			e.built = false
			e.inUse = nil
			mg.net.Events().CircuitWrites++
		}
		return 0, 0, false
	}
	outVC := e.outVC
	if outVC < 0 {
		outVC = 0
	}
	// The flit inherits the circuit's SDM lane for its next link traversal
	// (0 — the packet lane's slot — under lane-less policies).
	f.Lane = e.lane
	return e.out, outVC, true
}

// Release frees a circuit when a tail flit leaves a router on it; a
// scrounger only releases its claim so the owner can still ride.
func (mg *Manager) Release(id mesh.NodeID, f *noc.Flit, in mesh.Dir, now sim.Cycle) {
	e := mg.tables[id].find(in, f.Msg.CircDest, f.Msg.CircBlock, now)
	if e == nil || e.inUse != f.Msg {
		return
	}
	e.inUse = nil
	if !f.Msg.Scrounging {
		e.built = false
		mg.net.Events().CircuitWrites++
	}
}

// OnUndo clears the reservation named by the token at this router and
// steers the walk onward. Forward entries (the probe comparator) are
// scanned for at every input and the walk heads back toward the setup
// source; a Partial path is walked along the YX reply route past its gaps,
// so entries beyond a gap are still reclaimed; otherwise the walk follows
// the cleared entry's output port toward the circuit destination and stops
// where no entry is found.
func (mg *Manager) OnUndo(id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	switch {
	case mg.traits.Forward:
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			if mg.clearEntry(id, d, tok.Dest, tok.Block, now) != nil {
				return d, true // continue out of the entry's input side
			}
		}
		return 0, false
	case mg.traits.Partial:
		mg.clearEntry(id, in, tok.Dest, tok.Block, now)
		return mg.m.NextDir(mesh.RouteYX, id, tok.Dest), true
	}
	if e := mg.clearEntry(id, in, tok.Dest, tok.Block, now); e != nil {
		return e.out, true
	}
	return 0, false
}

// clearEntry removes the live entry for (dest, block) at input in of router
// id, charging the table write, and returns it (nil when none is live).
func (mg *Manager) clearEntry(id mesh.NodeID, in mesh.Dir, dest mesh.NodeID, block uint64, now sim.Cycle) *entry {
	e := mg.tables[id].clear(in, dest, block, now)
	if e != nil {
		mg.net.Events().CircuitWrites++
	}
	return e
}

// BypassBuffered reports whether circuit flits may wait in buffers: exactly
// when the circuit VC kept its buffer. Only the complete mechanism's
// unbuffered VC must never block a circuit flit.
func (mg *Manager) BypassBuffered() bool {
	return !mg.net.Config().CircuitVCUnbuffered
}

// ---------------------------------------------------------------------------
// NI-side hooks (noc.NIHook)
// ---------------------------------------------------------------------------

// OnInject classifies and steers a message about to leave its source NI.
// For requests it is a no-op. For replies the policy decides: ride the
// circuit the request built, wait for (or miss) a timed slot, scrounge a
// foreign circuit, or travel as a normal packet.
func (mg *Manager) OnInject(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	if msg.VN != noc.VNReply || msg.Scrounging {
		return now
	}
	return mg.pol.Inject(mg, ni, msg, now)
}

// ownRecord looks up the registry record of msg's own circuit at NI ni.
func (mg *Manager) ownRecord(ni mesh.NodeID, msg *noc.Message) (circKey, *record) {
	key := circKey{dest: msg.Dst, block: msg.Block}
	return key, mg.regs[ni][key]
}

// ride puts msg on the circuit rec describes, its own.
func (mg *Manager) ride(ni mesh.NodeID, msg *noc.Message, rec *record, now sim.Cycle) {
	msg.UseCircuit = true
	msg.InjectVC = rec.injectVC
	msg.CircDest = msg.Dst
	msg.CircBlock = msg.Block
	if mg.tracer != nil {
		mg.tracer.Record(now, trace.CircuitRide, msg.ID, ni,
			fmt.Sprintf("dest=%d block=%#x", msg.Dst, msg.Block))
	}
}

// injectFallback is the shared path for a reply with no circuit of its
// own: try borrowing one (scrounger messages, when Reuse is on), then
// classify by the coherence layer's hint.
func (mg *Manager) injectFallback(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	if msg.Classified {
		return now // a continuation leg already classified
	}
	if mg.opts.Reuse {
		if r := mg.scroungeTarget(ni, msg); r != nil {
			r.inUse = true
			msg.Ride = r
			mg.ridesLive++
			msg.Scrounging = true
			msg.FinalDst = msg.Dst
			msg.Dst = r.key.dest
			msg.UseCircuit = true
			msg.InjectVC = r.injectVC
			msg.CircDest = r.key.dest
			msg.CircBlock = r.key.block
			mg.classify(msg, OutcomeScrounger)
			mg.Stats.ScroungerRides++
			if mg.tracer != nil {
				mg.tracer.Record(now, trace.Scrounge, msg.ID, ni,
					fmt.Sprintf("rides (%d,%#x) toward %d", r.key.dest, r.key.block, msg.FinalDst))
			}
			return now
		}
	}
	if msg.OutcomeHint != 0 {
		mg.classify(msg, Outcome(msg.OutcomeHint))
	} else {
		mg.classify(msg, OutcomeNotEligible)
	}
	return now
}

// scroungeTarget picks the idle complete circuit at this NI that brings the
// reply closest to its destination, if any helps at all.
func (mg *Manager) scroungeTarget(ni mesh.NodeID, msg *noc.Message) *record {
	var best *record
	bestGain := 0
	from := mg.m.Hops(ni, msg.Dst)
	for _, r := range mg.regs[ni] {
		if !r.complete || r.failed || r.inUse || r.timed {
			continue
		}
		gain := from - mg.m.Hops(r.key.dest, msg.Dst)
		// Ties break on the circuit key, not map order: iteration order is
		// randomized per run, and a wandering pick here diverges whole runs.
		better := gain > bestGain
		if gain == bestGain && best != nil {
			better = r.key.dest < best.key.dest ||
				(r.key.dest == best.key.dest && r.key.block < best.key.block)
		}
		if better {
			best, bestGain = r, gain
		}
	}
	return best
}

func (mg *Manager) classify(msg *noc.Message, o Outcome) {
	if msg.Classified {
		return
	}
	msg.Classified = true
	mg.Stats.Replies[o]++
}

// OnDeliver finalizes a request's circuit record at the NI where its reply
// will start, and re-injects scrounger messages toward their destination.
// The policy's Deliver hook runs first (the probe comparator consumes its
// setup flits there).
func (mg *Manager) OnDeliver(ni mesh.NodeID, msg *noc.Message, now sim.Cycle) bool {
	if handled, deliver := mg.pol.Deliver(mg, ni, msg, now); handled {
		return deliver
	}
	if msg.VN == noc.VNRequest {
		if msg.WantCircuit {
			mg.recordCircuit(ni, msg)
		}
		return true
	}
	if msg.Scrounging {
		rec, _ := msg.Ride.(*record)
		if rec == nil {
			panic(fmt.Sprintf("core: scrounger msg %d has no ride record", msg.ID))
		}
		msg.Ride = nil
		mg.ridesLive--
		// The ridden record usually lives at another tile's registry:
		// releasing it (and any pending teardown) is deferred to the cycle
		// epilogue, after the borrowed flits cleared every router.
		mg.ops = append(mg.ops, managerOp{kind: opRideRelease, rec: rec})
		// Preserve the latency already spent, then continue toward the
		// real destination as a fresh injection.
		msg.QueueCredit += msg.InjectedAt - msg.EnqueuedAt
		msg.NetCredit += msg.DeliveredAt - msg.InjectedAt
		msg.Src = ni
		msg.Dst = msg.FinalDst
		msg.Scrounging = false
		msg.UseCircuit = false
		msg.InjectVC = 0
		msg.CircDest = 0
		msg.CircBlock = 0
		mg.net.NI(ni).Send(msg, now)
		return false
	}
	return true
}

// recordCircuit stores the finished reservation walk in this NI's registry.
// It runs strictly after every Arbitrate of the walk: a request's final
// router runs its VA stage before the NI delivers the tail flit. An
// all-or-nothing circuit is complete exactly when no router failed and is
// injected on the circuit VC; a Partial one counts its fragments, is
// complete only when every hop reserved, and is injected on the first hop's
// reserved VC when it exists. Timed records carry the accumulated injection
// window.
func (mg *Manager) recordCircuit(ni mesh.NodeID, msg *noc.Message) {
	w, _ := msg.Walk.(*walk)
	msg.Walk = nil
	if w == nil {
		// Zero-hop paths never touched a router; synthesize an empty walk.
		w = mg.newWalk()
	}
	defer mg.freeWalk(w)
	key := circKey{dest: msg.Src, block: msg.Block}
	rec := mg.newRecord(record{key: key, path: mg.m.Hops(msg.Src, msg.Dst) + 1, src: ni})
	if mg.traits.Partial {
		rec.reserved = msg.ReservedHops
		rec.complete = msg.ReservedHops == rec.path
		if w.prevVC >= 0 {
			rec.injectVC = w.prevVC
		}
	} else {
		rec.complete = !msg.BuildFailed
		rec.injectVC = mg.circuitVC()
	}
	rec.failed = !rec.complete
	if rec.complete {
		mg.Stats.CircuitsBuilt++
		if mg.opts.Timed {
			rec.timed = true
			rec.injStart, rec.injEnd = w.injLo, w.injHi
		}
	}
	mg.regs[ni][key] = rec
	if mg.tracer != nil {
		if rec.complete {
			note := fmt.Sprintf("dest=%d block=%#x", key.dest, key.block)
			if rec.timed {
				note += fmt.Sprintf(" window=[%d,%d]", rec.injStart, rec.injEnd)
			}
			mg.tracer.Record(msg.DeliveredAt, trace.CircuitBuilt, msg.ID, ni, note)
		} else {
			mg.tracer.Record(msg.DeliveredAt, trace.CircuitFailed, msg.ID, ni,
				fmt.Sprintf("dest=%d block=%#x reserved=%d/%d", key.dest, key.block, rec.reserved, rec.path))
		}
	}
}

// ---------------------------------------------------------------------------
// Coherence-protocol entry points
// ---------------------------------------------------------------------------

// Undo tears down the circuit starting at NI ni for (dest, block) before
// use — the coherence protocol calls this when an L2 forwards a request to
// an owning L1 and the L2→requestor circuit will never carry data. It
// reports whether a built circuit was actually undone.
func (mg *Manager) Undo(ni mesh.NodeID, dest mesh.NodeID, block uint64, now sim.Cycle) bool {
	key := circKey{dest: dest, block: block}
	rec := mg.regs[ni][key]
	if rec == nil {
		return false
	}
	delete(mg.regs[ni], key)
	if rec.empty() {
		mg.retire(rec)
		return false // nothing built to undo
	}
	mg.Stats.CircuitsUndone++
	if mg.tracer != nil {
		mg.tracer.Record(now, trace.CircuitUndone, 0, ni,
			fmt.Sprintf("dest=%d block=%#x (forwarded request)", dest, block))
	}
	if rec.inUse {
		rec.pendingUndo = true // a scrounger is riding; tear down after it
	} else {
		mg.teardown(rec, now)
	}
	mg.retire(rec)
	return true
}

// teardown reclaims the router entries of a circuit the coherence protocol
// abandoned. Timed entries self-expire when their finish counters run out.
// An Unbounded policy (the ideal bound) clears the whole reply path at
// once. Every other circuit clears its entry at the first router and sends
// an undo credit down the YX reply path for the rest; a Partial path may
// have a gap there and walks on regardless.
func (mg *Manager) teardown(rec *record, now sim.Cycle) {
	src, dest, block := rec.src, rec.key.dest, rec.key.block
	switch {
	case mg.opts.Timed:
		return
	case mg.traits.Unbounded:
		mg.replyPath(src, dest, func(_ int, node mesh.NodeID, in mesh.Dir) bool {
			mg.clearEntry(node, in, dest, block, now)
			return true
		})
		return
	}
	if mg.clearEntry(src, mesh.Local, dest, block, now) == nil && !mg.traits.Partial {
		return
	}
	if next := mg.m.NextDir(mesh.RouteYX, src, dest); next != mesh.Local {
		mg.net.Router(src).SendUndoCredit(next, noc.UndoToken{Dest: dest, Block: block}, now)
	}
}

// replyPath visits the routers of the YX reply path from src to dest in
// order, each with its hop index and the input port the reply enters it
// through, until visit returns false.
func (mg *Manager) replyPath(src, dest mesh.NodeID, visit func(hop int, node mesh.NodeID, in mesh.Dir) bool) {
	node, in := src, mesh.Local
	for hop := 0; visit(hop, node, in) && node != dest; hop++ {
		d := mg.m.NextDir(mesh.RouteYX, node, dest)
		node, _ = mg.m.Neighbor(node, d)
		in = d.Opposite()
	}
}

// HasCircuit reports whether a complete circuit for (dest, block) is
// registered at NI ni, and whether a timed one's window is still open — the
// coherence layer uses it to decide whether a data reply will ride a
// complete circuit and its L1_DATA_ACK can be eliminated.
func (mg *Manager) HasCircuit(ni mesh.NodeID, dest mesh.NodeID, block uint64, now sim.Cycle) (complete, timedOK bool) {
	rec := mg.regs[ni][circKey{dest: dest, block: block}]
	if rec == nil || rec.failed || !rec.complete {
		return false, false
	}
	if rec.timed && now > rec.injEnd {
		return true, false
	}
	return true, true
}

// NoteEliminatedAck counts an L1_DATA_ACK removed by the NoAck
// optimization at NI ni; the paper counts these replies at zero latency.
func (mg *Manager) NoteEliminatedAck(ni mesh.NodeID, now sim.Cycle) {
	mg.Stats.Replies[OutcomeEliminated]++
	mg.Stats.EliminatedAcks++
	if mg.tracer != nil {
		mg.tracer.Record(now, trace.AckEliminated, 0, ni, "")
	}
}

// OpenCircuits returns how many reservations are live across every router
// table at cycle now — the occupancy level the metrics gauge samples.
func (mg *Manager) OpenCircuits(now sim.Cycle) int64 {
	var n int64
	for _, tb := range mg.tables {
		for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
			n += int64(tb.activeCount(d, now))
		}
	}
	return n
}

// DescribeMetrics registers the circuit-construction counters with reg
// under the circ/ scope. The occupancy gauge needs the current cycle and is
// registered by the chip layer, which owns the kernel.
func (mg *Manager) DescribeMetrics(reg *sim.Registry) {
	st := &mg.Stats
	reg.Counter("circ/built", &st.CircuitsBuilt)
	reg.Counter("circ/undone", &st.CircuitsUndone)
	reg.Counter("circ/scrounger_rides", &st.ScroungerRides)
	reg.Counter("circ/eliminated_acks", &st.EliminatedAcks)
	reg.Counter("circ/probes", &st.ProbesSent)
	reg.Counter("circ/reserve_failed_storage", &st.ReserveFailedStorage)
	reg.Counter("circ/reserve_failed_conflict", &st.ReserveFailedConflict)
	reg.Counter("circ/waited_for_window", &st.WaitedForWindow)
	mg.pol.DescribeMetrics(reg)
}
