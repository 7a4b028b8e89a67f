package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// fragmentedPolicy keeps partial reservations (Section 4.2, first
// alternative): a router that cannot reserve leaves a gap, the reply rides
// whatever fragments exist and re-enters the normal pipeline at each gap.
// It adds a third, buffered reply VC pair reserved for circuits.
type fragmentedPolicy struct{ basePolicy }

func (fragmentedPolicy) Name() string { return "fragmented" }

func (fragmentedPolicy) Validate(o *Options) error {
	if o.Mechanism != MechFragmented {
		return fmt.Errorf("core: policy %q requires the fragmented mechanism", "fragmented")
	}
	if err := validateNotSpeculative(o); err != nil {
		return err
	}
	if o.Timed || o.Reuse {
		return fmt.Errorf("core: fragmented circuits support neither timing nor reuse")
	}
	if o.NoAck {
		return fmt.Errorf("core: fragmented circuits cannot guarantee delivery order for NoAck")
	}
	if o.MaxCircuitsPerPort <= 0 {
		return fmt.Errorf("core: fragmented circuits need MaxCircuitsPerPort > 0")
	}
	return validateTimed(o)
}

func (fragmentedPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.VCsPerVN[noc.VNReply] = 3
	cfg.ReplyCircuitVCs = 2
	cfg.RepRouting = mesh.RouteYX
}

// Reserve grabs any free reserved VC at this hop; failure keeps the
// partial path and retries at the next hop.
func (fragmentedPolicy) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	cfg := mg.net.Config()
	mg.reserveFragmentedVC(id, msg, in, out, w, cfg.ReplyCircuitVCs, now)
}

// reserveFragmentedVC reserves one of the n reserved reply VCs starting at
// the circuit VC, shared by the fragmented policy (fixed n) and the
// dynamic-VC policy (adaptive per-router n).
func (mg *Manager) reserveFragmentedVC(id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, n int, now sim.Cycle) bool {
	tb := mg.tables[id]
	cfg := mg.net.Config()
	vc := tb.freeVC(out, cfg.CircuitVC(), n, now)
	if vc < 0 {
		// No reserved VC available: keep the partial path and retry at
		// the next hop (Section 4.2, fragmented alternative).
		mg.Stats.ReserveFailedStorage++
		w.prevVC = -1
		w.lastReserved = false
		return false
	}
	e := entry{
		built: true, dest: msg.Src, block: msg.Block,
		out: in, outVC: w.prevVC, vc: vc,
		winStart: 0, winEnd: noWindow,
	}
	ins, ord := tb.insert(out, e, mg.opts.MaxCircuitsPerPort, now)
	if ins == nil {
		mg.Stats.ReserveFailedStorage++
		w.prevVC = -1
		w.lastReserved = false
		return false
	}
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
	msg.ReservedHops++
	w.prevVC = vc
	w.lastReserved = true
	return true
}

// Confirm counts the fragments: complete only when every hop reserved, and
// the injection VC is the first hop's reserved VC when it exists.
func (fragmentedPolicy) Confirm(mg *Manager, ni mesh.NodeID, msg *noc.Message, rec *record, w *walk) {
	rec.reserved = msg.ReservedHops
	rec.complete = msg.ReservedHops == rec.path
	rec.failed = !rec.complete
	if rec.complete {
		mg.Stats.CircuitsBuilt++
	}
	if w.lastReserved {
		rec.injectVC = w.prevVC
	}
}

// Inject rides whatever fragments the request reserved; a wholly
// unreserved path travels as a normal packet.
func (fragmentedPolicy) Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	key := circKey{dest: msg.Dst, block: msg.Block}
	rec := mg.regs[ni][key]
	if rec == nil {
		return mg.injectFallback(ni, msg, now)
	}
	if rec.inUse {
		return now + 1 // a scrounger is riding; wait for it to clear
	}
	delete(mg.regs[ni], key)
	if rec.reserved == 0 {
		mg.classify(msg, OutcomeFailed)
		return now
	}
	msg.UseCircuit = true
	msg.InjectVC = rec.injectVC
	msg.CircDest = msg.Dst
	msg.CircBlock = msg.Block
	if rec.complete {
		mg.classify(msg, OutcomeCircuit)
	} else {
		mg.classify(msg, OutcomeFailed) // partial path still rides its fragments
	}
	return now
}

// Undo walks the reply's deterministic YX path, clearing what exists and
// continuing past gaps so entries beyond a gap are still reclaimed.
func (fragmentedPolicy) Undo(mg *Manager, id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	if mg.tables[id].clear(in, tok.Dest, tok.Block, now) != nil {
		mg.net.Events().CircuitWrites++
	}
	return mg.m.NextDir(mesh.RouteYX, id, tok.Dest), true
}

func (fragmentedPolicy) UndoEligible(rec *record) bool { return rec.reserved > 0 }

// Teardown clears whatever entry is at the source and sends the walk
// toward the destination regardless, tolerating gaps.
func (fragmentedPolicy) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	if mg.tables[rec.src].clear(mesh.Local, rec.key.dest, rec.key.block, now) != nil {
		mg.net.Events().CircuitWrites++
	}
	if fwd := mg.m.NextDir(mesh.RouteYX, rec.src, rec.key.dest); fwd != mesh.Local {
		tok := &noc.UndoToken{Dest: rec.key.dest, Block: rec.key.block}
		mg.net.Router(rec.src).SendUndoCredit(fwd, tok, now)
	}
}

func (fragmentedPolicy) GapTolerant() bool    { return true }
func (fragmentedPolicy) BypassBuffered() bool { return true }
