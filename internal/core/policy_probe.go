package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// probePolicy is the related-work comparator of the paper's reference [7]
// (Déjà-Vu switching): the circuit is set up by a probe flit sent when the
// reply is ready, with the data following behind. Entries are *forward*
// (the data travels the probe's own direction), so the undo walk scans
// toward the setup source rather than following reversed entries.
type probePolicy struct{ basePolicy }

func (probePolicy) Name() string { return "probe-setup" }

func (probePolicy) Validate(o *Options) error {
	if o.Mechanism != MechProbe {
		return fmt.Errorf("core: policy %q requires the probe mechanism", "probe-setup")
	}
	if err := validateNotSpeculative(o); err != nil {
		return err
	}
	if o.Timed || o.Reuse || o.NoAck {
		return fmt.Errorf("core: the probe comparator supports none of the paper's optimizations")
	}
	if o.MaxCircuitsPerPort <= 0 {
		return fmt.Errorf("core: probe setup needs MaxCircuitsPerPort > 0")
	}
	return validateTimed(o)
}

func (probePolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	// Probe setup keeps a buffered circuit VC and baseline routing
	// (probe and reply travel the same direction); replies waiting
	// for their setup must not serialize the interface.
	cfg.ReplyCircuitVCs = 1
	cfg.AllowQueueOvertake = true
}

// Reserve installs a *forward* circuit entry as a setup flit crosses the
// router: the data reply behind it enters and leaves through the probe's
// own ports. On a conflict or full storage the setup fails and the
// already-built prefix is torn down with a backward credit walk.
func (probePolicy) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	if !msg.SetupProbe || msg.BuildFailed {
		return
	}
	tb := mg.tables[id]
	fail := func(counter *int64) {
		msg.BuildFailed = true
		*counter++
		if in != mesh.Local {
			tok := &noc.UndoToken{Dest: msg.Dst, Block: msg.Block}
			mg.net.Router(id).SendUndoCredit(in, tok, now)
		}
	}
	if tb.conflict(in, out, 0, noWindow, now) {
		fail(&mg.Stats.ReserveFailedConflict)
		return
	}
	e := entry{
		built: true, dest: msg.Dst, block: msg.Block,
		out: out, outVC: mg.circuitVC(), vc: mg.circuitVC(),
		winStart: 0, winEnd: noWindow,
	}
	ins, ord := tb.insert(in, e, mg.opts.MaxCircuitsPerPort, now)
	if ins == nil {
		fail(&mg.Stats.ReserveFailedStorage)
		return
	}
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
}

// Inject implements the probe-setup comparator's injection side: an
// eligible reply launches a 1-flit setup flit and may only leave once the
// setup has finished building the whole circuit (the classic setup-delay
// schemes of the paper's references [12, 14]; completion is learned
// instantly here, which is *optimistic* for the comparator). A failed
// setup sends the reply through the normal pipeline. With a 7-cycle L2 hit
// the setup traversal is never hidden — the paper's argument for reserving
// with the request instead.
func (probePolicy) Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	key := circKey{dest: msg.Dst, block: msg.Block}
	rec := mg.regs[ni][key]
	if msg.SetupProbe {
		return now // probes leave immediately
	}
	if !msg.WantCircuit {
		if !msg.Classified {
			mg.classify(msg, OutcomeNotEligible)
		}
		return now
	}
	if rec == nil {
		probe := mg.net.NewMessage()
		probe.ID = mg.net.NextMsgID()
		probe.Src, probe.Dst = ni, msg.Dst
		probe.VN, probe.Size = noc.VNReply, 1
		probe.Block = msg.Block
		probe.WantCircuit = true
		probe.SetupProbe = true
		mg.net.NI(ni).SendFront(probe, now)
		mg.Stats.ProbesSent++
		mg.regs[ni][key] = &record{key: key, src: ni}
		return now + 1
	}
	if !rec.probeUp {
		return now + 1 // the setup is still traversing
	}
	delete(mg.regs[ni], key)
	msg.WantCircuit = false
	if rec.failed {
		mg.classify(msg, OutcomeFailed)
		return now
	}
	msg.UseCircuit = true
	msg.CircDest = msg.Dst
	msg.CircBlock = msg.Block
	mg.Stats.CircuitsBuilt++
	mg.classify(msg, OutcomeCircuit)
	return now
}

// Deliver consumes setup flits at their destination, completing the
// record the waiting reply polls at its source.
func (probePolicy) Deliver(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) (bool, bool) {
	if !msg.SetupProbe {
		return false, true
	}
	if w, _ := msg.Walk.(*walk); w != nil {
		msg.Walk = nil
		mg.freeWalk(w)
	}
	// Tell the waiting reply (at the probe's source) how the setup
	// went — instantaneous here, an optimistic short-cut for the
	// comparator (a real design needs a confirmation message back).
	// The record lives in another tile's registry, so the update lands
	// at the cycle epilogue like every cross-tile mutation.
	mg.deferOp(managerOp{
		kind:   opProbeUp,
		src:    msg.Src,
		key:    circKey{dest: msg.Dst, block: msg.Block},
		failed: msg.BuildFailed,
	})
	// The probe dies here: it exists only to carry the walk.
	mg.net.FreeMessage(msg)
	return true, false
}

// Undo scans every input port for the forward entry (the walk travels
// backward toward the setup source, against the entries' direction).
func (probePolicy) Undo(mg *Manager, id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
		if e := mg.tables[id].clear(d, tok.Dest, tok.Block, now); e != nil {
			mg.net.Events().CircuitWrites++
			return d, true // continue out of the entry's input side
		}
	}
	return 0, false
}

func (probePolicy) BypassBuffered() bool { return true }
