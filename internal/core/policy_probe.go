package core

import (
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

// Traits: the comparator supports none of the paper's optimizations, and
// its forward entries are structurally outside the reversed-circuit oracles.
func (probePolicy) Traits(Options) Traits {
	return Traits{Forward: true}
}

func (probePolicy) NetConfig(cfg noc.NetConfig, _ Options) noc.NetConfig {
	// Probe setup keeps a buffered circuit VC and baseline routing
	// (probe and reply travel the same direction); replies waiting
	// for their setup must not serialize the interface.
	cfg.ReplyCircuitVCs = 1
	cfg.AllowQueueOvertake = true
	return cfg
}

// Arbitrate lets only setup flits reserve, under the output-port rule on
// the probe's own (forward) ports: the data reply behind it enters and
// leaves through them.
func (probePolicy) Arbitrate(mg *Manager, id mesh.NodeID, msg *noc.Message, port mesh.Dir, e *entry, w *walk, now sim.Cycle) verdict {
	if !msg.SetupProbe {
		return declined
	}
	return portRule(mg, id, port, e, now)
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
	if msg.SetupProbe {
		return now // probes leave immediately
	}
	if !msg.WantCircuit {
		mg.classify(msg, OutcomeNotEligible)
		return now
	}
	key, rec := mg.ownRecord(ni, msg)
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
		mg.regs[ni][key] = mg.newRecord(record{key: key, src: ni})
		return now + 1
	}
	if !rec.probeUp {
		return now + 1 // the setup is still traversing
	}
	delete(mg.regs[ni], key)
	msg.WantCircuit = false
	if rec.failed {
		mg.retire(rec)
		mg.classify(msg, OutcomeFailed)
		return now
	}
	mg.ride(ni, msg, rec, now)
	mg.retire(rec)
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
	mg.ops = append(mg.ops, managerOp{
		kind:   opProbeUp,
		src:    msg.Src,
		key:    circKey{dest: msg.Dst, block: msg.Block},
		failed: msg.BuildFailed,
	})
	// The probe dies here: it exists only to carry the walk.
	mg.net.FreeMessage(msg)
	return true, false
}
