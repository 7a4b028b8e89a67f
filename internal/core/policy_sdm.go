package core

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// sdmPolicy implements spatial-division multiplexing (PAPERS.md: Zaeemi &
// Modarressi, "Ultra Low-Power SDM-based Circuit-Switching for NoCs"): every
// mesh link splits into SDMLanes equal-width lanes, lane 0 stays reserved
// for packet traffic, and each circuit claims one of the remaining lanes
// end-to-end instead of arbitrating the full-width link by time window. Up
// to SDMLanes-1 circuits coexist on one physical channel with no window
// conflicts; the price is serialization — a flit on a 1/L-width lane takes
// L-1 extra cycles per hop, for circuits and packets alike.
//
// The reservation is all-or-nothing like the complete mechanism, but the
// circuit VC keeps its buffer: lane-paced circuit flits legally wait in the
// bypass queue, bounded by the VC's credits. Teardown and undo release
// per-lane entries through the manager's deferred-op epilogue (cycleFlusher).
type sdmPolicy struct {
	completeFamily

	lanes int

	// pendingTear holds the records whose teardown walks were requested
	// this cycle; the epilogue drains them in enqueue order.
	pendingTear []*record
	// tears counts deferred teardown walks.
	tears int64
}

// laneAware is implemented by policies that arbitrate circuits by SDM lane
// instead of the output-port conflict rule; the lane-conservation oracle
// (CheckTables) keys on it.
type laneAware interface {
	LaneCount() int
}

func (p *sdmPolicy) Name() string { return "sdm" }

func (p *sdmPolicy) LaneCount() int { return p.lanes }

func (p *sdmPolicy) Validate(o *Options) error {
	if o.Mechanism != MechComplete {
		return fmt.Errorf("core: policy %q builds on the complete mechanism (set MechComplete)", "sdm")
	}
	if err := validateNotSpeculative(o); err != nil {
		return err
	}
	if o.MaxCircuitsPerPort <= 0 {
		return fmt.Errorf("core: sdm circuits need MaxCircuitsPerPort > 0")
	}
	if o.Timed {
		return fmt.Errorf("core: sdm replaces time windows with lanes; Timed does not apply")
	}
	if o.NoAck {
		// Section 4.6 removes the L1_DATA_ACK only when the reply is
		// guaranteed to ride a non-blocking circuit. Lane-paced flits wait
		// legally (BypassBuffered), so a later forward can overtake the
		// reply; the directory's ack handshake is what closes that race.
		return fmt.Errorf("core: sdm circuits are lane-paced and may stall; NoAck's delivery guarantee does not hold")
	}
	if err := validateTimed(o); err != nil {
		return err
	}
	if o.SDMLanes != 0 && (o.SDMLanes < 2 || o.SDMLanes > 8) {
		return fmt.Errorf("core: sdm needs 2..8 lanes (got %d)", o.SDMLanes)
	}
	return nil
}

// NetConfig keeps the complete variants' single circuit VC but leaves it
// buffered — lane-paced flits wait in the bypass queue under credit flow
// control — and divides every mesh link into the configured lane count.
func (p *sdmPolicy) NetConfig(cfg *noc.NetConfig, o *Options) {
	cfg.ReplyCircuitVCs = 1
	cfg.RepRouting = mesh.RouteYX
	cfg.LinkLanes = orDefault(o.SDMLanes, 4)
}

func (p *sdmPolicy) Attach(mg *Manager) {
	p.lanes = orDefault(mg.opts.SDMLanes, 4)
}

func (p *sdmPolicy) DescribeMetrics(reg *sim.Registry) {
	reg.Counter("circ/sdm_deferred_teardowns", &p.tears)
}

// Reserve claims a free circuit lane on the reply's output link (the port
// the request entered through) and installs the reversed entry. Lane
// exhaustion — every circuit lane of that link already claimed — fails the
// whole circuit, like a window conflict under the complete mechanism.
func (p *sdmPolicy) Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle) {
	if msg.BuildFailed {
		return // a failed all-or-nothing circuit reserves nothing further
	}
	tb := mg.tables[id]
	lane := tb.freeLane(in, p.lanes, now)
	if lane < 0 {
		mg.failCircuit(id, msg, in, now, &mg.Stats.ReserveFailedConflict)
		return
	}
	cvc := mg.circuitVC()
	e := entry{
		built: true, dest: msg.Src, block: msg.Block,
		out: in, outVC: cvc, vc: cvc,
		winStart: 0, winEnd: noWindow, lane: lane,
	}
	ins, ord := tb.insert(out, e, mg.opts.MaxCircuitsPerPort, now)
	if ins == nil {
		mg.failCircuit(id, msg, in, now, &mg.Stats.ReserveFailedStorage)
		return
	}
	if mg.fault != nil && mg.fault.FlipBuiltBit(id, now) {
		ins.built = false
	}
	mg.noteOrdinal(ord)
	mg.net.Events().CircuitWrites++
	w.lastReserved = true
	if mg.tracer != nil {
		mg.tracer.Record(now, trace.Reserve, msg.ID, id,
			fmt.Sprintf("in=%v out=%v lane=%d", out, in, lane))
	}
}

// Teardown defers the lane-releasing undo walk — clearing the entry at the
// circuit's source tile and sending an undo credit down the reply path — to
// the cycle epilogue.
func (p *sdmPolicy) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	p.pendingTear = append(p.pendingTear, rec)
}

// flushCycle drains the deferred teardowns in enqueue order.
func (p *sdmPolicy) flushCycle(mg *Manager, now sim.Cycle) {
	for i, rec := range p.pendingTear {
		p.pendingTear[i] = nil
		p.tears++
		p.basePolicy.Teardown(mg, rec, now)
	}
	p.pendingTear = p.pendingTear[:0]
}

// BypassBuffered: lane pacing makes circuit flits wait legally (in the
// bypass queue, bounded by the circuit VC's credits).
func (p *sdmPolicy) BypassBuffered() bool { return true }

// ConflictChecked is false: entries from different inputs may share an
// output port — on different lanes. The lane-conservation branch of the
// circuit-table oracle replaces the window-conflict rule.
func (p *sdmPolicy) ConflictChecked() bool { return false }
