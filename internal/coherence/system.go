package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/stats"
)

// MsgStats counts protocol messages. Network counts only include messages
// that actually traverse the network (Table 1's population); exchanges
// between an L1 and its co-located L2 bank are tallied separately.
type MsgStats struct {
	Network [numMsgTypes]int64
	Local   [numMsgTypes]int64
}

// Count returns the network count for one type.
func (s *MsgStats) Count(t MsgType) int64 { return s.Network[t] }

// Totals returns total network messages and the request subset.
func (s *MsgStats) Totals() (total, requests int64) {
	for t := MsgType(1); t < numMsgTypes; t++ {
		n := s.Network[t]
		total += n
		if !t.IsReply() {
			requests += n
		}
	}
	return total, requests
}

// Fraction returns the share of network messages of type t.
func (s *MsgStats) Fraction(t MsgType) float64 {
	total, _ := s.Totals()
	if total == 0 {
		return 0
	}
	return float64(s.Network[t]) / float64(total)
}

// LatencyStats is the Figure-7 latency anatomy: network and queueing
// latency per message class. Eliminated acknowledgements contribute
// zero-latency samples to OtherReplies, as the paper's methodology states.
type LatencyStats struct {
	Requests       stats.LatencyRecord
	CircuitReplies stats.LatencyRecord // replies eligible for circuits
	OtherReplies   stats.LatencyRecord // acks and L1-to-L1 transfers

	// CircuitReplyHist buckets data-reply network latency (4-cycle
	// buckets) for tail analysis: circuits do not just move the mean,
	// they cut the distribution's tail.
	CircuitReplyHist *stats.Histogram

	// ByType records per-message-type latency anatomy.
	ByType [numMsgTypes]stats.LatencyRecord
}

// TypeRecord returns the latency record of one message type.
func (l *LatencyStats) TypeRecord(t MsgType) *stats.LatencyRecord {
	return &l.ByType[t]
}

// ReplyPercentile returns an upper bound on the p-quantile of the
// circuit-eligible replies' network latency.
func (l *LatencyStats) ReplyPercentile(p float64) int64 {
	if l.CircuitReplyHist == nil {
		return 0
	}
	return l.CircuitReplyHist.Percentile(p)
}

// System assembles the coherent memory hierarchy over one network: an L1
// controller and an L2 bank controller per tile, plus memory controllers on
// the edge tiles. It implements sim.Ticker.
type System struct {
	M    mesh.Mesh
	Opts core.Options
	Net  *noc.Network
	Mgr  *core.Manager // nil for the baseline network

	L1s []*L1Ctrl
	L2s []*L2Ctrl
	MCs []*MemCtrl

	Msgs MsgStats
	Lat  LatencyStats

	mcNodes   []mesh.NodeID
	mcByTile  map[mesh.NodeID]*MemCtrl
	lineBytes uint64

	// The two slabs under every controller's array.
	l1Arrays, l2Arrays *cache.Group
}

// NewSystem builds the chip: network (with the mechanism's router variant),
// circuit manager, caches and controllers. mcCount memory controllers are
// placed on the mesh edges (the paper uses 4 for both chip sizes). Unless
// opts.NoPool, the cache arrays are a released system's when one left any.
func NewSystem(m mesh.Mesh, opts core.Options, mcCount int) *System {
	s := &System{M: m, Opts: opts, lineBytes: 64}
	cfg := core.NetConfigFor(m, opts)
	if opts.Enabled() {
		s.Mgr = core.NewManager(opts, m)
		s.Net = noc.NewNetwork(cfg, s.Mgr, s.Mgr)
		s.Mgr.Bind(s.Net)
	} else {
		s.Net = noc.NewNetwork(cfg, nil, nil)
	}

	s.mcNodes = m.MemoryControllerNodes(mcCount)
	s.mcByTile = map[mesh.NodeID]*MemCtrl{}

	// Addresses are line-interleaved across the L2 banks; each bank strips
	// the bank-select bits before set indexing so it uses its whole array.
	l2cfg := cache.L2BankConfig()
	l2cfg.Interleave = m.Nodes()
	s.l1Arrays = cache.NewGroup(cache.L1Config(), m.Nodes(), opts.NoPool)
	s.l2Arrays = cache.NewGroup(l2cfg, m.Nodes(), opts.NoPool)
	s.L1s = make([]*L1Ctrl, m.Nodes())
	s.L2s = make([]*L2Ctrl, m.Nodes())
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		s.L1s[id] = newL1(s, id)
		s.L2s[id] = newL2(s, id)
	}
	for _, id := range s.mcNodes {
		mc := newMC(s, id)
		s.MCs = append(s.MCs, mc)
		s.mcByTile[id] = mc
	}
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		id := id
		s.Net.NI(id).SetReceiver(func(msg *noc.Message, now sim.Cycle) {
			s.dispatch(id, msg, now)
		})
	}
	return s
}

// Release hands the cache arrays to the next NewSystem; any later access to
// a cache of s panics. Optional: an unreleased system is garbage-collected.
func (s *System) Release() {
	s.l1Arrays.Release()
	s.l2Arrays.Release()
}

// MsgsTotal returns a copy of Msgs; rcbench's harvest calls it.
func (s *System) MsgsTotal() MsgStats { return s.Msgs }

// LatTotal returns a copy of Lat; rcbench's harvest calls it.
func (s *System) LatTotal() LatencyStats { return s.Lat }

// HomeBank returns the tile whose L2 bank owns the line (addresses are
// line-interleaved across all banks).
func (s *System) HomeBank(a cache.Addr) mesh.NodeID {
	return mesh.NodeID((a / s.lineBytes) % uint64(s.M.Nodes()))
}

// HomeMC returns the memory controller serving the line.
func (s *System) HomeMC(a cache.Addr) mesh.NodeID {
	return s.mcNodes[(a/s.lineBytes)%uint64(len(s.mcNodes))]
}

// dispatch routes a delivered message to the tile's controller, recording
// its latency anatomy first.
func (s *System) dispatch(tile mesh.NodeID, msg *noc.Message, now sim.Cycle) {
	if !msg.LocalHop {
		lat := &s.Lat
		net := msg.DeliveredAt - msg.InjectedAt + msg.NetCredit
		queue := msg.InjectedAt - msg.EnqueuedAt + msg.QueueCredit
		t := MsgType(msg.Type)
		if t >= MsgGetS && t < numMsgTypes {
			lat.ByType[t].Add(net, queue)
		}
		switch {
		case !t.IsReply():
			lat.Requests.Add(net, queue)
		case t.CircuitEligibleReply():
			lat.CircuitReplies.Add(net, queue)
			if lat.CircuitReplyHist == nil {
				lat.CircuitReplyHist = stats.NewHistogram(4, 128)
			}
			lat.CircuitReplyHist.Add(int64(net))
		default:
			lat.OtherReplies.Add(net, queue)
		}
	}
	switch MsgType(msg.Type) {
	case MsgFwd, MsgInv, MsgL2Reply, MsgL1ToL1, MsgWBAck:
		s.L1s[tile].deliver(msg, now)
	case MsgGetS, MsgGetX, MsgWBData, MsgDataAck, MsgInvAck, MsgInvAckData,
		MsgMemData, MsgMemAck, MsgFwdMiss:
		s.L2s[tile].deliver(msg, now)
	case MsgMemFetch, MsgMemWB:
		mc := s.mcByTile[tile]
		if mc == nil {
			panic(fmt.Sprintf("coherence: tile %d has no memory controller", tile))
		}
		mc.deliver(msg, now)
	default:
		panic(fmt.Sprintf("coherence: unroutable message type %d at tile %d", msg.Type, tile))
	}
}

// send builds and injects a protocol message. It sets the circuit
// reservation metadata on eligible requests and tallies the message mix.
func (s *System) send(t MsgType, src, dst mesh.NodeID, addr cache.Addr, pl Payload, now sim.Cycle) {
	vn := noc.VNRequest
	if t.IsReply() {
		vn = noc.VNReply
	}
	msg := s.Net.NewMessage()
	msg.Type = int(t)
	msg.Src, msg.Dst = src, dst
	msg.VN, msg.Size = vn, t.SizeFlits()
	msg.Block = uint64(addr)
	msg.Payload = pl.Pack()
	if pl.CircuitUndone {
		msg.OutcomeHint = uint8(core.OutcomeUndone)
	}
	if s.Mgr != nil && src != dst {
		if s.Mgr.RepliesReserve() {
			// Déjà-Vu comparator: data replies announce themselves with
			// a setup probe; requests reserve nothing.
			msg.WantCircuit = t.IsReply() && t.CircuitEligibleReply()
		} else if t.ReservesCircuit() {
			msg.WantCircuit = true
			rep, proc := t.ExpectedReply()
			msg.ExpectedProcDelay = proc
			msg.ExpectedReplySize = rep.SizeFlits()
		}
	}
	if src == dst {
		s.Msgs.Local[t]++
	} else {
		s.Msgs.Network[t]++
	}
	s.Net.Send(msg, now)
}

// canEliminateAck implements the Section 4.6 decision: the L1_DATA_ACK for
// this data reply may be removed only when the reply is guaranteed to ride
// a complete circuit — the circuit is fully built and, for timed variants,
// the injection (which starts within two cycles because the reply VN is
// idle) still falls inside the reserved window.
func (s *System) canEliminateAck(bank, requestor mesh.NodeID, addr cache.Addr, now sim.Cycle) bool {
	if s.Mgr == nil || !s.Opts.NoAck || bank == requestor {
		return false
	}
	complete, timedOK := s.Mgr.HasCircuit(bank, requestor, uint64(addr), now+2)
	if !complete || !timedOK {
		return false
	}
	if s.Opts.Timed && !s.Net.NI(bank).ReplyIdle() {
		return false // queueing could push the reply past its window
	}
	return true
}

// Register adds the network and every controller to k as individually
// activity-tracked components, in the exact order Tick visits them:
// routers and NIs first, then each tile's L1 and L2 interleaved, then the
// memory controllers. A system registered this way must not also be ticked
// monolithically.
func (s *System) Register(k *sim.Kernel) {
	s.Net.Register(k)
	for i := range s.L1s {
		s.L1s[i].wake = k.Add(s.L1s[i])
		s.L2s[i].wake = k.Add(s.L2s[i])
	}
	for _, mc := range s.MCs {
		mc.wake = k.Add(mc)
	}
	// Cycle epilogue: the circuit manager's deferred cross-tile operations.
	if s.Mgr != nil {
		k.AddEpilogue(s.Mgr.FlushCycle)
	}
}

// DescribeMetrics registers the system's counters and gauges with reg:
// network power events, per-layer cache counters (same-name registrations
// sum across tiles), memory-controller operations, and the circuit
// manager's outcome statistics when the mechanism is enabled.
func (s *System) DescribeMetrics(reg *sim.Registry) {
	s.Net.DescribeMetrics(reg)
	for i := range s.L1s {
		c1 := s.L1s[i].Cache()
		reg.Counter("l1/hits", &c1.Hits)
		reg.Counter("l1/misses", &c1.Misses)
		reg.Counter("l1/evictions", &c1.Evictions)
		c2 := s.L2s[i].Cache()
		reg.Counter("l2/hits", &c2.Hits)
		reg.Counter("l2/misses", &c2.Misses)
		reg.Counter("l2/evictions", &c2.Evictions)
		reg.Counter("l2/blocked_cycles", &s.L2s[i].BlockedCycles)
	}
	for _, mc := range s.MCs {
		reg.Counter("mem/fetches", &mc.Fetches)
		reg.Counter("mem/writebacks", &mc.WriteBacks)
	}
	reg.Gauge("sys/net_msgs", func() int64 {
		total, _ := s.Msgs.Totals()
		return total
	})
	if s.Mgr != nil {
		s.Mgr.DescribeMetrics(reg)
	}
}

// Tick advances the network and every controller one cycle.
func (s *System) Tick(now sim.Cycle) {
	s.Net.Tick(now)
	for i := range s.L1s {
		s.L1s[i].Tick(now)
		s.L2s[i].Tick(now)
	}
	for _, mc := range s.MCs {
		mc.Tick(now)
	}
}

// Prefill installs a line architecturally before simulation starts — the
// functional cache warming that stands in for the paper's 200M-cycle
// warm-up. The line is filled clean into its home L2 bank; when tile >= 0
// it is also installed in that tile's L1 — exclusively (E, directory owner)
// for private data, shared (S, directory bit) otherwise.
func (s *System) Prefill(a cache.Addr, tile mesh.NodeID, exclusive bool) {
	a = cache.Addr(uint64(a) &^ (s.lineBytes - 1))
	home := s.HomeBank(a)
	l2 := s.L2s[home].c
	line, ok := l2.Peek(a)
	if !ok {
		v := l2.Victim(a)
		if v == nil {
			return // set pinned; skip this line
		}
		if v.Valid {
			// Evicting a prefilled line of another core: drop its L1
			// copies to preserve inclusion (warm-up only; no traffic).
			va := l2.AddrOf(v, a)
			for i := range s.L1s {
				s.L1s[i].c.Invalidate(va)
			}
		}
		l2.Fill(v, a, l2Clean)
		line = v
	}
	if tile >= 0 {
		l1 := s.L1s[tile].c
		if _, ok := l1.Peek(a); !ok {
			v := l1.Victim(a)
			if v.Valid {
				// Drop the old copy's directory record.
				va := l1.AddrOf(v, a)
				if old, ok2 := s.L2s[s.HomeBank(va)].c.Peek(va); ok2 {
					old.Sharers &^= 1 << uint(tile)
					if old.Owner == int16(tile) {
						old.Owner = -1
					}
				}
			}
			st := l1S
			if exclusive {
				st = l1E
			}
			l1.Fill(v, a, st)
		}
		if exclusive {
			line.Owner = int16(tile)
			line.Sharers = 0
		} else {
			line.Sharers |= 1 << uint(tile)
		}
	}
}

// ResetStats zeroes every measurement aggregate (message mix, latency
// anatomy, power events, circuit statistics, cache counters) after a cache
// warm-up phase, without touching architectural state.
func (s *System) ResetStats() {
	s.Msgs = MsgStats{}
	s.Lat = LatencyStats{}
	s.Net.ResetEvents()
	if s.Mgr != nil {
		s.Mgr.ResetStats()
	}
	for i := range s.L1s {
		c := s.L1s[i].Cache()
		c.Hits, c.Misses, c.Evictions = 0, 0, 0
		c2 := s.L2s[i].Cache()
		c2.Hits, c2.Misses, c2.Evictions = 0, 0, 0
		s.L2s[i].BlockedCycles = 0
	}
	for _, mc := range s.MCs {
		mc.Fetches, mc.WriteBacks = 0, 0
	}
}

// Busy reports whether any transaction, queue or flit is still in flight.
func (s *System) Busy() bool {
	if !s.Net.Quiescent() {
		return true
	}
	for i := range s.L1s {
		if s.L1s[i].busy() || s.L2s[i].busy() {
			return true
		}
	}
	for _, mc := range s.MCs {
		if mc.busy() {
			return true
		}
	}
	return false
}

// procQueue is the shared delayed-processing queue of the controllers:
// every delivered message is handled a fixed access latency after arrival.
type procQueue struct {
	items []procItem
	// scratch is reused across due calls so the per-tick drain allocates
	// nothing in steady state. Handlers may push while iterating the
	// returned slice (pushes go to items), but must not call due again.
	scratch []*noc.Message
}

type procItem struct {
	at  sim.Cycle
	msg *noc.Message
}

func (q *procQueue) push(at sim.Cycle, msg *noc.Message) {
	q.items = append(q.items, procItem{at: at, msg: msg})
}

// due removes and returns the messages scheduled at or before now,
// preserving insertion order.
func (q *procQueue) due(now sim.Cycle) []*noc.Message {
	out := q.scratch[:0]
	rest := q.items[:0]
	for _, it := range q.items {
		if it.at <= now {
			out = append(out, it.msg)
		} else {
			rest = append(rest, it)
		}
	}
	q.items = rest
	q.scratch = out
	return out
}

func (q *procQueue) empty() bool { return len(q.items) == 0 }
