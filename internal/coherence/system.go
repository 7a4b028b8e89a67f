package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/recycle"
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
// the edge tiles. Register adds all of it to a kernel.
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

	mcNodes  []mesh.NodeID
	mcByTile map[mesh.NodeID]*MemCtrl
	// banks and mcs reduce a line number to its home bank and controller.
	banks, mcs modulus
	// recv holds each tile's delivery callback, made once per System and
	// kept by every rebuild: it points at s, which outlives the rebuild.
	recv []noc.Receiver

	// The two slabs under every controller's array.
	l1Arrays, l2Arrays *cache.Group

	// exclusiveTags is CheckSingleWriter's per-set scratch.
	exclusiveTags []uint64
	// order is the armed delivery-order oracle, or nil.
	order *orderOracle
	// fault is the armed fault injector's coherence seam, or nil.
	fault FaultHook
}

// FaultHook corrupts coherence-layer events for chaos tests
// (internal/fault).
type FaultHook interface {
	// DelayReply returns extra cycles L1 tile waits before taking a NoAck
	// data reply off its queue (0 = none): messages queued behind it are
	// taken first.
	DelayReply(tile mesh.NodeID, now sim.Cycle) sim.Cycle
}

// SetFaultHook arms (or, with nil, disarms) a fault injector on the
// controllers. A rebuilt system comes back disarmed.
func (s *System) SetFaultHook(h FaultHook) { s.fault = h }

// NewSystem builds the chip with empty caches (Init).
func NewSystem(m mesh.Mesh, opts core.Options, mcCount int) *System {
	return new(System).Init(m, opts, mcCount, nil)
}

// Init builds the chip in s and returns s: network (with the mechanism's
// router variant), circuit manager, caches in img's state — empty when img
// is nil — and controllers. mcCount memory controllers are placed on the
// mesh edges (the paper uses 4 for both chip sizes). Unless opts.NoPool,
// the caches are built over arrays a released system left, preferably
// arrays that hold img already (cache.Group.Build). It panics when img is
// of another mesh.
//
// s is zero or a system a cleanly finished run left (chip's machine
// shells, DESIGN.md §4.11), which only a build of the same inputs reuses.
// The rebuild names every field it sets, and every constructor it calls
// does the same, so statistics, histograms, wakers and whatever a run armed
// come back zero; what a rebuild carries over is memory — the network's and
// manager's (noc.Network.Init, core.Manager.Init), the controller objects,
// their queues' slots and emptied maps, the L2s' transaction free lists,
// the tiles' delivery callbacks, and the two cache groups, rebuilt over
// their slabs in img's state.
func (s *System) Init(m mesh.Mesh, opts core.Options, mcCount int, img *Image) *System {
	net, mgr := s.Net, s.Mgr
	// The placement is a function of the mesh and the count: a rebuild of
	// the same inputs keeps it.
	mcNodes := s.mcNodes
	if s.M != m || len(mcNodes) != mcCount {
		mcNodes = m.MemoryControllerNodes(mcCount)
	}
	*s = System{
		M: m, Opts: opts,
		banks:         modulusOf(m.Nodes()),
		mcs:           modulusOf(len(mcNodes)),
		L1s:           recycle.Slice(s.L1s, m.Nodes()),
		L2s:           recycle.Slice(s.L2s, m.Nodes()),
		MCs:           recycle.Slice(s.MCs, len(mcNodes)),
		mcNodes:       mcNodes,
		mcByTile:      recycle.Map(s.mcByTile),
		exclusiveTags: s.exclusiveTags,
		l1Arrays:      recycle.Object(&s.l1Arrays),
		l2Arrays:      recycle.Object(&s.l2Arrays),
		recv:          recycle.Slice(s.recv, m.Nodes()),
	}
	s.Net = recycle.Object(&net)
	cfg := core.NetConfigFor(m, opts)
	if opts.Enabled() {
		s.Mgr = recycle.Object(&mgr).Init(opts, m)
		net.Init(cfg, s.Mgr, s.Mgr)
		s.Mgr.Bind(net)
	} else {
		net.Init(cfg, nil, nil)
	}

	// Addresses are line-interleaved across the L2 banks; each bank strips
	// the bank-select bits before set indexing so it uses its whole array.
	l2cfg := cache.L2BankConfig()
	l2cfg.Interleave = m.Nodes()
	var l1img, l2img *cache.Image
	if img != nil {
		l1img, l2img = img.l1, img.l2
	}
	s.l1Arrays.Build(cache.L1Config(), m.Nodes(), opts.NoPool, l1img)
	s.l2Arrays.Build(l2cfg, m.Nodes(), opts.NoPool, l2img)
	for id := range s.L1s {
		recycle.Object(&s.L1s[id]).init(s, mesh.NodeID(id))
		recycle.Object(&s.L2s[id]).init(s, mesh.NodeID(id))
	}
	for i, id := range s.mcNodes {
		recycle.Object(&s.MCs[i]).init(s, id)
		s.mcByTile[id] = s.MCs[i]
	}
	for id := range s.recv {
		if s.recv[id] == nil {
			tile := mesh.NodeID(id)
			s.recv[id] = func(msg *noc.Message, now sim.Cycle) { s.dispatch(tile, msg, now) }
		}
		s.Net.NI(mesh.NodeID(id)).SetReceiver(s.recv[id])
	}
	return s
}

// Release hands the cache arrays to the next Init; any later access to a
// cache of s panics until s is built again. Optional: an unreleased system
// is garbage-collected.
func (s *System) Release() {
	s.l1Arrays.Release()
	s.l2Arrays.Release()
}

// Image is the state of a system's two cache levels (cache.Image): what a
// prefill leaves behind, which Init builds any system of the same mesh size
// in.
type Image struct{ l1, l2 *cache.Image }

// Capture returns the image of s's caches, or nil when it would take more
// than limit bytes.
func (s *System) Capture(limit int) *Image {
	l1 := s.l1Arrays.Capture(limit)
	if l1 == nil {
		return nil
	}
	l2 := s.l2Arrays.Capture(limit - l1.Bytes())
	if l2 == nil {
		return nil
	}
	return &Image{l1, l2}
}

// Bytes returns the memory the image holds.
func (img *Image) Bytes() int { return img.l1.Bytes() + img.l2.Bytes() }

// DiffCaches returns nil when s and o hold identical cache arrays and
// counters, and otherwise names the first difference.
func (s *System) DiffCaches(o *System) error {
	if err := s.l1Arrays.Diff(o.l1Arrays); err != nil {
		return fmt.Errorf("L1s: %w", err)
	}
	if err := s.l2Arrays.Diff(o.l2Arrays); err != nil {
		return fmt.Errorf("L2 banks: %w", err)
	}
	return nil
}

// MsgsTotal returns a copy of Msgs; rcbench's harvest calls it.
func (s *System) MsgsTotal() MsgStats { return s.Msgs }

// LatTotal returns a copy of Lat; rcbench's harvest calls it.
func (s *System) LatTotal() LatencyStats { return s.Lat }

// HomeBank returns the tile whose L2 bank owns the line (addresses are
// line-interleaved across all banks).
func (s *System) HomeBank(a cache.Addr) mesh.NodeID {
	return mesh.NodeID(s.banks.of(a / lineBytes))
}

// HomeMC returns the memory controller serving the line.
func (s *System) HomeMC(a cache.Addr) mesh.NodeID {
	return s.mcNodes[s.mcs.of(a/lineBytes)]
}

// lineBytes is the line size of every cache in the system (Table 2).
const lineBytes = 64

// modulus reduces a line number modulo a bank or controller count: with a
// mask when the count is a power of two (n == 0), by division otherwise.
type modulus struct{ n, mask uint64 }

func modulusOf(n int) modulus {
	if n&(n-1) == 0 {
		return modulus{mask: uint64(n - 1)}
	}
	return modulus{n: uint64(n)}
}

func (m modulus) of(x uint64) uint64 {
	if m.n == 0 {
		return x & m.mask
	}
	return x % m.n
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
	if s.order != nil && pl.NoAck {
		s.order.sent(src, dst, msg.ID)
	}
}

// canEliminateAck implements the Section 4.6 decision: the L1_DATA_ACK for
// this data reply may be removed only when the reply is guaranteed to reach
// its L1 ahead of anything the bank sends it later — it rides a fully built
// circuit, and the bank's reply VN is idle, so its injection starts within
// two cycles (inside the reserved window, for timed variants). A reply
// queued behind others could be overtaken by a later Fwd or Inv on another
// VN, timed or not.
func (s *System) canEliminateAck(bank, requestor mesh.NodeID, addr cache.Addr, now sim.Cycle) bool {
	if s.Mgr == nil || !s.Opts.NoAck || bank == requestor {
		return false
	}
	complete, timedOK := s.Mgr.HasCircuit(bank, requestor, uint64(addr), now+2)
	return complete && timedOK && s.Net.NI(bank).ReplyIdle()
}

// Register adds the network and every controller to k as individually
// activity-tracked components: routers and NIs first, then each tile's L1
// and L2 interleaved, then the memory controllers, each in its own tick
// class ("l1", "l2", "mc"); the circuit manager's deferred operations drain
// in the cycle epilogue.
func (s *System) Register(k *sim.Kernel) {
	s.Net.Register(k)
	for i := range s.L1s {
		k.Class("l1")
		s.L1s[i].wake = k.Add(s.L1s[i])
		k.Class("l2")
		s.L2s[i].wake = k.Add(s.L2s[i])
	}
	k.Class("mc")
	for _, mc := range s.MCs {
		mc.wake = k.Add(mc)
	}
	// Cycle epilogue: the circuit manager's deferred cross-tile operations.
	if s.Mgr != nil {
		s.Mgr.Register(k)
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
	}
	reg.CounterAt("l1/miss_cycles", func(sim.Cycle) int64 {
		var n int64
		for _, l1 := range s.L1s {
			n += l1.MissCycles
		}
		return n
	})
	reg.CounterAt("l2/blocked_cycles", func(at sim.Cycle) int64 {
		var n int64
		for i := range s.L2s {
			n += s.L2s[i].blockedAt(at)
		}
		return n
	})
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

// Prefill installs a line architecturally before simulation starts — the
// functional cache warming that stands in for the paper's 200M-cycle
// warm-up. The line is filled clean into its home L2 bank; when tile >= 0
// it is also installed in that tile's L1 — exclusively (E, directory owner)
// for private data, shared (S, directory bit) otherwise.
func (s *System) Prefill(a cache.Addr, tile mesh.NodeID, exclusive bool) {
	a &^= lineBytes - 1
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
				oc := s.L2s[s.HomeBank(va)].c
				if old, ok2 := oc.Peek(va); ok2 {
					oc.Dir(old).Remove(int(tile))
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
			l2.Dir(line).Clear()
		} else {
			l2.Dir(line).Add(int(tile))
		}
	}
}

// ResetStats zeroes every measurement aggregate (message mix, latency
// anatomy, power events, circuit statistics, cache counters) after a cache
// warm-up phase, without touching architectural state.
func (s *System) ResetStats() {
	s.Msgs = MsgStats{}
	// The warm-up's reply histogram is this run's own (Init drops the
	// last run's, which its Results hold), so it is cleared in place.
	s.Lat = LatencyStats{CircuitReplyHist: s.Lat.CircuitReplyHist.Reset()}
	s.Net.ResetEvents()
	if s.Mgr != nil {
		s.Mgr.ResetStats()
	}
	for i := range s.L1s {
		c := s.L1s[i].Cache()
		c.Hits, c.Misses, c.Evictions = 0, 0, 0
		s.L1s[i].MissCycles = 0
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
	// first is the earliest cycle an item is due, while there are items:
	// the controller sleeps until then.
	first sim.Cycle
	// scratch is reused across due calls so the per-tick drain allocates
	// nothing in steady state. Handlers may push while iterating the
	// returned slice (pushes go to items), but must not call due again.
	scratch []*noc.Message
}

// emptied returns an empty queue on q's memory.
func (q *procQueue) emptied() procQueue {
	return procQueue{items: recycle.Slice(q.items, 0), scratch: recycle.Slice(q.scratch, 0)}
}

type procItem struct {
	at  sim.Cycle
	msg *noc.Message
}

func (q *procQueue) push(at sim.Cycle, msg *noc.Message) {
	if len(q.items) == 0 || at < q.first {
		q.first = at
	}
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
			if len(rest) == 0 || it.at < q.first {
				q.first = it.at
			}
			rest = append(rest, it)
		}
	}
	q.items = rest
	q.scratch = out
	return out
}

func (q *procQueue) empty() bool { return len(q.items) == 0 }

// sleep puts the controller that owns q and w to sleep until its first
// queued message is due; an empty queue sleeps by quiescence instead.
func (q *procQueue) sleep(w sim.Waker) {
	if !q.empty() {
		w.SleepUntil(q.first)
	}
}
