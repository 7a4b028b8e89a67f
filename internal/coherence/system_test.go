package coherence

import (
	"slices"
	"strings"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// tb drives a System with scripted per-core accesses.
type tb struct {
	t      *testing.T
	sys    *System
	kernel *sim.Kernel
	done   []bool
}

func newTB(t *testing.T, w, h int, opts core.Options) *tb {
	t.Helper()
	b := &tb{t: t, sys: NewSystem(mesh.New(w, h), opts, 4), kernel: sim.NewKernel()}
	b.done = make([]bool, b.sys.M.Nodes())
	for i := range b.sys.L1s {
		i := i
		b.sys.L1s[i].SetMissHandler(func(now sim.Cycle) { b.done[i] = true })
	}
	b.sys.Register(b.kernel)
	return b
}

// sharerTiles lists the tiles in l's directory sharer set, ascending.
func sharerTiles(bank *cache.Cache, l *cache.Line) []int {
	var tiles []int
	bank.Dir(l).Each(func(t int) { tiles = append(tiles, t) })
	return tiles
}

// access performs one access on core id and runs until it completes,
// returning the miss latency in cycles (0 for a hit).
func (b *tb) access(id int, addr cache.Addr, write bool) sim.Cycle {
	b.t.Helper()
	start := b.kernel.Now()
	b.done[id] = false
	if b.sys.L1s[id].Access(addr, write, start) {
		return 0
	}
	if _, ok := b.kernel.RunUntil(func() bool { return b.done[id] }, 100000); !ok {
		b.t.Fatalf("core %d access %#x did not complete", id, addr)
	}
	return b.kernel.Now() - start
}

// drain runs until the whole system is idle.
func (b *tb) drain() {
	b.t.Helper()
	if _, ok := b.kernel.RunUntil(func() bool { return !b.sys.Busy() }, 100000); !ok {
		b.t.Fatal("system did not drain")
	}
}

// remoteAddr returns a line address whose home bank is tile `home`.
func (b *tb) remoteAddr(home int, k int) cache.Addr {
	n := uint64(b.sys.M.Nodes())
	return cache.Addr(uint64(home)*64 + uint64(k)*64*n)
}

func TestColdReadMissFromMemory(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0) // home bank at tile 3, requestor tile 0
	lat := b.access(0, addr, false)
	b.drain()

	if lat <= MemLatency {
		t.Fatalf("cold miss latency %d should exceed memory latency", lat)
	}
	line, ok := b.sys.L1s[0].Cache().Peek(addr)
	if !ok || line.State != l1E {
		t.Fatalf("requestor should hold the line in E, got %+v ok=%v", line, ok)
	}
	l2line, ok := b.sys.L2s[3].Cache().Peek(addr)
	if !ok || l2line.Owner != 0 {
		t.Fatalf("home bank should record owner 0, got %+v ok=%v", l2line, ok)
	}
	m := &b.sys.Msgs
	for _, want := range []struct {
		t MsgType
		n int64
	}{
		{MsgGetS, 1}, {MsgMemFetch, 1}, {MsgMemData, 1}, {MsgL2Reply, 1}, {MsgDataAck, 1},
	} {
		if got := m.Count(want.t); got != want.n {
			t.Errorf("%v count %d, want %d", want.t, got, want.n)
		}
	}
}

func TestReadHitAfterFill(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, false)
	if lat := b.access(0, addr, false); lat != 0 {
		t.Fatalf("second read should hit, latency %d", lat)
	}
	if lat := b.access(0, addr+8, false); lat != 0 {
		t.Fatalf("same-line offset should hit, latency %d", lat)
	}
}

func TestForwardedReadSharesLine(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, false) // tile 0 becomes exclusive owner
	b.access(1, addr, false) // forwarded; both end shared
	b.drain()

	m := &b.sys.Msgs
	if m.Count(MsgFwd) != 1 || m.Count(MsgL1ToL1) != 1 {
		t.Fatalf("fwd/L1toL1 = %d/%d, want 1/1", m.Count(MsgFwd), m.Count(MsgL1ToL1))
	}
	for _, id := range []int{0, 1} {
		line, ok := b.sys.L1s[id].Cache().Peek(addr)
		if !ok || line.State != l1S {
			t.Fatalf("tile %d should hold S, got %+v ok=%v", id, line, ok)
		}
	}
	bank := b.sys.L2s[3].Cache()
	l2line, _ := bank.Peek(addr)
	if got := sharerTiles(bank, l2line); l2line.Owner != -1 || !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("directory after share: owner=%d sharers=%v", l2line.Owner, got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, false)
	b.access(1, addr, false) // 0 and 1 share
	b.access(2, addr, true)  // 2 writes: invalidate both
	b.drain()

	m := &b.sys.Msgs
	if m.Count(MsgInv) != 2 || m.Count(MsgInvAck) != 2 {
		t.Fatalf("inv/ack = %d/%d, want 2/2", m.Count(MsgInv), m.Count(MsgInvAck))
	}
	for _, id := range []int{0, 1} {
		if _, ok := b.sys.L1s[id].Cache().Peek(addr); ok {
			t.Fatalf("tile %d copy survived invalidation", id)
		}
	}
	line, ok := b.sys.L1s[2].Cache().Peek(addr)
	if !ok || line.State != l1M {
		t.Fatalf("writer should hold M, got %+v ok=%v", line, ok)
	}
	bank := b.sys.L2s[3].Cache()
	l2line, _ := bank.Peek(addr)
	if l2line.Owner != 2 || !bank.Dir(l2line).Empty() {
		t.Fatalf("directory after write: owner=%d sharers=%v", l2line.Owner, sharerTiles(bank, l2line))
	}
}

func TestUpgradeFromShared(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, false)
	b.access(1, addr, false) // shared by 0 and 1
	lat := b.access(1, addr, true)
	b.drain()
	if lat == 0 {
		t.Fatal("upgrade from S must miss")
	}
	if got := b.sys.Msgs.Count(MsgInv); got != 1 {
		t.Fatalf("upgrade should invalidate only the other sharer, got %d Invs", got)
	}
	line, _ := b.sys.L1s[1].Cache().Peek(addr)
	if line == nil || line.State != l1M {
		t.Fatal("upgrader should hold M")
	}
}

func TestWriteToExclusiveHits(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, false) // E
	before, _ := b.sys.Msgs.Totals()
	if lat := b.access(0, addr, true); lat != 0 {
		t.Fatalf("write to E should hit silently, latency %d", lat)
	}
	after, _ := b.sys.Msgs.Totals()
	if after != before {
		t.Fatal("silent E->M upgrade generated messages")
	}
}

func TestOwnershipMigrationOnWrite(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, true) // 0 owns M
	b.access(1, addr, true) // forwarded GetX migrates ownership
	b.drain()
	if b.sys.Msgs.Count(MsgFwd) != 1 || b.sys.Msgs.Count(MsgL1ToL1) != 1 {
		t.Fatal("migration should use the forward path")
	}
	if _, ok := b.sys.L1s[0].Cache().Peek(addr); ok {
		t.Fatal("old owner copy should be invalidated")
	}
	line, _ := b.sys.L1s[1].Cache().Peek(addr)
	if line == nil || line.State != l1M {
		t.Fatal("new owner should hold M")
	}
	l2line, _ := b.sys.L2s[3].Cache().Peek(addr)
	if l2line.Owner != 1 {
		t.Fatalf("directory owner %d, want 1", l2line.Owner)
	}
}

func TestL1ReplacementWritesBack(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	// Five lines mapping to the same L1 set on tile 0 (L1: 128 sets).
	l1 := b.sys.L1s[0].Cache().Config()
	stride := cache.Addr(l1.Sets() * l1.LineBytes)
	base := cache.Addr(4 * 64) // keep homes off tile 0 for network counts
	var addrs []cache.Addr
	for i := 0; i < 5; i++ {
		addrs = append(addrs, base+cache.Addr(i)*stride*4)
	}
	for _, a := range addrs {
		b.access(0, a, true) // dirty fills
	}
	b.drain()
	if got := b.sys.Msgs.Count(MsgWBData) + b.sys.Msgs.Local[MsgWBData]; got != 1 {
		t.Fatalf("write-backs %d, want 1", got)
	}
	if got := b.sys.Msgs.Count(MsgWBAck) + b.sys.Msgs.Local[MsgWBAck]; got != 1 {
		t.Fatalf("wb acks %d, want 1", got)
	}
	// The evicted line must be re-fetchable and served dirty from L2.
	if lat := b.access(0, addrs[0], false); lat == 0 {
		t.Fatal("evicted line should miss")
	}
	b.drain()
	home := b.sys.HomeBank(addrs[0])
	l2line, ok := b.sys.L2s[home].Cache().Peek(addrs[0])
	if !ok {
		t.Fatal("home bank lost the line")
	}
	if l2line.State != l2Dirty {
		t.Fatal("absorbed write-back should mark the bank copy dirty")
	}
}

func TestL2EvictionRecallsOwner(t *testing.T) {
	b := newTB(t, 4, 4, core.Options{})
	// 17 lines in the same set of the same bank (tile 1), each owned
	// dirty by a different core so the L1s never write them back on
	// their own. Same L2 set means a line-number stride equal to the
	// set count, which is bank-aligned (1024 ≡ 0 mod 16).
	l2cfg := b.sys.L2s[1].Cache().Config()
	stride := cache.Addr(b.sys.M.Nodes() * l2cfg.Sets() * l2cfg.LineBytes)
	base := cache.Addr(1 * 64)
	var addrs []cache.Addr
	for i := 0; i < 17; i++ {
		addrs = append(addrs, base+cache.Addr(i)*stride)
	}
	for i, a := range addrs[:16] {
		b.access(i, a, true) // core i owns line i dirty
	}
	b.access(2, addrs[16], true) // forces an L2 eviction with recall
	b.drain()
	m := &b.sys.Msgs
	if m.Count(MsgInvAckData) == 0 {
		t.Fatal("evicting an owned dirty line must recall the data")
	}
	if m.Count(MsgMemWB) == 0 || m.Count(MsgMemAck) == 0 {
		t.Fatalf("dirty eviction should write to memory (wb=%d ack=%d)",
			m.Count(MsgMemWB), m.Count(MsgMemAck))
	}
	// Inclusivity: exactly one L1 copy was recalled.
	victims := 0
	for i, a := range addrs[:16] {
		if _, ok := b.sys.L1s[i].Cache().Peek(a); !ok {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("exactly one L1 copy should have been recalled, got %d", victims)
	}
}

func TestLocalExchangeStaysOffNetwork(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	addr := b.remoteAddr(0, 0) // home bank is the requestor's own tile
	b.access(0, addr, false)
	b.drain()
	m := &b.sys.Msgs
	if m.Network[MsgGetS] != 0 || m.Local[MsgGetS] != 1 {
		t.Fatalf("local GetS miscounted: net=%d local=%d", m.Network[MsgGetS], m.Local[MsgGetS])
	}
	if m.Network[MsgL2Reply] != 0 || m.Local[MsgL2Reply] != 1 {
		t.Fatal("local reply miscounted")
	}
	// The memory fetch still crosses the network (MC on another tile or
	// the same: tile 0 may host an MC; accept either).
}

func TestDataAckEliminatedOnCircuit(t *testing.T) {
	opts := core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true}
	b := newTB(t, 4, 4, opts)
	addr := b.remoteAddr(15, 3)
	b.access(0, addr, false) // cold: L2 miss -> memory (acks for MemData handled circuit-wise)
	b.access(1, addr+64*16*100, false)
	b.drain()

	// Warm L2, clean request-reply: new line, remote bank hit.
	warm := b.remoteAddr(15, 7)
	b.access(2, warm, false)
	b.drain()
	acks := b.sys.Msgs.Count(MsgDataAck)
	st := b.sys.Mgr.Stats
	if st.EliminatedAcks == 0 {
		t.Fatalf("no acks eliminated (acks sent: %d)", acks)
	}
	l2line, _ := b.sys.L2s[15].Cache().Peek(warm)
	if l2line == nil || l2line.Busy {
		t.Fatal("NoAck grant should leave the line unblocked")
	}
}

func TestNoAckKeepsProtocolCorrect(t *testing.T) {
	// Write/read ping-pong with NoAck must preserve directory sanity.
	opts := core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true}
	b := newTB(t, 4, 4, opts)
	addr := b.remoteAddr(5, 0)
	for i := 0; i < 6; i++ {
		b.access(i%3, addr, i%2 == 0)
	}
	b.drain()
	checkCoherenceInvariants(t, b.sys)
}

// checkCoherenceInvariants runs the full quiescent audit: the coherence
// invariants plus the network and circuit-mechanism leak checks.
func checkCoherenceInvariants(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.AuditCoherence(); err != nil {
		t.Error(err)
	}
}

// auditAll additionally checks conservation across every layer (only valid
// when the system is fully idle).
func auditAll(t *testing.T, b *tb) {
	t.Helper()
	if err := b.sys.AuditQuiescent(b.kernel.Now()); err != nil {
		t.Error(err)
	}
}

func TestStressRandomTrafficAllMechanisms(t *testing.T) {
	mechs := map[string]core.Options{
		"baseline":   {},
		"fragmented": {Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2},
		"complete":   {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5},
		"noack":      {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true},
		"reuse":      {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true, Reuse: true},
		"timed":      {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, Timed: true, NoAck: true},
		"slackdelay": {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, Timed: true, SlackPerHop: 1, DelayPerHop: 1, NoAck: true},
		"postponed":  {Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, Timed: true, PostponePerHop: 1, NoAck: true},
		"ideal":      {Mechanism: core.MechIdeal},
	}
	for name, opts := range mechs {
		t.Run(name, func(t *testing.T) {
			b := newTB(t, 4, 4, opts)
			rng := sim.NewRNG(12345)
			n := b.sys.M.Nodes()
			// Interleaved async traffic: every core runs 60 accesses
			// over a small shared pool to force forwards, upgrades,
			// invalidations and replacements.
			ops := make([]int, n)
			pool := make([]cache.Addr, 48)
			for i := range pool {
				pool[i] = cache.Addr(i * 64)
			}
			driver := tickFn(func(now sim.Cycle) {
				for id := 0; id < n; id++ {
					if b.sys.L1s[id].Pending() || ops[id] >= 60 {
						continue
					}
					a := pool[rng.Intn(len(pool))]
					w := rng.Bool(0.4)
					ops[id]++
					b.sys.L1s[id].Access(a, w, now)
				}
			})
			b.kernel.Add(driver)
			deadline := sim.Cycle(400000)
			_, ok := b.kernel.RunUntil(func() bool {
				if b.sys.Busy() {
					return false
				}
				for id := 0; id < n; id++ {
					if ops[id] < 60 {
						return false
					}
				}
				return true
			}, deadline)
			if !ok {
				t.Fatalf("stress run did not finish in %d cycles", deadline)
			}
			checkCoherenceInvariants(t, b.sys)
			auditAll(t, b)
			if opts.Enabled() {
				st := b.sys.Mgr.Stats
				if st.ReplyTotal() == 0 {
					t.Fatal("no replies classified")
				}
				if opts.Mechanism != core.MechFragmented && st.Replies[core.OutcomeCircuit] == 0 {
					t.Fatal("no circuits ridden under stress")
				}
			}
		})
	}
}

// tickFn is a component that ticks every cycle.
type tickFn func(sim.Cycle)

func (f tickFn) Tick(now sim.Cycle) { f(now) }
func (tickFn) Quiescent() bool      { return false }

func TestDeterminism(t *testing.T) {
	run := func() (sim.Cycle, int64) {
		b := newTB(t, 4, 4, core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: 5, NoAck: true})
		rng := sim.NewRNG(99)
		for i := 0; i < 40; i++ {
			b.access(rng.Intn(16), cache.Addr(rng.Intn(64)*64), rng.Bool(0.5))
		}
		b.drain()
		total, _ := b.sys.Msgs.Totals()
		return b.kernel.Now(), total
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("non-deterministic: run1=(%d,%d) run2=(%d,%d)", c1, m1, c2, m2)
	}
}

func TestMessageMixRepliesDominate(t *testing.T) {
	// Table 1's headline: more than half the network messages are replies.
	b := newTB(t, 4, 4, core.Options{})
	rng := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		b.access(rng.Intn(16), cache.Addr(rng.Intn(96)*64), rng.Bool(0.35))
	}
	b.drain()
	total, reqs := b.sys.Msgs.Totals()
	if total == 0 {
		t.Fatal("no traffic")
	}
	replyFrac := 1 - float64(reqs)/float64(total)
	if replyFrac <= 0.45 || replyFrac >= 0.7 {
		t.Fatalf("reply fraction %.2f outside the plausible Table-1 band", replyFrac)
	}
}

// TestSystemReleaseRecyclesBanks: a released system's arrays go to the next
// NewSystem of the same mesh, which starts as empty as a fresh build; the
// released system's controllers panic rather than touch them again; and a
// NoPool system neither draws from the free lists nor feeds them.
func TestSystemReleaseRecyclesBanks(t *testing.T) {
	b := newTB(t, 3, 2, core.Options{}) // a mesh no other test here builds
	n := b.sys.M.Nodes()
	var addrs []cache.Addr
	for k := 0; k < 300; k++ {
		a := cache.Addr(k * 64)
		addrs = append(addrs, a)
		b.sys.Prefill(a, mesh.NodeID(k%n), k%2 == 0)
	}
	b.access(1, addrs[0], true) // a dirty line, an owner change, counters
	b.drain()
	old := b.sys
	idle := cache.Idle()
	old.Release()
	if got := cache.Idle(); got != idle+2 {
		t.Fatalf("Release put %d slabs on the free lists, want 2", got-idle)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an L1 of a released system still answers")
			}
		}()
		old.L1s[1].Access(addrs[0], false, 0)
	}()

	next := NewSystem(mesh.New(3, 2), core.Options{}, 4)
	if got := cache.Idle(); got != idle {
		t.Fatalf("NewSystem left %d slabs idle, want %d: it did not recycle", got, idle)
	}
	for i := 0; i < n; i++ {
		c1, c2 := next.L1s[i].Cache(), next.L2s[i].Cache()
		for _, a := range addrs {
			if _, ok := c1.Peek(a); ok {
				t.Fatalf("recycled L1 %d still holds %#x", i, a)
			}
			if _, ok := c2.Peek(a); ok {
				t.Fatalf("recycled L2 %d still holds %#x", i, a)
			}
		}
		if c1.Hits+c1.Misses+c1.Evictions+c2.Hits+c2.Misses+c2.Evictions != 0 {
			t.Fatalf("recycled tile %d starts with non-zero counters", i)
		}
	}
	next.Release()

	ref := NewSystem(mesh.New(3, 2), core.Options{NoPool: true}, 4)
	if got := cache.Idle(); got != idle+2 {
		t.Fatalf("a NoPool system drew from the free lists (%d idle, want %d)", got, idle+2)
	}
	ref.Release()
	if got := cache.Idle(); got != idle+2 {
		t.Fatalf("a NoPool system's release fed the free lists (%d idle, want %d)", got, idle+2)
	}
}

// TestImageCarriesBothLevels: a system's image holds both cache levels. A
// system dirtied by prefills and a protocol access, captured and restored
// into a fresh one, is identical to it; DiffCaches names the level that
// differs; and a limit the L1 image or the whole image exceeds yields nil.
func TestImageCarriesBothLevels(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{NoPool: true})
	for k := 0; k < 200; k++ {
		b.sys.Prefill(cache.Addr(k*64), mesh.NodeID(k%4), k%3 == 0)
	}
	b.access(1, 0, true)
	b.drain()
	img := b.sys.Capture(1 << 30)

	fresh := NewSystem(mesh.New(2, 2), core.Options{NoPool: true}, 4)
	if err := fresh.DiffCaches(b.sys); err == nil || !strings.HasPrefix(err.Error(), "L1s") {
		t.Fatalf("an empty system against a warm one: %v, want an L1 difference", err)
	}
	fresh.Restore(img)
	if err := fresh.DiffCaches(b.sys); err != nil {
		t.Fatalf("restored system differs: %v", err)
	}
	fresh.Prefill(cache.Addr(4096*64), -1, false) // an L2-only line
	if err := fresh.DiffCaches(b.sys); err == nil || !strings.HasPrefix(err.Error(), "L2 banks") {
		t.Fatalf("an extra L2 line: %v, want an L2 difference", err)
	}
	if b.sys.Capture(img.l1.Bytes()-1) != nil || b.sys.Capture(img.Bytes()-1) != nil || b.sys.Capture(img.Bytes()) == nil {
		t.Fatalf("Capture does not honour a limit of exactly %d bytes", img.Bytes())
	}
}
