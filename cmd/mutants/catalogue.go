package main

// catalogue is every planted bug the repository's tests must catch, grouped
// by the change that wrote the test. A new test's teeth are an entry here:
// the smallest edit that breaks what the test guards, and the -run regexp
// of the test that must then fail. A refactor that moves mutated code moves
// its entry with it (TestCatalogueIsFresh).
var catalogue = []Mutant{
	// SDM circuits are lane-paced and may stall, so a later L2->L1
	// message can overtake the reply and NoAck is unsound under sdm.
	{
		Name: "sdm offers NoAck",
		File: "internal/core/policy_sdm.go",
		Old:  "Mech: MechComplete, Reuse: true, Lanes:",
		New:  "Mech: MechComplete, Reuse: true, NoAck: true, Lanes:",
		Pkg:  "./internal/core", Run: "^TestPolicyTraits$", PR: 10,
	},
	{
		Name: "sdm offers NoAck (the delivery-order oracle sees the overtaking)",
		File: "internal/core/policy_sdm.go",
		Old:  "Mech: MechComplete, Reuse: true, Lanes:",
		New:  "Mech: MechComplete, Reuse: true, NoAck: true, Lanes:",
		Pkg:  "./internal/verify/differ", Run: "^TestNoAckDeliveryOrder$", PR: 42,
	},
	{
		Name: "the delivery-order oracle lets a later message overtake",
		File: "internal/coherence/verify.go",
		Old:  "case r.id < msg.ID && o.err == nil:",
		New:  "case r.id > msg.ID && o.err == nil:",
		Pkg:  "./internal/fault", Run: "^TestChaosReorderReply$", PR: 42,
	},
	{
		Name: "an untimed NoAck decision ignores replies queued at the bank's NI",
		File: "internal/coherence/system.go",
		Old:  "return complete && timedOK && s.Net.NI(bank).ReplyIdle()",
		New:  "return complete && timedOK && (!s.Opts.Timed || s.Net.NI(bank).ReplyIdle())",
		Pkg:  "./internal/verify/differ", Run: "^TestNoAckDeliveryOrder$/^64-core$", PR: 45,
	},
	{
		Name: "an untimed NoAck decision ignores queued replies (FuzzSpec's hotspot seed)",
		File: "internal/coherence/system.go",
		Old:  "return complete && timedOK && s.Net.NI(bank).ReplyIdle()",
		New:  "return complete && timedOK && (!s.Opts.Timed || s.Net.NI(bank).ReplyIdle())",
		Pkg:  "./internal/chip", Run: "^FuzzSpec$", PR: 45,
	},

	// The golden rows pin every power-event counter, the circuit-table
	// writes included.
	{
		Name: "clearEntry charges a table write when nothing was cleared",
		File: "internal/core/manager.go",
		Old:  "if e != nil {",
		New:  "if e == nil {",
		Pkg:  "./internal/chip", Run: "^TestGoldenDeterminism$",
	},

	// The audited books: every data reply needs exactly one ack, sent or
	// eliminated.
	{
		Name: "an eliminated ack goes uncounted",
		File: "internal/core/manager.go",
		Old:  "\tmg.Stats.EliminatedAcks++\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// Every reply that enters the network lands in exactly one Figure-6
	// outcome: a reply its NI holds back and offers again is not counted
	// twice.
	{
		Name: "a reply offered twice is classified twice",
		File: "internal/core/manager.go",
		Old:  "\tmsg.Classified = true\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// Every built circuit carries its own reply or is undone: a circuit
	// the protocol undoes and the books do not count leaves one built
	// circuit unaccounted for.
	{
		Name: "a protocol undo goes uncounted",
		File: "internal/core/manager.go",
		Old:  "\tmg.Stats.CircuitsUndone++\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// NI.Send rejects a message no router could carry with its own panic,
	// at both ends of the VN range.
	{
		Name: "Send accepts a zero-flit message",
		File: "internal/noc/ni.go",
		Old:  "if m.Size <= 0 {",
		New:  "if m.Size < 0 {",
		Pkg:  "./internal/noc", Run: "^TestSendRejectsMalformed$",
	},
	{
		Name: "Send's VN range check needs both ends out of range",
		File: "internal/noc/ni.go",
		Old:  "if m.VN < 0 || m.VN >= NumVNs {",
		New:  "if m.VN < 0 && m.VN >= NumVNs {",
		Pkg:  "./internal/noc", Run: "^TestSendRejectsMalformed$",
	},

	// Every report renders one table as text and as markdown: a text
	// rendering that drops the notes no longer agrees with the markdown.
	{
		Name: "Format drops a report's notes",
		File: "internal/exp/table.go",
		Old:  "\tfor _, n := range t.notes {\n\t\tb.WriteString(n + \"\\n\")\n\t}\n",
		New:  "",
		Pkg:  "./internal/exp", Run: "^TestTextAndMarkdownAgree$",
	},

	// The docs name only live code: a flag the docs show, renamed in its
	// binary, is a dead name. The test parses the sources through the
	// overlay the runner plants the mutant with.
	{
		Name: "rcsim's -audit flag is renamed under the docs",
		File: "cmd/rcsim/main.go",
		Old:  `flag.Bool("audit",`,
		New:  `flag.Bool("audits",`,
		Pkg:  ".", Run: "^TestDocsNameLiveCode$",
	},

	// Cores sleep through compute runs and controllers until their next
	// message is due, on the kernel's timed-wake wheel; the dense kernel
	// and a stepper with no kernel must see the same machine.
	{
		Name: "a sleeping core reports Quiescent",
		File: "internal/cpu/cpu.go",
		Old:  "func (c *Core) Quiescent() bool { return c.done || c.stalled }",
		New:  "func (c *Core) Quiescent() bool { return c.done || c.stalled || c.held.Kind != OpCompute }",
		Pkg:  "./internal/chip", Run: "^TestKernelFreeStepperMatchesRunCtx$",
	},
	{
		Name: "a core resumes one cycle late",
		File: "internal/cpu/cpu.go",
		Old:  "\tc.next = c.runEnd\n",
		New:  "\tc.next = c.runEnd + 1\n",
		Pkg:  "./internal/chip", Run: "^TestGoldenDeterminism$",
	},
	{
		Name: "ComputeRun ignores the retirement limit",
		File: "internal/cpu/cpu.go",
		Old:  "c.stream.ComputeRun(c.limit - c.Retired)",
		New:  "c.stream.ComputeRun(c.limit)",
		Pkg:  "./internal/cpu", Run: "^TestComputeRunSleeps$",
	},
	{
		Name: "a controller sleeps past its due message",
		File: "internal/coherence/system.go",
		Old:  "w.SleepUntil(q.first)",
		New:  "w.SleepUntil(q.first + 1)",
		Pkg:  "./internal/chip", Run: "^TestGoldenDeterminism$",
	},
	{
		Name: "a sleeper wakes one cycle late",
		File: "internal/sim/clock.go",
		Old:  "\tat = max(at, k.now+1)\n",
		New:  "\tat = max(at, k.now+1) + 1\n",
		Pkg:  "./internal/sim", Run: "^FuzzKernelSchedule$",
	},
	{
		Name: "a sleep until the current cycle waits a whole wheel turn",
		File: "internal/sim/clock.go",
		Old:  "\tat = max(at, k.now+1)\n",
		New:  "",
		Pkg:  "./internal/sim", Run: "^FuzzKernelSchedule$",
	},
	{
		Name: "SleepUntil leaves the component awake",
		File: "internal/sim/clock.go",
		Old:  "\tk.active[w.idx>>6] &^= bit\n",
		New:  "",
		Pkg:  "./internal/cpu", Run: "^TestComputeRunSleeps$",
	},
	{
		Name: "a drained wheel slot keeps its sleepers",
		File: "internal/sim/clock.go",
		Old:  "\t\t\t*due = 0\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestKernelWorkPinned$",
	},

	// A stream drawn in compute runs yields what Next alone yields.
	{
		Name: "Next redraws the kind ComputeRun already drew",
		File: "internal/workload/workload.go",
		Old:  "\ts.mem = false\n",
		New:  "",
		Pkg:  "./internal/workload", Run: "^TestComputeRunMatchesNext$",
	},
	{
		Name: "a replayed compute record is taken whole past max",
		File: "internal/tracefeed/replay.go",
		Old:  "\t\tk := min(s.run, max-n)\n",
		New:  "\t\tk := s.run\n",
		Pkg:  "./internal/tracefeed", Run: "^TestReplayComputeRunMatchesNext$",
	},

	// The memory-operation path divides nothing, bit-exactly.
	{
		Name: "PLRU touch points every node the wrong way",
		File: "internal/cache/cache.go",
		Old:  "if w&span != 0 {",
		New:  "if w&span == 0 {",
		Pkg:  "./internal/cache", Run: "^TestPLRUEvictsColdLine$",
	},
	{
		Name: "a bank shifts its set index by a bank count that is no power of two",
		File: "internal/cache/cache.go",
		Old:  "\tc.pow2 = c.div&(c.div-1) == 0\n",
		New:  "\tc.pow2 = true\n",
		Pkg:  "./internal/cache", Run: "^TestBanksInterleaveLikeAddresses$",
	},
	{
		Name: "a home bank count that is no power of two is masked",
		File: "internal/coherence/system.go",
		Old:  "\tif n&(n-1) == 0 {\n",
		New:  "\tif n&(n-1) != 1 {\n",
		Pkg:  "./internal/chip", Run: "^FuzzSpec$",
	},
	{
		Name: "a probability threshold rounds down",
		File: "internal/sim/rng.go",
		Old:  "math.Ceil(p * (1 << 53))",
		New:  "math.Floor(p * (1 << 53))",
		Pkg:  "./internal/sim", Run: "^TestThresholdIsBoolExactly$",
	},

	// Every name is declared once, and a phase successor resolves.
	{
		Name: "phased hands over to a workload no table declares",
		File: "internal/workload/workload.go",
		Old:  `p.PhaseNext = "phased_quiet"`,
		New:  `p.PhaseNext = "phased_calm"`,
		Pkg:  ".", Run: "^TestNamesDeclaredOnce$",
	},

	// A served result is the run of the spec it is filed under.
	{
		Name: "the server files a timeout-capped run as the submitted spec's",
		File: "internal/serve/server.go",
		Old:  "res.Spec = j.spec",
		New:  "_ = j.spec",
		Pkg:  "./internal/serve", Run: "^TestE2EResultIsItsSpec$",
	},

	// The cluster client hands a dead node's jobs to its successor.
	{
		Name: "the client ignores suspicion and re-dispatches to the dead owner",
		File: "internal/cluster/client.go",
		Old:  "if !c.isSuspect(n) {",
		New:  "if true || !c.isSuspect(n) {",
		Pkg:  "./internal/cluster", Run: "^TestClusterHandoffToSuccessor$", PR: 27,
	},

	// One release path: teardown and the three undo walks.
	{
		Name: "a ride release skips the teardown the protocol deferred",
		File: "internal/core/manager.go",
		Old:  "\t\t\t\tmg.teardown(op.rec, now)\n",
		New:  "",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},
	{
		Name: "the Forward undo walk stops after its first router",
		File: "internal/core/manager.go",
		Old:  "return d, true // continue out of the entry's input side",
		New:  "return d, false // continue out of the entry's input side",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},
	{
		Name: "the Partial undo walk stops after its first router",
		File: "internal/core/manager.go",
		Old:  "return mg.m.NextDir(mesh.RouteYX, id, tok.Dest), true",
		New:  "return mg.m.NextDir(mesh.RouteYX, id, tok.Dest), false",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},
	{
		Name: "the default undo walk stops after its first router",
		File: "internal/core/manager.go",
		Old:  "return e.out, true",
		New:  "return e.out, false",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},
	{
		Name: "an Unbounded teardown walks instead of clearing the path at once",
		File: "internal/core/manager.go",
		Old:  "case mg.traits.Unbounded:",
		New:  "case false && mg.traits.Unbounded:",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},
	{
		Name: "a teardown sends no undo credit down the reply path",
		File: "internal/core/manager.go",
		Old:  "\t\tmg.net.Router(src).SendUndoCredit(next, noc.UndoToken{Dest: dest, Block: block}, now)\n",
		New:  "",
		Pkg:  "./internal/core", Run: "^TestUndoForwardedRequest$", PR: 28,
	},

	// Exact quiescence from the routers' inbound masks, and L2
	// transaction records recycled.
	{
		Name: "a flit link forgets to set its inbound bit",
		File: "internal/noc/link.go",
		Old:  "readyAt: now + linkDelay + extra})\n\tif l.rx != nil {\n\t\t*l.rx |= l.bit\n\t}\n",
		New:  "readyAt: now + linkDelay + extra})\n",
		Pkg:  "./internal/noc", Run: "^TestQuiescenceMatchesScan$", PR: 29,
	},
	{
		Name: "a credit wire forgets to set its inbound bit",
		File: "internal/noc/link.go",
		Old:  "readyAt: now + linkDelay})\n\tif l.rx != nil {\n\t\t*l.rx |= l.bit\n\t}\n",
		New:  "readyAt: now + linkDelay})\n",
		Pkg:  "./internal/noc", Run: "^TestQuiescenceMatchesScan$", PR: 29,
	},
	{
		Name: "L2 transaction records are never recycled",
		File: "internal/coherence/l2.go",
		Old:  "if l.sys.Opts.NoPool {",
		New:  "if true || l.sys.Opts.NoPool {",
		Pkg:  "./internal/coherence", Run: "^TestL2TransactionsDoNotAllocate$", PR: 29,
	},

	// A run starts from a prefilled image.
	{
		Name: "an image restore skips the PLRU words",
		File: "internal/cache/cache.go",
		Old:  "\tcopy(s.plru, img.plru)\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestImageReproducesPrefill$", PR: 30,
	},
	{
		Name: "an image restore skips the hit, miss and eviction counters",
		File: "internal/cache/group.go",
		Old:  "c.Hits, c.Misses, c.Evictions = st.hits, st.misses, st.evictions",
		New:  "_, _ = c, st",
		Pkg:  "./internal/chip", Run: "^TestImageReproducesPrefill$", PR: 30,
	},
	{
		Name: "the image key ignores each region's L1Lines",
		File: "internal/chip/prefill.go",
		Old:  "if !slices.Equal(k.regions[i], o.regions[i]) {",
		New: "if !slices.EqualFunc(k.regions[i], o.regions[i], func(a, b workload.Region) bool {\n" +
			"\t\t\ta.L1Lines = b.L1Lines\n\t\t\treturn a == b\n\t\t}) {",
		Pkg: "./internal/chip", Run: "^TestImageReproducesPrefill$", PR: 30,
	},

	// Credits land at the cycle boundary; the kernel walks a bitmask
	// of awake components.
	{
		Name: "the kernel snapshots its active word before walking it",
		File: "internal/sim/clock.go",
		Old:  "for m := k.active[w]; m != 0; m = k.active[w] &^ seen {",
		New:  "for m, snap := k.active[w], k.active[w]; m != 0; m = snap &^ seen {",
		Pkg:  "./internal/sim", Run: "^FuzzKernelSchedule$", PR: 31,
	},
	{
		Name: "the epilogue applies this cycle's credits instead of last cycle's",
		File: "internal/noc/network.go",
		Old:  "for _, c := range q.prev {",
		New:  "for _, c := range q.cur {",
		Pkg:  "./internal/noc", Run: "^(TestCreditLandsAfterLinkDelay|TestQuiescenceMatchesScan)$", PR: 31,
	},
	{
		Name: "Register does not make FlushBoundary the network's epilogue",
		File: "internal/noc/network.go",
		Old:  "\tk.AddEpilogue(n.FlushBoundary)\n",
		New:  "",
		Pkg:  "./internal/noc", Run: "^TestCreditLandsAfterLinkDelay$", PR: 31,
	},

	// One machine, driven step by step.
	{
		Name: "the measured phase starts without Sys.ResetStats",
		File: "internal/chip/machine.go",
		Old:  "\t\tm.Sys.ResetStats()\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestHandSteppedMachineMatchesRunCtx$", PR: 32,
	},
	{
		Name: "the measured phase does not wake the cores",
		File: "internal/chip/machine.go",
		Old:  "\t\tm.wakers[i].Wake()\n",
		New:  "\t\t_ = i\n",
		Pkg:  "./internal/chip", Run: "^TestHandSteppedMachineMatchesRunCtx$", PR: 32,
	},

	// The single-writer oracle walks set by set.
	{
		Name: "the single-writer check never compares tags",
		File: "internal/coherence/verify.go",
		Old:  "if tags[i] == tags[i-1] {",
		New:  "if false && tags[i] == tags[i-1] {",
		Pkg:  "./internal/coherence", Run: "^TestCheckSingleWriter$", PR: 33,
	},
	{
		Name: "the single-writer check does not sort a set's tags",
		File: "internal/coherence/verify.go",
		Old:  "slices.Sort(tags)",
		New:  "_ = slices.Sort[[]uint64]",
		Pkg:  "./internal/coherence", Run: "^TestCheckSingleWriter$", PR: 33,
	},
	{
		Name: "the single-writer check counts lines in any state",
		File: "internal/coherence/verify.go",
		Old:  "if line.Valid && (line.State == l1M || line.State == l1E) {",
		New:  "if line.Valid {",
		Pkg:  "./internal/coherence", Run: "^TestCheckSingleWriter$", PR: 33,
	},

	// One sharer-set type owns the directory, past 64 tiles too.
	{
		Name: "Sharers.Add drops its spill write",
		File: "internal/cache/sharers.go",
		Old:  "\tw, b := s.word(tile)\n\t*w |= b\n",
		New:  "\tif w, b := s.word(tile); tile < 64 {\n\t\t*w |= b\n\t}\n",
		Pkg:  "./internal/cache", Run: "^TestSharers$", PR: 34,
	},
	{
		Name: "Sharers.Add drops its spill write (the 9x9 machine's audit)",
		File: "internal/cache/sharers.go",
		Old:  "\tw, b := s.word(tile)\n\t*w |= b\n",
		New:  "\tif w, b := s.word(tile); tile < 64 {\n\t\t*w |= b\n\t}\n",
		Pkg:  "./internal/chip", Run: "^TestVerifyPast64Tiles$", PR: 34,
	},
	{
		Name: "Sharers.Add drops its spill write (FuzzSpec's 9x8 seeds)",
		File: "internal/cache/sharers.go",
		Old:  "\tw, b := s.word(tile)\n\t*w |= b\n",
		New:  "\tif w, b := s.word(tile); tile < 64 {\n\t\t*w |= b\n\t}\n",
		Pkg:  "./internal/chip", Run: "^FuzzSpec$", PR: 45,
	},
	{
		Name: "Sharers.Each skips the spill words",
		File: "internal/cache/sharers.go",
		Old:  "\tfor k, w := range s.spill {\n\t\teachBit(w, 64*(k+1), fn)\n\t}\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^TestSharers$", PR: 34,
	},
	{
		Name: "an image restore skips the spill words",
		File: "internal/cache/cache.go",
		Old:  "\t\tcopy(s.spill[int(slot)*w:], img.spill[i*w:(i+1)*w])\n",
		New:  "\t\t_ = w\n",
		Pkg:  "./internal/cache", Run: "^TestSharers$", PR: 34,
	},

	// A recycled slab clears only its dirty sets; stalled cores and
	// blocked L2 banks sleep and credit their counters in closed form.
	{
		Name: "Fill does not mark its set dirty",
		File: "internal/cache/cache.go",
		Old:  "\tc.mark(plru)\n\t*l = Line{",
		New:  "\t*l = Line{",
		Pkg:  "./internal/cache", Run: "^TestRecycledSetsAreCleared$", PR: 35,
	},
	{
		Name: "Victim does not mark its set dirty",
		File: "internal/cache/cache.go",
		Old:  "\tc.mark(plru)\n\tfor w := range lines {",
		New:  "\tfor w := range lines {",
		Pkg:  "./internal/cache", Run: "^TestRecycledSetsAreCleared$", PR: 35,
	},
	{
		Name: "a slab leaving its image does not clear the image's sets",
		File: "internal/cache/group.go",
		Old:  "\t\th.img.addDirty(h.dirty)\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^TestRecycledSetsAreCleared$", PR: 35,
	},
	{
		Name: "a slab reset skips the dirty sets' lines",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tfill(s.lines[i*g.ways : j*g.ways])\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^TestRecycledSetsAreCleared$", PR: 35,
	},
	{
		Name: "a slab reset skips the dirty sets' PLRU words",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tclear(s.plru[i:j])\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^(TestRecycledSetsAreCleared|TestRecycledGroupIsFresh)$", PR: 35,
	},
	{
		Name: "a slab reset skips the dirty sets' spill words",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tclear(s.spill[i*lw : j*lw])\n",
		New:  "\t\t\t_ = lw\n",
		Pkg:  "./internal/cache", Run: "^(TestRecycledSetsAreCleared|TestSharers)$", PR: 35,
	},
	{
		Name: "a stalled core stays awake",
		File: "internal/cpu/cpu.go",
		Old:  "func (c *Core) Quiescent() bool { return c.done || c.stalled }",
		New:  "func (c *Core) Quiescent() bool { return c.done }",
		Pkg:  "./internal/cpu", Run: "^TestStalledCoreSleeps$", PR: 35,
	},
	{
		Name: "a completed miss credits no stall cycles",
		File: "internal/cpu/cpu.go",
		Old:  "\tc.StallCycles += now - c.stallFrom\n",
		New:  "",
		Pkg:  "./internal/cpu", Run: "^TestStalledCoreSleeps$", PR: 35,
	},
	{
		Name: "a mid-run read of core/stall_cycles omits the open stall",
		File: "internal/cpu/cpu.go",
		Old:  "return c.StallCycles + at - c.stallFrom",
		New:  "return c.StallCycles",
		Pkg:  "./internal/cpu", Run: "^TestStalledCoreSleeps$", PR: 35,
	},
	{
		Name: "a blocked L2 bank stays awake",
		File: "internal/coherence/l2.go",
		Old:  "func (l *L2Ctrl) Quiescent() bool { return l.q.empty() }",
		New:  "func (l *L2Ctrl) Quiescent() bool { return l.q.empty() && len(l.txns) == 0 }",
		Pkg:  "./internal/coherence", Run: "^TestBlockedBankSleeps$", PR: 35,
	},
	{
		Name: "a waking L2 bank does not catch up the cycles it slept",
		File: "internal/coherence/l2.go",
		Old:  "\tl.BlockedCycles = l.blockedAt(now)\n",
		New:  "",
		Pkg:  "./internal/coherence", Run: "^TestBlockedBankSleeps$", PR: 35,
	},
	{
		Name: "a mid-run read of l2/blocked_cycles omits the open spans",
		File: "internal/coherence/system.go",
		Old:  "n += s.L2s[i].blockedAt(at)",
		New:  "n += s.L2s[i].BlockedCycles",
		Pkg:  "./internal/coherence", Run: "^TestBlockedBankSleeps$", PR: 35,
	},
	{
		Name: "a mid-run read of l2/blocked_cycles omits the open spans (dense vs sparse)",
		File: "internal/coherence/system.go",
		Old:  "n += s.L2s[i].blockedAt(at)",
		New:  "n += s.L2s[i].BlockedCycles",
		Pkg:  "./internal/chip", Run: "^TestDenseMatchesSparse$", PR: 35,
	},

	// Recycled shells (network, circuit manager, controllers) and
	// circuit records.
	{
		Name: "a circuit record is recycled while a scrounger rides it",
		File: "internal/core/manager.go",
		Old:  "if rec.inUse || mg.opts.NoPool {",
		New:  "if mg.opts.NoPool {",
		Pkg:  "./internal/chip", Run: "^TestPooledMatchesUnpooled$", PR: 39,
	},
	{
		Name: "recordCircuit allocates a fresh record",
		File: "internal/core/manager.go",
		Old:  "rec := mg.newRecord(record{key: key, path: mg.m.Hops(msg.Src, msg.Dst) + 1, src: ni})",
		New:  "rec := &record{key: key, path: mg.m.Hops(msg.Src, msg.Dst) + 1, src: ni}",
		Pkg:  "./internal/core", Run: "^TestBypassFastPathAllocationBound$", PR: 39,
	},
	{
		Name: "a rebuilt router keeps its switch allocator's output pointers",
		File: "internal/noc/router.go",
		Old:  "\t\tbyQ: r.byQ,\n",
		New:  "\t\tbyQ: r.byQ, saOutPtr: r.saOutPtr,\n",
		Pkg:  "./internal/noc", Run: "^TestRecycledNetworkMatchesFresh$", PR: 39,
	},
	{
		Name: "a rebuilt router keeps its bypass arbiter's pointer",
		File: "internal/noc/router.go",
		Old:  "\t\tbyQ: r.byQ,\n",
		New:  "\t\tbyQ: r.byQ, byPtr: r.byPtr,\n",
		Pkg:  "./internal/chip", Run: "^TestRecycledShellsReproduceGolden$", PR: 39,
	},
	{
		Name: "a rebuilt network keeps its message counter",
		File: "internal/noc/network.go",
		Old:  "\t\tcfg:     cfg,\n",
		New:  "\t\tcfg: cfg, msgID: n.msgID,\n",
		Pkg:  "./internal/noc", Run: "^TestRecycledNetworkMatchesFresh$", PR: 39,
	},
	{
		Name: "a rebuilt link keeps its lane timestamps",
		File: "internal/noc/link.go",
		Old:  "l.laneNext = recycle.Zeroed(l.laneNext, n)",
		New:  "l.laneNext = recycle.Slice(l.laneNext, n)",
		Pkg:  "./internal/noc", Run: "^TestRecycledNetworkMatchesFresh$", PR: 39,
	},
	{
		Name: "a recycled circuit table keeps its entries",
		File: "internal/core/table.go",
		Old:  "\t\t\t*e = entry{}\n",
		New:  "\t\t\te.inUse = nil\n",
		Pkg:  "./internal/chip", Run: "^TestRecycledShellsReproduceGolden$", PR: 39,
	},
	{
		Name: "a failed run returns its shell",
		File: "internal/chip/machine.go",
		Old:  "\tcase m.clean:\n",
		New:  "\tcase true:\n",
		Pkg:  "./internal/chip", Run: "^TestRecyclingAfterFailedRuns$", PR: 39,
	},

	// A cache hit is a byte copy: encoded once, spliced in by one writer.
	{
		Name: "complete keeps the old entry's encoded bytes when replacing its Results",
		File: "internal/serve/cache.go",
		Old:  "el.Value.(*cacheEntry).res = res",
		New:  "el.Value.(*cacheEntry).res.res = res.res",
		Pkg:  "./internal/serve", Run: "^TestRecompletedFingerprintServesNewResult$", PR: 40,
	},
	{
		Name: "the worker encodes the result ahead of the next queued run",
		File: "internal/serve/server.go",
		Old:  "\t\tr := &result{res: res}\n",
		New:  "\t\tr := &result{res: res}\n\t\t_, _ = r.encoded()\n",
		Pkg:  "./internal/serve", Run: "^TestConcurrentFirstFetchesShareOneEncoding$", PR: 40,
	},
	{
		Name: "the status writer drops \"cached\"",
		File: "internal/serve/http.go",
		Old:  "\thead, err := json.Marshal(st)\n",
		New:  "\tst.Cached = false\n\thead, err := json.Marshal(st)\n",
		Pkg:  "./internal/serve", Run: "^TestDoneStatusBodyMatchesEncoder$", PR: 40,
	},
	{
		Name: "the status writer puts the result ahead of the other fields",
		File: "internal/serve/http.go",
		Old:  "\t_, _ = w.Write(head)\n\t_, _ = io.WriteString(w, key)\n\t_, _ = w.Write(js)\n",
		New:  "\t_, _ = io.WriteString(w, `{\"result\":`)\n\t_, _ = w.Write(js)\n\t_, _ = io.WriteString(w, \",\")\n\t_, _ = w.Write(head[1:])\n",
		Pkg:  "./internal/serve", Run: "^TestDoneStatusBodyMatchesEncoder$", PR: 40,
	},
	{
		Name: "a histogram's buckets travel under another key",
		File: "internal/stats/stats.go",
		Old:  "`json:\"buckets\"`",
		New:  "`json:\"bucket\"`",
		Pkg:  "./internal/stats", Run: "^TestHistogramJSONRoundTrip$", PR: 40,
	},

	// A recycled slab remembers the image it holds outside its dirty sets,
	// and a rebuild in that image rewrites only the dirty sets.
	{
		Name: "a Lookup hit does not mark its set",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tc.mark(plru)\n\t\t\tc.Hits++\n",
		New:  "\t\t\tc.Hits++\n",
		Pkg:  "./internal/cache", Run: "^TestRebuildMatchesFresh$", PR: 42,
	},
	{
		Name: "a Lookup hit does not mark its set (a store hit's E to M in a rebuilt L1)",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tc.mark(plru)\n\t\t\tc.Hits++\n",
		New:  "\t\t\tc.Hits++\n",
		Pkg:  "./internal/chip", Run: "^TestRebuiltImagesMatchNoPool$", PR: 42,
	},
	{
		Name: "a Peek hit does not mark its set",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tc.mark(plru)\n\t\t\treturn &lines[w], true\n",
		New:  "\t\t\t_ = plru\n\t\t\treturn &lines[w], true\n",
		Pkg:  "./internal/cache", Run: "^TestRebuildMatchesFresh$", PR: 42,
	},
	{
		Name: "a dirty-set restore skips the PLRU words",
		File: "internal/cache/cache.go",
		Old:  "\t\t\tcopy(s.plru[i:j], img.plru[i:j])\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^TestRebuildMatchesFresh$", PR: 42,
	},
	{
		Name: "a dirty-set restore skips the spill words",
		File: "internal/cache/cache.go",
		Old:  "\t\t\t\tcopy(s.spill[slot*g.words:(slot+1)*g.words], img.spill[x*g.words:(x+1)*g.words])\n",
		New:  "",
		Pkg:  "./internal/cache", Run: "^TestRebuildMatchesFresh$", PR: 42,
	},
	{
		Name: "a slab holding another image is rebuilt as if it held the wanted one",
		File: "internal/cache/group.go",
		Old:  "\tif h.img == img {\n",
		New:  "\tif h.img == img || h.img != nil {\n",
		Pkg:  "./internal/chip", Run: "^TestRebuiltImagesMatchNoPool$", PR: 42,
	},
}
