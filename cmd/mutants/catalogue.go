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
		Old:  "\t\tReuse: true, Lanes:",
		New:  "\t\tReuse: true, NoAck: true, Lanes:",
		Pkg:  "./internal/core", Run: "^TestPolicyTraits$", PR: 10,
	},
	{
		Name: "sdm offers NoAck (the delivery-order oracle sees the overtaking)",
		File: "internal/core/policy_sdm.go",
		Old:  "\t\tReuse: true, Lanes:",
		New:  "\t\tReuse: true, NoAck: true, Lanes:",
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

	// Every core stall cycle is an L1 miss waiting for its data: a core
	// credited a cycle short, or an L1 that dates its miss a cycle late,
	// unbalances the books.
	{
		Name: "a completed miss credits one stall cycle too few",
		File: "internal/cpu/cpu.go",
		Old:  "\tc.StallCycles += now - c.stallFrom\n",
		New:  "\tc.StallCycles += now - c.stallFrom - 1\n",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$", PR: 52,
	},
	{
		Name: "an L1 dates its miss a cycle after the access",
		File: "internal/coherence/l1.go",
		Old:  "start: now}",
		New:  "start: now + 1}",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$", PR: 52,
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
	{
		Name: "an undo of a Partial policy's unfinished fragments counts as an undone circuit",
		File: "internal/core/manager.go",
		Old:  "\tif rec.complete {\n\t\tif mg.undone[dest] != 0 {\n",
		New:  "\tif !rec.complete {\n\t\tmg.Stats.CircuitsUndone++\n\t}\n\tif rec.complete {\n\t\tif mg.undone[dest] != 0 {\n",
		Pkg:  "./internal/chip", Run: "^TestGoldenDeterminism$/^16-core$",
	},

	// Every undone circuit is one undone reply: the protocol's undo fills
	// the requestor's slot, and the first reply to leave an NI for that
	// request without a circuit of its own empties it as the undone
	// outcome, scrounging or not. Fragments that never completed fill no
	// slot.
	{
		Name: "an undo of a Partial policy's unfinished fragments books the reply undone",
		File: "internal/core/manager.go",
		Old:  "\tif rec.complete {\n\t\tif mg.undone[dest] != 0 {\n",
		New:  "\tif !rec.complete {\n\t\tmg.undone[dest] = block + 1\n\t}\n\tif rec.complete {\n\t\tif mg.undone[dest] != 0 {\n",
		Pkg:  "./internal/chip", Run: "^TestGoldenDeterminism$/^16-core$/^hotspot$/^DynamicVC$",
	},
	{
		Name: "a protocol undo fills no undone slot",
		File: "internal/core/manager.go",
		Old:  "\t\tmg.undone[dest] = block + 1\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},
	{
		Name: "a reply books its request's undone circuit but leaves the slot filled",
		File: "internal/core/manager.go",
		Old:  "\t\tmg.undone[msg.Dst] = 0\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},
	{
		Name: "an undone reply that scrounges books scrounger",
		File: "internal/core/manager.go",
		Old:  "\t\tmg.classify(msg, OutcomeUndone)\n\t}\n\tif mg.opts.Reuse {\n",
		New:  "\t}\n\tif mg.opts.Reuse {\n",
		Pkg:  "./internal/core", Run: "^TestUndoneReplyScroungesAsUndone$",
	},

	// Every buffered departure returns one credit, and the credit wires
	// carry nothing else but undo tokens.
	{
		Name: "a buffer slot returns upstream uncounted",
		File: "internal/noc/router.go",
		Old:  "\tr.credits.cur = append(r.credits.cur, r.creditTo[int(in)*r.nslots+s])\n\tr.ev.CreditsSent++\n",
		New:  "\tr.credits.cur = append(r.credits.cur, r.creditTo[int(in)*r.nslots+s])\n",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},
	{
		Name: "an undo token reaches the manager uncounted",
		File: "internal/core/manager.go",
		Old:  "\tmg.Stats.UndoTokens++\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// Every injected flit is ejected: a link flit counted at every hop
	// but the injection leaves the NI's injections uncounted.
	{
		Name: "an NI injects a flit onto its link uncounted",
		File: "internal/noc/ni.go",
		Old:  "\tni.ev.LinkFlits++\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// Figure 8's dynamic energy is every network event at its unit cost:
	// an energy model that stops charging an event breaks the books.
	{
		Name: "switch-allocator grants cost no energy",
		File: "internal/power/power.go",
		Old:  "float64(ev.VAActivity+ev.SAActivity) * eArb",
		New:  "float64(ev.VAActivity) * eArb",
		Pkg:  "./internal/chip", Run: "^TestBooksBalance$",
	},

	// A tail flit frees only the circuit entry its own message rides.
	{
		Name: "a tail frees an entry it does not ride",
		File: "internal/core/manager.go",
		Old:  "if e == nil || e.inUse != f.Msg {",
		New:  "if e == nil && e.inUse != f.Msg {",
		Pkg:  "./internal/core", Run: "^TestReleaseFreesOnlyItsOwnClaim$",
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
	{
		Name: "a timed wake lands a cycle late",
		File: "internal/sim/clock.go",
		Old:  "k.wheel[w.idx>>6<<wheelBits|int(at&(wheelSlots-1))] |= 1 << (w.idx & 63)",
		New:  "k.wheel[w.idx>>6<<wheelBits|int((at+1)&(wheelSlots-1))] |= 1 << (w.idx & 63)",
		Pkg:  "./internal/sim", Run: "^FuzzKernelSchedule$", PR: 52,
	},
	{
		Name: "a delivered message wakes its controller at once again",
		File: "internal/coherence/l2.go",
		Old:  "\tl.wake.WakeAt(now + L2HitLatency)\n",
		New:  "\tl.wake.Wake()\n",
		Pkg:  "./internal/chip", Run: "^TestKernelWorkPinned$", PR: 52,
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
		Old:  "\tk.AddEpilogue(n.flush)\n",
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
		Old:  "\tif m.clean && !m.spec.Variant.Opts.NoPool {\n",
		New:  "\tif !m.spec.Variant.Opts.NoPool {\n",
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

	// Go clients read a finished Results in the binary form: it carries
	// every leaf JSON carries, decodes to what JSON decodes, refuses what
	// it did not write, and is sent only to a client that asked for it.
	{
		Name: "a float loses its sign bit in the binary form",
		File: "internal/serve/codec.go",
		Old:  "math.Float64bits(v.Float())",
		New:  "math.Float64bits(math.Abs(v.Float()))",
		Pkg:  "./internal/serve", Run: "^TestResultsCodecCarriesEveryLeaf$", PR: 52,
	},
	{
		Name: "the binary decoder accepts trailing bytes",
		File: "internal/serve/codec.go",
		Old:  "\tif d.left() != 0 {\n",
		New:  "\tif d.left() < 0 {\n",
		Pkg:  "./internal/serve", Run: "^TestResultDecodeRejectsMalformed$", PR: 52,
	},
	{
		Name: "a nil slice decodes as an empty one",
		File: "internal/serve/codec.go",
		Old:  "return 0, err == nil, err",
		New:  "return 0, false, err",
		Pkg:  "./internal/serve", Run: "^TestBinaryAndJSONAgree$", PR: 52,
	},
	{
		Name: "the status writer answers binary to a request that did not ask",
		File: "internal/serve/http.go",
		Old:  "bin := resultsMediaType != \"\" && req.Header.Get(\"Accept\") == resultsMediaType",
		New:  "bin := resultsMediaType != \"\"",
		Pkg:  "./internal/serve", Run: "^TestClientReadsEitherForm$", PR: 52,
	},
	// A cache hit is recognised by its bytes only when they are exactly a
	// Client's framing of the cached spec, and it is answered, refused
	// and counted as the decoded path answers, refuses and counts it; the
	// offset plan stores every leaf at its own width and place.
	{
		Name: "the byte path answers a draining server's submission",
		File: "internal/serve/server.go",
		Old:  "if !framed || !closed || s.draining.Load() {",
		New:  "if !framed || !closed {",
		Pkg:  "./internal/serve", Run: "^TestHitByBytesHonoursDraining$",
	},
	{
		Name: "the byte path accepts a trailing newline",
		File: "internal/serve/server.go",
		Old:  "x, closed := bytes.CutSuffix(x, []byte(`}`))",
		New:  "x, closed := bytes.CutSuffix(bytes.TrimSuffix(x, []byte(\"\\n\")), []byte(`}`))",
		Pkg:  "./internal/serve", Run: "^TestHitByBytesFallsBack$",
	},
	{
		Name: "a cache hit goes uncounted",
		File: "internal/serve/cache.go",
		Old:  "\tc.lru.MoveToFront(el)\n\tc.hits.Add(1)\n\treturn el.Value.(*cacheEntry).res",
		New:  "\tc.lru.MoveToFront(el)\n\treturn el.Value.(*cacheEntry).res",
		Pkg:  "./internal/serve", Run: "^TestHitByBytesAnswersAsDecoded$",
	},
	{
		Name: "an empty slice decodes as nil",
		File: "internal/serve/codec.go",
		Old:  "v.Set(reflect.MakeSlice(t, 0, 0)) // empty, not nil: JSON's []",
		New:  "v.SetZero()",
		Pkg:  "./internal/serve", Run: "^TestCodecCarriesOtherShapes$",
	},
	{
		Name: "a narrow integer takes a varint it cannot hold",
		File: "internal/serve/codec.go",
		Old:  "if err == nil && int64(T(x)) != x {",
		New:  "if false {",
		Pkg:  "./internal/serve", Run: "^TestCodecCarriesOtherShapes$",
	},
	{
		Name: "a metric name is cut from the wrong end of the keys",
		File: "internal/serve/codec.go",
		Old:  "(*m)[all[len(all)-int(k):]]",
		New:  "(*m)[all[:int(k)]]",
		Pkg:  "./internal/serve", Run: "^TestBinaryAndJSONAgree$",
	},

	// The service's front doors fail closed: a refused submission leaves
	// nothing behind, and a journal no server wrote is not half replayed.
	{
		Name: "a submission refused by a full queue keeps its in-flight slot",
		File: "internal/serve/server.go",
		Old:  "\t\t\ts.cache.release(fp)\n",
		New:  "",
		Pkg:  "./internal/serve", Run: "^FuzzSubmit$", PR: 52,
	},
	{
		Name: "a submission refused by a full queue stays registered",
		File: "internal/serve/server.go",
		Old:  "\t\t\ts.unregister(j)\n\t\t\ts.rejected.Add(1)\n",
		New:  "\t\t\ts.rejected.Add(1)\n",
		Pkg:  "./internal/serve", Run: "^FuzzSubmit$", PR: 52,
	},
	{
		Name: "a submission that joins a twin leaves its own job registered",
		File: "internal/serve/server.go",
		Old:  "\t\ts.unregister(j)\n\t\ts.submitted.Add(1)\n",
		New:  "\t\ts.submitted.Add(1)\n",
		Pkg:  "./internal/serve", Run: "^FuzzSubmit$", PR: 52,
	},
	{
		Name: "a fresh job is registered after a twin can join it",
		File: "internal/serve/server.go",
		Old:  "\ts.register(j)\n\toutcome, cached, twin := s.cache.admit(fp, j)\n",
		New:  "\toutcome, cached, twin := s.cache.admit(fp, j)\n\tdefer s.register(j)\n",
		Pkg:  "./internal/serve", Run: "^TestInFlightJobsAreAddressable$", PR: 52,
	},
	{
		Name: "a journal that reuses a job id is replayed",
		File: "internal/serve/journal.go",
		Old:  "if e.ID == \"\" || ids[e.ID] {",
		New:  "if e.ID == \"\" {",
		Pkg:  "./internal/serve", Run: "^FuzzJournal$", PR: 52,
	},
	{
		Name: "the client never asks for the binary form",
		File: "internal/serve/client.go",
		Old:  "\t\treq.Header.Set(\"Accept\", resultsMediaType)\n",
		New:  "",
		Pkg:  "./internal/serve", Run: "^TestClientReadsEitherForm$", PR: 52,
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
	// A spec or journal record written for an older Options fails closed
	// instead of running whatever design its known fields describe.
	{
		Name: "a submitted spec's unknown fields are dropped",
		File: "internal/serve/http.go",
		Old:  "\tdec.DisallowUnknownFields()\n",
		New:  "",
		Pkg:  "./internal/serve", Run: "^TestStaleSpecFailsClosed$",
	},
	{
		Name: "a journal record's unknown fields are dropped",
		File: "internal/serve/journal.go",
		Old:  "\t\tdec.DisallowUnknownFields()\n",
		New:  "",
		Pkg:  "./internal/serve", Run: "^TestStaleSpecFailsClosed$",
	},

	// A speculating message's route lives on its input VC until its tail
	// arrives; one left behind would steer the VC's next message.
	{
		Name: "a speculating tail leaves its route on the input VC",
		File: "internal/noc/router.go",
		Old:  "\t\tv.spec = !f.Tail\n",
		New:  "",
		Pkg:  "./internal/noc", Run: "^TestSpecTableEmptyAfterDrain$",
	},

	// A cleanly finished machine is one recycled shell: the next build of
	// its inputs rebuilds every part in place, and only its Results
	// allocate.
	{
		Name: "a recycled core keeps its last run's Retired",
		File: "internal/cpu/cpu.go",
		Old:  "\t*c = Core{id: id, l1: l1, stream: stream, limit: limit, resume: c.resume}\n",
		New:  "\t*c = Core{id: id, l1: l1, stream: stream, limit: limit, resume: c.resume, Retired: c.Retired}\n",
		Pkg:  "./internal/chip", Run: "^TestRecycledShellsReproduceGolden$",
	},
	{
		Name: "Network.Init empties the free lists again",
		File: "internal/noc/network.go",
		Old:  "pools{disabled: cfg.NoPool, flits: n.pool.flits, msgs: n.pool.msgs}",
		New:  "pools{disabled: cfg.NoPool}",
		Pkg:  "./internal/chip", Run: "^TestRunAllocationBudget$",
	},
	{
		Name: "Network.Init empties the free lists again (the rebuilt network's own check)",
		File: "internal/noc/network.go",
		Old:  "pools{disabled: cfg.NoPool, flits: n.pool.flits, msgs: n.pool.msgs}",
		New:  "pools{disabled: cfg.NoPool}",
		Pkg:  "./internal/noc", Run: "^TestRecycledNetworkMatchesFresh$",
	},
	{
		Name: "a recycled stream keeps its hot-region cursor",
		File: "internal/workload/workload.go",
		Old:  "\t\th:    height,\n",
		New:  "\t\th:    height, hotCursor: s.hotCursor,\n",
		Pkg:  "./internal/chip", Run: "^TestRecycledShellMatchesFresh$",
	},
	{
		Name: "the cores tick in the memory controllers' class",
		File: "internal/chip/machine.go",
		Old:  "\tk.Class(\"core\")\n",
		New:  "",
		Pkg:  "./internal/chip", Run: "^TestKernelWorkPinned$",
	},
	{
		Name: "a slab holding another image is rebuilt as if it held the wanted one",
		File: "internal/cache/group.go",
		Old:  "\tif h.img == img {\n",
		New:  "\tif h.img == img || h.img != nil {\n",
		Pkg:  "./internal/chip", Run: "^TestRebuiltImagesMatchNoPool$", PR: 42,
	},

	// The warm-up's reply histogram is cleared in place at the measured
	// phase, not dropped for a new one.
	{
		Name: "ResetStats drops the warm-up's reply histogram",
		File: "internal/coherence/system.go",
		Old:  "\ts.Lat = LatencyStats{CircuitReplyHist: s.Lat.CircuitReplyHist.Reset()}\n",
		New:  "\ts.Lat = LatencyStats{}\n",
		Pkg:  "./internal/chip", Run: "^TestRunAllocationBudget$",
	},
	{
		Name: "a reset histogram keeps its overflow",
		File: "internal/stats/stats.go",
		Old:  "\t\th.hist = hist{BucketWidth: h.BucketWidth, Buckets: h.Buckets}\n",
		New:  "\t\th.hist = hist{BucketWidth: h.BucketWidth, Buckets: h.Buckets, Overflow: h.hist.Overflow}\n",
		Pkg:  "./internal/stats", Run: "^TestHistogramReset$",
	},

	// A job is counted, and its worker idle, before its waiters wake.
	{
		Name: "a finished job is counted after its waiters wake",
		File: "internal/serve/server.go",
		Old:  "\t\ts.jobsDone.Add(1)\n\t\ts.finish(j, StateDone)\n",
		New:  "\t\ts.finish(j, StateDone)\n\t\ts.jobsDone.Add(1)\n",
		Pkg:  "./internal/serve", Run: "^TestJobCountedBeforeWaitersWake$",
	},
	{
		Name: "a worker counts itself idle after its job's waiters wake",
		File: "internal/serve/server.go",
		Old:  "\ts.busy.Add(-1)\n",
		New:  "\tdefer s.busy.Add(-1)\n",
		Pkg:  "./internal/serve", Run: "^TestJobCountedBeforeWaitersWake$",
	},
}
