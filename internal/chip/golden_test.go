package chip

import (
	"slices"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

// goldenRow pins one cell of the determinism matrix: the numbers were
// captured from the seed (pre-activity-tracking) engine and must stay bit
// for bit identical under the quiescence-skipping kernel. Regenerate with
// cmd/goldengen only when simulated behaviour changes on purpose.
type goldenRow struct {
	chip, workload, variant string

	cycles    sim.Cycle
	msgsTotal int64
	msgsReqs  int64

	reqN     int64
	reqSum   float64
	circN    int64
	circSum  float64
	otherN   int64
	otherSum float64

	linkFlits int64
}

var goldenMatrix = []goldenRow{
	{"16-core", "micro", "Baseline", 4008, 670, 247, 247, 5303, 193, 4862, 230, 5029, 6016},
	{"16-core", "micro", "Fragmented", 3836, 670, 247, 247, 5393, 193, 2639, 230, 5119, 6022},
	{"16-core", "micro", "Complete", 3833, 670, 247, 247, 5366, 193, 2896, 230, 5090, 6022},
	{"16-core", "micro", "Complete_NoAck", 3829, 516, 247, 247, 5362, 193, 2884, 230, 1773, 5431},
	{"16-core", "micro", "Reuse_NoAck", 3829, 516, 247, 247, 5362, 193, 2884, 230, 1773, 5436},
	{"16-core", "micro", "Timed_NoAck", 3839, 670, 247, 247, 5385, 193, 3052, 230, 5087, 6022},
	{"16-core", "micro", "Slack_1_NoAck", 3847, 521, 247, 247, 5357, 193, 2850, 230, 1787, 5433},
	{"16-core", "micro", "Slack_2_NoAck", 3847, 515, 247, 247, 5345, 193, 2811, 230, 1700, 5416},
	{"16-core", "micro", "Slack_4_NoAck", 3845, 521, 247, 247, 5397, 193, 2838, 230, 1817, 5437},
	{"16-core", "micro", "SlackDelay_1_NoAck", 3847, 521, 247, 247, 5357, 193, 2850, 230, 1787, 5433},
	{"16-core", "micro", "Postponed_1_NoAck", 3888, 523, 247, 247, 5360, 193, 2859, 230, 1859, 5444},
	{"16-core", "micro", "Ideal", 3818, 670, 247, 247, 5374, 193, 2623, 230, 5128, 6022},
	{"16-core", "canneal", "Baseline", 4586, 938, 340, 340, 7167, 310, 7462, 288, 6015, 8311},
	{"16-core", "canneal", "Fragmented", 4308, 938, 340, 340, 7302, 310, 4094, 288, 6085, 8311},
	{"16-core", "canneal", "Complete", 4350, 938, 340, 340, 7273, 310, 4733, 288, 6115, 8311},
	{"16-core", "canneal", "Complete_NoAck", 4350, 734, 340, 340, 7258, 310, 4733, 288, 1917, 7571},
	{"16-core", "canneal", "Reuse_NoAck", 4335, 734, 340, 340, 7224, 310, 4710, 288, 1915, 7590},
	{"16-core", "canneal", "Timed_NoAck", 4387, 938, 340, 340, 7267, 310, 4702, 288, 6124, 8311},
	{"16-core", "canneal", "Slack_1_NoAck", 4380, 726, 340, 340, 7237, 310, 4565, 288, 1691, 7523},
	{"16-core", "canneal", "Slack_2_NoAck", 4370, 721, 340, 340, 7277, 310, 4453, 288, 1581, 7506},
	{"16-core", "canneal", "Slack_4_NoAck", 4385, 720, 340, 340, 7264, 310, 4490, 288, 1569, 7507},
	{"16-core", "canneal", "SlackDelay_1_NoAck", 4380, 726, 340, 340, 7241, 310, 4549, 288, 1679, 7521},
	{"16-core", "canneal", "Postponed_1_NoAck", 4422, 724, 340, 340, 7269, 310, 4438, 288, 1650, 7520},
	{"16-core", "canneal", "Ideal", 4310, 938, 340, 340, 7300, 310, 4024, 288, 6107, 8311},
	{"64-core", "micro", "Baseline", 4752, 2990, 1176, 1176, 39527, 710, 26143, 1104, 37606, 40466},
	{"64-core", "micro", "Fragmented", 4369, 2991, 1176, 1176, 40003, 711, 13656, 1104, 38343, 40478},
	{"64-core", "micro", "Complete", 4516, 2993, 1177, 1177, 39979, 711, 17199, 1105, 38353, 40498},
	{"64-core", "micro", "Complete_NoAck", 4422, 2554, 1179, 1179, 40006, 713, 17033, 1107, 23783, 37928},
	{"64-core", "micro", "Reuse_NoAck", 4479, 2551, 1179, 1179, 40004, 713, 17057, 1107, 23694, 38057},
	{"64-core", "micro", "Timed_NoAck", 4462, 2994, 1177, 1177, 40052, 712, 16968, 1105, 38272, 40489},
	{"64-core", "micro", "Slack_1_NoAck", 4452, 2510, 1177, 1177, 39989, 712, 15874, 1105, 22232, 37590},
	{"64-core", "micro", "Slack_2_NoAck", 4449, 2522, 1176, 1176, 39896, 711, 16306, 1104, 22715, 37620},
	{"64-core", "micro", "Slack_4_NoAck", 4483, 2568, 1178, 1178, 39968, 712, 17148, 1106, 24248, 37923},
	{"64-core", "micro", "SlackDelay_1_NoAck", 4391, 2491, 1177, 1177, 40049, 713, 15437, 1105, 21518, 37470},
	{"64-core", "micro", "Postponed_1_NoAck", 4486, 2477, 1175, 1175, 39864, 710, 15281, 1103, 21150, 37300},
	{"64-core", "micro", "Ideal", 4353, 2994, 1177, 1177, 40091, 712, 13037, 1105, 38340, 40488},
	{"64-core", "canneal", "Baseline", 6018, 3747, 1443, 1443, 48392, 1021, 38075, 1283, 43008, 53824},
	{"64-core", "canneal", "Fragmented", 5513, 3753, 1446, 1446, 49388, 1020, 20558, 1287, 44170, 53782},
	{"64-core", "canneal", "Complete", 5582, 3751, 1445, 1445, 49033, 1020, 26441, 1286, 43964, 53755},
	{"64-core", "canneal", "Complete_NoAck", 5454, 3204, 1445, 1445, 49002, 1019, 26104, 1286, 25773, 50437},
	{"64-core", "canneal", "Reuse_NoAck", 5474, 3190, 1445, 1445, 49035, 1018, 26046, 1286, 25684, 50576},
	{"64-core", "canneal", "Timed_NoAck", 5480, 3752, 1446, 1446, 49065, 1019, 25211, 1287, 44067, 53791},
	{"64-core", "canneal", "Slack_1_NoAck", 5537, 3113, 1444, 1444, 49192, 1019, 22760, 1285, 22268, 49773},
	{"64-core", "canneal", "Slack_2_NoAck", 5551, 3143, 1444, 1444, 48990, 1019, 23657, 1285, 23470, 50003},
	{"64-core", "canneal", "Slack_4_NoAck", 5513, 3186, 1444, 1444, 48938, 1019, 24686, 1285, 24879, 50262},
	{"64-core", "canneal", "SlackDelay_1_NoAck", 5450, 3072, 1444, 1444, 49113, 1019, 21849, 1285, 20853, 49514},
	{"64-core", "canneal", "Postponed_1_NoAck", 5657, 3072, 1444, 1444, 48995, 1019, 21972, 1285, 20909, 49553},
	{"64-core", "canneal", "Ideal", 5395, 3748, 1444, 1444, 49316, 1019, 18850, 1285, 44131, 53757},
	// The 256-core rows run armed (goldenSpec): audit and oracles on.
	{"256-core", "micro", "Baseline", 9962, 13010, 5179, 5179, 325778, 2922, 191418, 4909, 307173, 320511},
	{"256-core", "micro", "Complete_NoAck", 9429, 11986, 5181, 5181, 327849, 2909, 154559, 4916, 254406, 308871},
	{"256-core", "micro", "Reuse_NoAck", 9193, 11949, 5169, 5169, 326969, 2906, 153124, 4902, 251500, 308764},
	// Adversarial-generator rows (internal/tracefeed): single-tile hotspot
	// traffic on the small chip. Note the ordering flip vs the stationary
	// profiles — Timed_NoAck loses to Baseline here (the contended tile's
	// windows keep expiring) while Reuse wins big.
	{"16-core", "hotspot", "Baseline", 5262, 1982, 791, 791, 14427, 443, 9492, 748, 13901, 13147},
	{"16-core", "hotspot", "Reuse_NoAck", 5017, 1752, 792, 792, 15095, 445, 5859, 748, 10042, 12499},
	{"16-core", "hotspot", "Timed_NoAck", 5321, 1973, 787, 787, 14594, 442, 8335, 744, 14320, 13093},
	// SDM rows (internal/core policy_sdm): the lane sweep under uniform
	// traffic pins the serialization model — per-hop latency grows with the
	// lane count (SDM_2 < SDM < SDM_8) while flit counts stay flat — and the
	// hotspot cell pins the lane-exhaustion fallback under contention.
	{"16-core", "micro", "SDM", 4450, 675, 249, 249, 7697, 194, 6543, 232, 7443, 6014},
	{"16-core", "micro", "SDM_2", 4045, 670, 247, 247, 6086, 193, 4221, 230, 5847, 6016},
	{"16-core", "micro", "SDM_8", 5336, 675, 249, 249, 10867, 194, 11680, 232, 10670, 6014},
	{"16-core", "hotspot", "SDM", 7174, 2005, 799, 799, 21144, 455, 17374, 751, 20820, 13359},
	// Policy-lab and comparator rows: the registered presets outside
	// Variants() and the SDM sweep. Hotspot grows DynamicVC's partitions
	// (27 grows / 18 shrinks); canneal fails probe setups.
	{"16-core", "micro", "DynamicVC", 3815, 670, 247, 247, 5375, 193, 2779, 230, 5093, 6022},
	{"16-core", "hotspot", "DynamicVC", 5109, 1981, 791, 791, 14952, 445, 6565, 745, 14455, 13147},
	{"16-core", "micro", "Speculative", 3493, 670, 247, 247, 2473, 193, 2625, 230, 2355, 6022},
	{"16-core", "micro", "Probe_DejaVu", 4230, 675, 249, 249, 5402, 194, 2732, 232, 5117, 6764},
	{"16-core", "canneal", "Probe_DejaVu", 4953, 938, 340, 340, 7257, 310, 4389, 288, 6128, 9457},
}

// goldenMustMove names, per cell, a policy counter that must be non-zero:
// without it a row whose policy never acted (a partition never grown) would
// pin its parent mechanism's numbers and pass vacuously.
var goldenMustMove = map[string]string{
	"16-core/hotspot/DynamicVC": "circ/dynvc_grows",
}

func goldenSpec(row goldenRow, t *testing.T) Spec {
	t.Helper()
	var c config.Chip
	switch row.chip {
	case "16-core":
		c = config.Chip16()
	case "64-core":
		c = config.Chip64()
	case "256-core":
		c = config.Chip256()
	default:
		t.Fatalf("unknown chip %q", row.chip)
	}
	w := workload.Micro()
	if row.workload != "micro" {
		var ok bool
		w, ok = workload.ByName(row.workload)
		if !ok {
			t.Fatalf("unknown workload %q", row.workload)
		}
	}
	v, found := config.ByName(row.variant)
	if !found {
		t.Fatalf("unknown variant %q", row.variant)
	}
	spec := DefaultSpec(c, v, w)
	spec.WarmupOps = 600
	spec.MeasureOps = 2400
	spec.Seed = 7
	// The oracles only read, so arming them cannot move a row; on the
	// 256-core rows they prove the directory wider than one word coherent.
	spec.Audit = c.Nodes() > 64
	spec.Verify = spec.Audit
	return spec
}

func checkGolden(t *testing.T, row goldenRow, r *Results) {
	t.Helper()
	if r.Cycles != row.cycles {
		t.Errorf("Cycles = %d, golden %d", r.Cycles, row.cycles)
	}
	total, reqs := r.Msgs.Totals()
	if total != row.msgsTotal || reqs != row.msgsReqs {
		t.Errorf("messages = %d/%d, golden %d/%d", total, reqs, row.msgsTotal, row.msgsReqs)
	}
	if n, s := r.Lat.Requests.Network.N(), r.Lat.Requests.Network.Sum(); n != row.reqN || s != row.reqSum {
		t.Errorf("request latency = (%d, %.0f), golden (%d, %.0f)", n, s, row.reqN, row.reqSum)
	}
	if n, s := r.Lat.CircuitReplies.Network.N(), r.Lat.CircuitReplies.Network.Sum(); n != row.circN || s != row.circSum {
		t.Errorf("circuit-reply latency = (%d, %.0f), golden (%d, %.0f)", n, s, row.circN, row.circSum)
	}
	if n, s := r.Lat.OtherReplies.Network.N(), r.Lat.OtherReplies.Network.Sum(); n != row.otherN || s != row.otherSum {
		t.Errorf("other-reply latency = (%d, %.0f), golden (%d, %.0f)", n, s, row.otherN, row.otherSum)
	}
	if r.Events.LinkFlits != row.linkFlits {
		t.Errorf("link flits = %d, golden %d", r.Events.LinkFlits, row.linkFlits)
	}
	if name, ok := goldenMustMove[row.chip+"/"+row.workload+"/"+row.variant]; ok && r.Metrics.Value(name) <= 0 {
		t.Errorf("metric %s = %d, want > 0: the row no longer exercises its policy", name, r.Metrics.Value(name))
	}
}

// TestGoldenDeterminism runs the pinned spec matrix (both chips, two
// workloads, every variant) on the activity-tracked kernel and asserts the
// cycle counts, message counts and latency aggregates reproduce the seed
// engine bit for bit. Under -short the 64-core half is trimmed to the
// variants that exercise distinct mechanisms.
func TestGoldenDeterminism(t *testing.T) {
	shortKeep := map[string]bool{
		"Baseline": true, "Fragmented": true, "Complete_NoAck": true,
		"Timed_NoAck": true, "Ideal": true,
	}
	for _, row := range goldenMatrix {
		if testing.Short() && row.chip != "16-core" && !(row.chip == "64-core" && shortKeep[row.variant]) {
			continue
		}
		t.Run(row.chip+"/"+row.workload+"/"+row.variant, func(t *testing.T) {
			t.Parallel()
			r, err := Run(goldenSpec(row, t))
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			checkGolden(t, row, r)
		})
	}
}

// crossCheckRows selects the determinism-matrix cells the pooled/unpooled
// and sparse/dense cross-checks run: baseline, the complete mechanism, the
// scrounger-reuse and timed-circuit variants (whose circuit-riding and
// window-expiry paths have the trickiest pointer and scheduling lifetimes),
// the SDM lane-sliced cells (lane pacing and lane-releasing teardown add
// the newest engine-sensitive lifetimes), a canneal cell, the 64-core
// reuse/timed cells, and the policy-lab/comparator cells (per-router
// partition state, the speculative pipeline and probe setups). Under
// -short the list trims to the 16-core distinct-mechanism cells.
func crossCheckRows() []int {
	if testing.Short() {
		return []int{0, 3, 4, 5, 54, 59, 62}
	}
	return []int{0, 3, 4, 5, 14, 28, 29, 54, 56, 58, 59, 60, 61, 62}
}

// crossCheck runs every cross-check row on the reference engine and on the
// named differential leg (Legs): both must reproduce the golden row, and
// the two results must Diff clean, every sample window included, outside
// the metrics the leg moves by design.
func crossCheck(t *testing.T, legName string) {
	i := slices.IndexFunc(Legs(), func(l Leg) bool { return l.Name == legName })
	if i < 0 {
		t.Fatalf("no differential leg %q", legName)
	}
	leg := Legs()[i]
	for _, i := range crossCheckRows() {
		row := goldenMatrix[i]
		t.Run(row.chip+"/"+row.workload+"/"+row.variant, func(t *testing.T) {
			t.Parallel()
			spec := goldenSpec(row, t)
			// An odd window puts sampling boundaries everywhere a lazily
			// credited counter could read wrong mid-run.
			spec.SampleEvery = 97
			ref, err := Run(spec)
			if err != nil {
				t.Fatalf("reference run failed: %v", err)
			}
			leg.Apply(&spec)
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s run failed: %v", leg.Name, err)
			}
			checkGolden(t, row, ref)
			checkGolden(t, row, res)
			if err := Diff(ref, res, leg.Skip); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPooledMatchesUnpooled cross-checks flit/message recycling against the
// garbage-collected reference: pooling only changes pointer identity, never
// simulated behaviour, so everything but the pool's own bookkeeping must
// agree bit for bit.
func TestPooledMatchesUnpooled(t *testing.T) { crossCheck(t, "no-pool") }

// TestDenseMatchesSparse cross-checks the two scheduling modes: dense (tick
// everything, the seed engine's behaviour) and sparse (skip quiescent
// components) must agree on everything but the activity gauge.
func TestDenseMatchesSparse(t *testing.T) { crossCheck(t, "dense-kernel") }
