package chip

import (
	"reflect"
	"slices"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
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

	// outcomes counts replies per Figure-6 outcome, from core.OutcomeCircuit
	// on (circuit, failed, undone, scrounger, not-eligible, eliminated);
	// built, undone and elimAcks are the circuit manager's CircuitsBuilt,
	// CircuitsUndone and EliminatedAcks. All are zero without a manager.
	outcomes                [6]int64
	built, undone, elimAcks int64
	// power is every noc.PowerEvents counter, in declaration order.
	power [10]int64
}

var goldenMatrix = []goldenRow{
	{"16-core", "micro", "Baseline", 4008, 670, 247, 247, 5303, 193, 4862, 230, 5029, 6016, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{6016, 6016, 6016, 6016, 2592, 6016, 6016, 0, 0, 0}},
	{"16-core", "micro", "Fragmented", 3836, 670, 247, 247, 5393, 193, 2639, 230, 5119, 6022, [6]int64{189, 2, 26, 0, 206, 0}, 215, 26, 0, [10]int64{2546, 2546, 6022, 6022, 1854, 2684, 6087, 4847, 1666, 138}},
	{"16-core", "micro", "Complete", 3833, 670, 247, 247, 5366, 193, 2896, 230, 5090, 6022, [6]int64{172, 19, 20, 0, 212, 0}, 192, 20, 0, [10]int64{2911, 2911, 6022, 6022, 1935, 3025, 3019, 4847, 1574, 114}},
	{"16-core", "micro", "Complete_NoAck", 3829, 516, 247, 247, 5362, 193, 2884, 230, 1773, 5431, [6]int64{173, 18, 22, 0, 56, 154}, 195, 22, 154, [10]int64{2316, 2316, 5431, 5431, 1340, 2400, 2421, 4256, 1580, 84}},
	{"16-core", "micro", "Reuse_NoAck", 3829, 516, 247, 247, 5362, 193, 2884, 230, 1773, 5436, [6]int64{173, 18, 22, 3, 53, 154}, 195, 22, 154, [10]int64{2311, 2311, 5436, 5436, 1335, 2397, 2416, 4261, 1580, 86}},
	{"16-core", "micro", "Timed_NoAck", 3839, 670, 247, 247, 5385, 193, 3052, 230, 5087, 6022, [6]int64{155, 18, 43, 0, 207, 0}, 198, 43, 0, [10]int64{3071, 3071, 6022, 6022, 1987, 3217, 3071, 4847, 1402, 146}},
	{"16-core", "micro", "Slack_1_NoAck", 3847, 521, 247, 247, 5357, 193, 2850, 230, 1787, 5433, [6]int64{171, 8, 37, 0, 58, 149}, 208, 37, 149, [10]int64{2253, 2253, 5433, 5433, 1333, 2331, 2253, 4258, 1491, 78}},
	{"16-core", "micro", "Slack_2_NoAck", 3847, 515, 247, 247, 5345, 193, 2811, 230, 1700, 5416, [6]int64{176, 6, 34, 0, 52, 155}, 210, 34, 155, [10]int64{2170, 2170, 5416, 5416, 1302, 2248, 2170, 4241, 1512, 78}},
	{"16-core", "micro", "Slack_4_NoAck", 3845, 521, 247, 247, 5397, 193, 2838, 230, 1817, 5437, [6]int64{172, 10, 29, 0, 63, 149}, 201, 29, 149, [10]int64{2281, 2281, 5437, 5437, 1333, 2391, 2281, 4262, 1486, 110}},
	{"16-core", "micro", "SlackDelay_1_NoAck", 3847, 521, 247, 247, 5357, 193, 2850, 230, 1787, 5433, [6]int64{171, 8, 38, 0, 57, 149}, 209, 38, 149, [10]int64{2253, 2253, 5433, 5433, 1333, 2331, 2253, 4258, 1492, 78}},
	{"16-core", "micro", "Postponed_1_NoAck", 3888, 523, 247, 247, 5360, 193, 2859, 230, 1859, 5444, [6]int64{170, 3, 45, 0, 58, 147}, 215, 45, 147, [10]int64{2313, 2313, 5444, 5444, 1345, 2393, 2313, 4269, 1503, 80}},
	{"16-core", "micro", "Ideal", 3818, 670, 247, 247, 5374, 193, 2623, 230, 5128, 6022, [6]int64{191, 0, 27, 0, 205, 0}, 218, 27, 0, [10]int64{2521, 2521, 6022, 6022, 1849, 2664, 6022, 4847, 1676, 143}},
	{"16-core", "canneal", "Baseline", 4586, 938, 340, 340, 7167, 310, 7462, 288, 6015, 8311, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{8311, 8311, 8311, 8311, 3483, 8311, 8311, 0, 0, 0}},
	{"16-core", "canneal", "Fragmented", 4308, 938, 340, 340, 7302, 310, 4094, 288, 6085, 8311, [6]int64{299, 11, 15, 0, 273, 0}, 314, 15, 0, [10]int64{3214, 3214, 8311, 8311, 2362, 3434, 8354, 6541, 2376, 220}},
	{"16-core", "canneal", "Complete", 4350, 938, 340, 340, 7273, 310, 4733, 288, 6115, 8311, [6]int64{253, 57, 13, 0, 275, 0}, 266, 13, 0, [10]int64{4171, 4171, 8311, 8311, 2567, 4396, 4316, 6541, 2148, 225}},
	{"16-core", "canneal", "Complete_NoAck", 4350, 734, 340, 340, 7258, 310, 4733, 288, 1917, 7571, [6]int64{253, 57, 13, 0, 71, 204}, 266, 13, 204, [10]int64{3431, 3431, 7571, 7571, 1827, 3617, 3576, 5801, 2148, 186}},
	{"16-core", "canneal", "Reuse_NoAck", 4335, 734, 340, 340, 7224, 310, 4710, 288, 1915, 7590, [6]int64{252, 58, 13, 8, 63, 204}, 265, 13, 204, [10]int64{3360, 3360, 7590, 7590, 1804, 3500, 3501, 5820, 2150, 140}},
	{"16-core", "canneal", "Timed_NoAck", 4387, 938, 340, 340, 7267, 310, 4702, 288, 6124, 8311, [6]int64{251, 25, 46, 0, 276, 0}, 297, 46, 0, [10]int64{4018, 4018, 8311, 8311, 2554, 4250, 4018, 6541, 2076, 232}},
	{"16-core", "canneal", "Slack_1_NoAck", 4380, 726, 340, 340, 7237, 310, 4565, 288, 1691, 7523, [6]int64{263, 21, 39, 0, 63, 212}, 302, 39, 212, [10]int64{3101, 3101, 7523, 7523, 1721, 3270, 3101, 5753, 2136, 169}},
	{"16-core", "canneal", "Slack_2_NoAck", 4370, 721, 340, 340, 7277, 310, 4453, 288, 1581, 7506, [6]int64{273, 17, 35, 0, 56, 217}, 308, 35, 217, [10]int64{2951, 2951, 7506, 7506, 1671, 3125, 2951, 5736, 2178, 174}},
	{"16-core", "canneal", "Slack_4_NoAck", 4385, 720, 340, 340, 7264, 310, 4490, 288, 1569, 7507, [6]int64{271, 22, 32, 0, 55, 218}, 303, 32, 218, [10]int64{2979, 2979, 7507, 7507, 1683, 3150, 2979, 5737, 2154, 171}},
	{"16-core", "canneal", "SlackDelay_1_NoAck", 4380, 726, 340, 340, 7241, 310, 4549, 288, 1679, 7521, [6]int64{264, 20, 39, 0, 63, 212}, 303, 39, 212, [10]int64{3084, 3084, 7521, 7521, 1712, 3263, 3084, 5751, 2147, 179}},
	{"16-core", "canneal", "Postponed_1_NoAck", 4422, 724, 340, 340, 7269, 310, 4438, 288, 1650, 7520, [6]int64{272, 5, 48, 0, 59, 214}, 320, 48, 214, [10]int64{2900, 2900, 7520, 7520, 1680, 3058, 2900, 5750, 2209, 158}},
	{"16-core", "canneal", "Ideal", 4310, 938, 340, 340, 7300, 310, 4024, 288, 6107, 8311, [6]int64{310, 0, 15, 0, 273, 0}, 325, 15, 0, [10]int64{3089, 3089, 8311, 8311, 2337, 3296, 8311, 6541, 2408, 207}},
	{"64-core", "micro", "Baseline", 4752, 2990, 1176, 1176, 39527, 710, 26143, 1104, 37606, 40466, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{40466, 40466, 40466, 40466, 18658, 40466, 40466, 0, 0, 0}},
	{"64-core", "micro", "Fragmented", 4369, 2991, 1176, 1176, 40003, 711, 13656, 1104, 38343, 40478, [6]int64{633, 76, 152, 0, 954, 0}, 785, 152, 0, [10]int64{20811, 20811, 40478, 40478, 14479, 21979, 41400, 31884, 10608, 1168}},
	{"64-core", "micro", "Complete", 4516, 2993, 1177, 1177, 39979, 711, 17199, 1105, 38353, 40498, [6]int64{501, 208, 106, 0, 1001, 0}, 607, 106, 0, [10]int64{26351, 26351, 40498, 40498, 15671, 27303, 27859, 31894, 9234, 952}},
	{"64-core", "micro", "Complete_NoAck", 4422, 2554, 1179, 1179, 40006, 713, 17033, 1107, 23783, 37928, [6]int64{509, 202, 109, 0, 555, 445}, 618, 109, 445, [10]int64{23410, 23410, 37928, 37928, 12974, 24274, 24890, 29310, 9326, 864}},
	{"64-core", "micro", "Reuse_NoAck", 4479, 2551, 1179, 1179, 40004, 713, 17057, 1107, 23694, 38057, [6]int64{509, 202, 107, 14, 540, 448}, 616, 107, 448, [10]int64{23322, 23322, 38057, 38057, 12898, 24134, 24768, 29439, 9268, 812}},
	{"64-core", "micro", "Timed_NoAck", 4462, 2994, 1177, 1177, 40052, 712, 16968, 1105, 38272, 40489, [6]int64{515, 82, 253, 0, 967, 0}, 768, 253, 0, [10]int64{25727, 25727, 40489, 40489, 15591, 26637, 25727, 31877, 8154, 910}},
	{"64-core", "micro", "Slack_1_NoAck", 4452, 2510, 1177, 1177, 39989, 712, 15874, 1105, 22232, 37590, [6]int64{562, 78, 217, 0, 476, 484}, 779, 217, 484, [10]int64{21478, 21478, 37590, 37590, 12274, 22377, 21478, 28986, 8739, 899}},
	{"64-core", "micro", "Slack_2_NoAck", 4449, 2522, 1176, 1176, 39896, 711, 16306, 1104, 22715, 37620, [6]int64{538, 109, 203, 0, 496, 469}, 741, 203, 469, [10]int64{22134, 22134, 37620, 37620, 12478, 23118, 22134, 29024, 8481, 984}},
	{"64-core", "micro", "Slack_4_NoAck", 4483, 2568, 1178, 1178, 39968, 712, 17148, 1106, 24248, 37923, [6]int64{499, 156, 181, 0, 554, 428}, 680, 181, 428, [10]int64{23705, 23705, 37923, 37923, 13057, 24606, 23705, 29311, 7996, 901}},
	{"64-core", "micro", "SlackDelay_1_NoAck", 4391, 2491, 1177, 1177, 40049, 713, 15437, 1105, 21518, 37470, [6]int64{585, 53, 227, 0, 449, 504}, 812, 227, 504, [10]int64{20619, 20619, 37470, 37470, 11995, 21509, 20619, 28860, 8950, 890}},
	{"64-core", "micro", "Postponed_1_NoAck", 4486, 2477, 1175, 1175, 39864, 710, 15281, 1103, 21150, 37300, [6]int64{586, 36, 242, 0, 438, 511}, 828, 242, 511, [10]int64{20388, 20388, 37300, 37300, 11896, 21168, 20388, 28713, 8970, 780}},
	{"64-core", "micro", "Ideal", 4353, 2994, 1177, 1177, 40091, 712, 13037, 1105, 38340, 40488, [6]int64{710, 0, 164, 0, 943, 0}, 874, 164, 0, [10]int64{19859, 19859, 40488, 40488, 14291, 21027, 40488, 31888, 10922, 1168}},
	{"64-core", "canneal", "Baseline", 6018, 3747, 1443, 1443, 48392, 1021, 38075, 1283, 43008, 53824, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{53824, 53824, 53824, 53824, 23316, 53824, 53824, 0, 0, 0}},
	{"64-core", "canneal", "Fragmented", 5513, 3753, 1446, 1446, 49388, 1020, 20558, 1287, 44170, 53782, [6]int64{830, 184, 163, 0, 1130, 0}, 993, 163, 0, [10]int64{27054, 27054, 53782, 53782, 17510, 28988, 54786, 42225, 14286, 1934}},
	{"64-core", "canneal", "Complete", 5582, 3751, 1445, 1445, 49033, 1020, 26441, 1286, 43964, 53755, [6]int64{645, 368, 134, 0, 1159, 0}, 779, 134, 0, [10]int64{35894, 35894, 53755, 53755, 19426, 37396, 37962, 42204, 12206, 1502}},
	{"64-core", "canneal", "Complete_NoAck", 5454, 3204, 1445, 1445, 49002, 1019, 26104, 1286, 25773, 50437, [6]int64{658, 355, 134, 0, 612, 546}, 792, 134, 546, [10]int64{32170, 32170, 50437, 50437, 15994, 33527, 34161, 38884, 12248, 1357}},
	{"64-core", "canneal", "Reuse_NoAck", 5474, 3190, 1445, 1445, 49035, 1018, 26046, 1286, 25684, 50576, [6]int64{666, 347, 134, 16, 582, 559}, 800, 134, 559, [10]int64{32089, 32089, 50576, 50576, 15937, 33416, 34065, 39023, 12186, 1327}},
	{"64-core", "canneal", "Timed_NoAck", 5480, 3752, 1446, 1446, 49065, 1019, 25211, 1287, 44067, 53791, [6]int64{701, 179, 299, 0, 1127, 0}, 1000, 299, 0, [10]int64{33357, 33357, 53791, 53791, 19029, 34820, 33357, 42231, 11146, 1463}},
	{"64-core", "canneal", "Slack_1_NoAck", 5537, 3113, 1444, 1444, 49192, 1019, 22760, 1285, 22268, 49773, [6]int64{798, 140, 239, 0, 492, 635}, 1037, 239, 635, [10]int64{26590, 26590, 49773, 49773, 14242, 28260, 26590, 38229, 12220, 1670}},
	{"64-core", "canneal", "Slack_2_NoAck", 5551, 3143, 1444, 1444, 48990, 1019, 23657, 1285, 23470, 50003, [6]int64{754, 201, 218, 0, 526, 605}, 972, 218, 605, [10]int64{28320, 28320, 50003, 50003, 14764, 29792, 28320, 38459, 11724, 1472}},
	{"64-core", "canneal", "Slack_4_NoAck", 5513, 3186, 1444, 1444, 48938, 1019, 24686, 1285, 24879, 50262, [6]int64{706, 260, 195, 0, 581, 562}, 901, 195, 562, [10]int64{29898, 29898, 50262, 50262, 15358, 31209, 29898, 38718, 11125, 1311}},
	{"64-core", "canneal", "SlackDelay_1_NoAck", 5450, 3072, 1444, 1444, 49113, 1019, 21849, 1285, 20853, 49514, [6]int64{839, 103, 242, 0, 444, 676}, 1081, 242, 676, [10]int64{25014, 25014, 49514, 49514, 13702, 26508, 25014, 37970, 12611, 1494}},
	{"64-core", "canneal", "Postponed_1_NoAck", 5657, 3072, 1444, 1444, 48995, 1019, 21972, 1285, 20909, 49553, [6]int64{839, 60, 297, 0, 432, 676}, 1136, 297, 676, [10]int64{25261, 25261, 49553, 49553, 13761, 26628, 25261, 38007, 12717, 1367}},
	{"64-core", "canneal", "Ideal", 5395, 3748, 1444, 1444, 49316, 1019, 18850, 1285, 44131, 53757, [6]int64{1014, 0, 199, 0, 1091, 0}, 1213, 199, 0, [10]int64{24467, 24467, 53757, 53757, 16935, 26368, 53757, 42213, 15132, 1901}},
	// The 256-core rows run armed (goldenSpec): audit and oracles on.
	{"256-core", "micro", "Baseline", 9962, 13010, 5179, 5179, 325778, 2922, 191418, 4909, 307173, 320511, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{320511, 320511, 320511, 320511, 156015, 320511, 320511, 0, 0, 0}},
	{"256-core", "micro", "Complete_NoAck", 9429, 11986, 5181, 5181, 327849, 2909, 154559, 4916, 254406, 308871, [6]int64{1163, 1746, 213, 0, 3683, 1020}, 1376, 213, 1020, [10]int64{249437, 249437, 308871, 308871, 132533, 254484, 264614, 238423, 55872, 5047}},
	{"256-core", "micro", "Reuse_NoAck", 9193, 11949, 5169, 5169, 326969, 2906, 153124, 4902, 251500, 308764, [6]int64{1175, 1731, 203, 114, 3557, 1029}, 1378, 203, 1029, [10]int64{246521, 246521, 308764, 308764, 130837, 251547, 261488, 238457, 56018, 5026}},
	// Adversarial-generator rows (internal/tracefeed): single-tile hotspot
	// traffic on the small chip. Note the ordering flip vs the stationary
	// profiles — Timed_NoAck loses to Baseline here (the contended tile's
	// windows keep expiring) while Reuse wins big.
	{"16-core", "hotspot", "Baseline", 5262, 1982, 791, 791, 14427, 443, 9492, 748, 13901, 13147, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{13147, 13147, 13147, 13147, 6215, 13147, 13147, 0, 0, 0}},
	{"16-core", "hotspot", "Reuse_NoAck", 5017, 1752, 792, 792, 15095, 445, 5859, 748, 10042, 12499, [6]int64{402, 42, 90, 6, 420, 234}, 492, 90, 234, [10]int64{6689, 6689, 12499, 12499, 4241, 7392, 6963, 9454, 3252, 703}},
	{"16-core", "hotspot", "Timed_NoAck", 5321, 1973, 787, 787, 14594, 442, 8335, 744, 14320, 13093, [6]int64{157, 42, 328, 0, 659, 0}, 485, 328, 0, [10]int64{10694, 10694, 13093, 13093, 5694, 11044, 10694, 10079, 2109, 350}},
	// SDM rows (internal/core policy_sdm): the lane sweep under uniform
	// traffic pins the serialization model — per-hop latency grows with the
	// lane count (SDM_2 < SDM < SDM_8) while flit counts stay flat — and the
	// hotspot cell pins the lane-exhaustion fallback under contention.
	{"16-core", "micro", "SDM", 4450, 675, 249, 249, 7697, 194, 6543, 232, 7443, 6014, [6]int64{192, 0, 27, 0, 207, 0}, 219, 27, 0, [10]int64{2518, 2518, 6014, 6014, 1854, 2584, 6083, 4836, 1680, 66}},
	{"16-core", "micro", "SDM_2", 4045, 670, 247, 247, 6086, 193, 4221, 230, 5847, 6016, [6]int64{162, 29, 19, 0, 213, 0}, 181, 19, 0, [10]int64{3062, 3062, 6016, 6016, 1962, 3122, 6109, 4842, 1484, 60}},
	{"16-core", "micro", "SDM_8", 5336, 675, 249, 249, 10867, 194, 11680, 232, 10670, 6014, [6]int64{192, 0, 27, 0, 207, 0}, 219, 27, 0, [10]int64{2518, 2518, 6014, 6014, 1854, 2566, 6083, 4836, 1680, 48}},
	{"16-core", "hotspot", "SDM", 7174, 2005, 799, 799, 21144, 455, 17374, 751, 20820, 13359, [6]int64{348, 106, 74, 0, 678, 0}, 422, 74, 0, [10]int64{8402, 8402, 13359, 13359, 5206, 8525, 13786, 10244, 3172, 123}},
	// Policy-lab and comparator rows: the registered presets outside
	// Variants() and the SDM sweep. Hotspot grows DynamicVC's partitions
	// (27 grows / 18 shrinks); canneal fails probe setups.
	{"16-core", "micro", "DynamicVC", 3815, 670, 247, 247, 5375, 193, 2779, 230, 5093, 6022, [6]int64{168, 23, 23, 0, 209, 0}, 191, 23, 0, [10]int64{2753, 2753, 6022, 6022, 1897, 2880, 6088, 4847, 1608, 127}},
	{"16-core", "hotspot", "DynamicVC", 5109, 1981, 791, 791, 14952, 445, 6565, 745, 14455, 13147, [6]int64{266, 178, 60, 0, 686, 0}, 326, 60, 0, [10]int64{8144, 8144, 13147, 13147, 5116, 8693, 13355, 10068, 2830, 549}},
	{"16-core", "micro", "Speculative", 3493, 670, 247, 247, 2473, 193, 2625, 230, 2355, 6022, [6]int64{0, 0, 0, 0, 0, 0}, 0, 0, 0, [10]int64{0, 0, 6022, 6022, 0, 0, 6022, 0, 0, 0}},
	{"16-core", "micro", "Probe_DejaVu", 4230, 675, 249, 249, 5402, 194, 2732, 232, 5117, 6764, [6]int64{185, 9, 0, 0, 232, 0}, 185, 0, 0, [10]int64{3399, 3399, 6764, 6764, 2635, 3543, 6770, 5586, 1438, 144}},
	{"16-core", "canneal", "Probe_DejaVu", 4953, 938, 340, 340, 7257, 310, 4389, 288, 6128, 9457, [6]int64{280, 30, 0, 0, 288, 0}, 280, 0, 0, [10]int64{4778, 4778, 9457, 9457, 3606, 5044, 9494, 7687, 2120, 266}},
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
	var circ core.Stats
	if r.Circ != nil {
		circ = *r.Circ
	}
	if err := balance(booksOf(r)); err != nil {
		t.Error(err)
	}
	if got := circ.Replies[core.OutcomeCircuit:]; !slices.Equal(got, row.outcomes[:]) {
		t.Errorf("Figure-6 outcomes = %v, golden %v", got, row.outcomes)
	}
	if circ.CircuitsBuilt != row.built || circ.CircuitsUndone != row.undone || circ.EliminatedAcks != row.elimAcks {
		t.Errorf("built/undone/eliminated acks = %d/%d/%d, golden %d/%d/%d", circ.CircuitsBuilt,
			circ.CircuitsUndone, circ.EliminatedAcks, row.built, row.undone, row.elimAcks)
	}
	ev := reflect.ValueOf(r.Events)
	power := make([]int64, ev.NumField())
	for i := range power {
		power[i] = ev.Field(i).Int()
	}
	if !slices.Equal(power, row.power[:]) {
		t.Errorf("power events = %v, golden %v", power, row.power)
	}
	if name, ok := goldenMustMove[row.chip+"/"+row.workload+"/"+row.variant]; ok && r.Metrics.Value(name) <= 0 {
		t.Errorf("metric %s = %d, want > 0: the row no longer exercises its policy", name, r.Metrics.Value(name))
	}
}

// TestGoldenDeterminism runs the pinned spec matrix (both chips, two
// workloads, every variant) on the activity-tracked kernel and asserts the
// cycle counts, message counts, latency aggregates, Figure-6 outcomes,
// circuit counters and power events reproduce their pinned values bit for
// bit. Under -short the 64-core half is trimmed to the
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
