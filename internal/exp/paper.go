package exp

// The paper's reference values: every number the paper reports that a
// report here prints beside its measurement, declared once. Reports put
// them in columns headed "paper", or in notes when the paper states a
// shape rather than a cell. benchmark/bench/sweep.go keeps its own copy
// of Figure 9's 64-core speedups (paperSpeedupPct): the benchmark module
// changes only with a benchmark refresh, so it does not read this table.
var (
	// paperTable1 is the 64-core message mix, by row name.
	paperTable1 = map[string]string{
		"Requests": "47.0%", "Replies": "53.0%",
		"L2_Reply": "22.6%", "L1_DATA_ACK": "23.0%", "L2_WB_ACK": "4.7%",
		"L1_INV_ACK": "1.1%", "MEMORY_Data": "0.9% (with acks)", "L1_to_L1": "0.7%",
		eligibleRow: "53.2%",
	}
	// paperTable5 is Complete_NoAck's 64-core reservation ordinals, 1st to
	// 5th, then the failed share.
	paperTable5 = []string{"48%", "24%", "7%", "6%", "6%", "9%"}
	// paperTable6 is each version's router area savings, 16 and 64 cores.
	paperTable6 = map[string][2]string{
		"Fragmented":     {"-19.28%", "-18.96%"},
		"Complete":       {"+6.21%", "+5.77%"},
		"Complete Timed": {"+3.38%", "+1.09%"},
	}
	// paperFig8 and paperFig9 are normalized energy and speedup, by chip
	// and variant.
	paperFig8 = map[string]map[string]string{
		"16-core": {"Fragmented": "~1.18", "Complete_NoAck": "0.848", "Timed_NoAck": "above Complete_NoAck"},
		"64-core": {"Fragmented": "~1.19", "Complete_NoAck": "0.792", "Timed_NoAck": "above Complete_NoAck"},
	}
	paperFig9 = map[string]map[string]string{
		"16-core": {"Complete": "+3.8%", "SlackDelay_1_NoAck": "+4.4%", "Ideal": "above all"},
		"64-core": {"Complete": "+4.8%", "SlackDelay_1_NoAck": "+6.0%", "Ideal": "above all"},
	}
	paperFig6  = "paper (64 cores): about 25% of replies ride their own circuit under Complete; NoAck eliminates 20-30%"
	paperFig10 = "paper (64 cores): half of the applications gain over 4.5%, several over 10%; two slow down, by under 2%"
	paperCI    = "paper: margins of error at 95% confidence below 2% (64 cores) and 5% (16 cores)"
)
