package exp

import (
	"reflect"
	"strings"
	"testing"

	"reactivenoc/internal/config"
)

// rendered is a table read back from one rendering: title, header and rows
// (header first), and notes.
type rendered struct {
	title string
	cells [][]string
	notes []string
}

// readMarkdown parses table.markdown's layout.
func readMarkdown(t *testing.T, md string) rendered {
	t.Helper()
	lines := strings.Split(md, "\n")
	if !strings.HasPrefix(lines[0], "### ") || lines[1] != "" {
		t.Fatalf("markdown does not open with a heading and a blank line:\n%s", md)
	}
	r := rendered{title: strings.TrimPrefix(lines[0], "### ")}
	i := 2
	for ; strings.HasPrefix(lines[i], "|"); i++ {
		if i == 3 {
			continue // the |---| rule
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(lines[i], "| "), " |")
		r.cells = append(r.cells, strings.Split(inner, " | "))
	}
	for i++; i < len(lines) && lines[i] != ""; i++ {
		r.notes = append(r.notes, lines[i])
	}
	return r
}

// readText parses table.text's layout: the column spans are the separator
// line's runs of dashes, and the rows are the n lines after it.
func readText(t *testing.T, text string, n int) rendered {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	r := rendered{title: lines[0]}
	var spans [][2]int
	sep := []rune(lines[2])
	for i := 0; i < len(sep); i++ {
		if sep[i] == '-' && (i == 0 || sep[i-1] != '-') {
			spans = append(spans, [2]int{i, i})
		}
		if sep[i] == '-' {
			spans[len(spans)-1][1] = i + 1
		}
	}
	for _, line := range append(lines[1:2], lines[3:3+n]...) {
		runes := []rune(line)
		var row []string
		for k, sp := range spans {
			end := sp[1]
			if k == len(spans)-1 {
				end = len(runes)
			}
			if k > 0 && string(runes[sp[0]-2:sp[0]]) != "  " {
				t.Errorf("text row %q overruns its column %d", line, k-1)
			}
			row = append(row, strings.TrimSpace(string(runes[sp[0]:end])))
		}
		r.cells = append(r.cells, row)
	}
	r.notes = lines[3+n:]
	if len(r.notes) == 0 {
		r.notes = nil
	}
	return r
}

// TestTextAndMarkdownAgree: every report, the paper's and the extension
// experiments', prints the same title, cells and notes as text (Format)
// and as markdown, and the paper columns carry the paper's values.
func TestTextAndMarkdownAgree(t *testing.T) {
	pair := PairRow{
		Circuit: map[string]float64{"Complete_NoAck": 0.26, "SlackDelay_1_NoAck": 0.31},
		Failed:  map[string]float64{"Complete_NoAck": 0.36, "SlackDelay_1_NoAck": 0.10},
		Speedup: map[string]float64{"Complete_NoAck": 1.05, "SlackDelay_1_NoAck": 1.06},
	}
	ratios := []RatioRow{{"Fragmented", 1.004, 0.01}, {"Complete", 1.044, 0.002}, {"Ideal", 1.096, 0.01}}
	reports := []interface {
		Format() string
		table() *table
	}{
		&Table1{Total: 1000, RequestFrac: 0.392, ReplyFrac: 0.608, EligibleFrac: 0.5,
			ByType: map[string]float64{"GetS": 0.2, "L2_Reply": 0.216, "L1_DATA_ACK": 0.239}},
		&Table5{Variant: "Complete_NoAck", Ordinals: []float64{0.616, 0.243, 0.041, 0.005, 0}, Failed: 0.094},
		Table6Compute(),
		&Fig6{Chip: "64-core", Rows: []Fig6Row{{Variant: "Complete_NoAck", Circuit: 0.262, Failed: 0.163,
			Undone: 0.041, NotEligible: 0.337, Eliminated: 0.197}}},
		&Fig7{Chip: "16-core", Rows: []Fig7Row{{Variant: "Baseline", ReqNet: 35.3, ReqQ: 1.5}}},
		&Fig8{Chip: "16-core", Rows: ratios},
		&Fig9{Chip: "64-core", Rows: ratios},
		&Fig9{Chip: "256-core", Rows: ratios},
		&Fig10{Chip: "64-core", Variant: "SlackDelay_1_NoAck", Apps: []string{"canneal", "swaptions"},
			Speedup: []float64{1.111, 1.010}},
		&LoadSweep{Chip: config.Chip64(), Rows: []LoadRow{{Factor: 0.5, InjRate: 0.014, PairRow: pair}}},
		&ScaleSweep{Rows: []ScaleRow{{Nodes: 16, PairRow: pair}}},
		&Ablation{Chip: config.Chip64(), Param: "slack/hop", Rows: []AblationRow{{Value: 1, CircuitFrac: 0.31, Speedup: 1.075}}},
		&Compare{Chip: config.Chip64(), Rows: []CompareRow{{Name: "Baseline", ReplyNet: 37.8, EnergyRatio: 1}}},
		&CI{Chip: config.Chip16(), Seeds: 5, Rows: []CIRow{{Variant: "Complete_NoAck", Mean: 1.036, CI95: 0.005}}},
		&Tune{Chip: "16-core", Rows: []TuneRow{{Workload: "micro", Best: "Slack_2_NoAck", BestCycles: 5845, Speedup: 1.045}}},
	}
	for _, r := range reports {
		md := readMarkdown(t, r.table().markdown())
		text := readText(t, r.Format(), len(md.cells)-1)
		if !reflect.DeepEqual(text, md) {
			t.Errorf("%T renders differently:\ntext     %q\nmarkdown %q", r, text, md)
		}
	}

	// Spot checks that the paper's values land in their columns.
	for _, tc := range []struct {
		r    interface{ table() *table }
		row  int
		want []string
	}{
		{reports[0], 5, []string{eligibleRow, "50.0%", "53.2%"}},
		{reports[1], 5, []string{"failed", "9.4%", "9%"}},
		{reports[2], 0, []string{"Fragmented", "-19.63%", "-19.25%", "-19.28%", "-18.96%"}},
		{reports[5], 0, []string{"Fragmented", "1.004", "0.010", "~1.18"}},
		{reports[6], 1, []string{"Complete", "+4.40%", "0.002", "+4.8%"}},
		{reports[7], 1, []string{"Complete", "+4.40%", "0.002"}},
	} {
		if got := tc.r.table().rows[tc.row]; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T row %d = %q, want %q", tc.r, tc.row, got, tc.want)
		}
	}
}
