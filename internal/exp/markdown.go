package exp

import (
	"fmt"
	"strings"
)

// Report is one of the paper's tables or figures over a sweep: the -exp
// name that selects it, the key rcsweep -json files it under, and the
// report, or the reason it is unavailable.
type Report struct {
	Exp, Key string
	Value    interface {
		Format() string
		table() *table
	}
	Err error
}

// Reports are the paper's reports over one chip's sweep, in print order.
// Table 1, Table 5 and Figure 10 come only with big: the paper shows them
// for its 64-core chip.
func Reports(s *Sweep, big bool) []Report {
	var out []Report
	add := func(exp string, perChip bool, v Report) {
		v.Exp, v.Key = exp, exp
		if perChip {
			v.Key += "_" + s.Chip.Name
		}
		out = append(out, v)
	}
	if big {
		t1, err := Table1From(s)
		add("table1", false, Report{Value: t1, Err: err})
		t5, err := Table5From(s, "Complete_NoAck")
		add("table5", false, Report{Value: t5, Err: err})
	}
	add("fig6", true, Report{Value: Fig6From(s)})
	add("fig7", true, Report{Value: Fig7From(s)})
	f8, err := Fig8From(s)
	add("fig8", true, Report{Value: f8, Err: err})
	f9, err := Fig9From(s)
	add("fig9", true, Report{Value: f9, Err: err})
	if big {
		f10, err := Fig10From(s, "SlackDelay_1_NoAck")
		add("fig10", false, Report{Value: f10, Err: err})
	}
	return out
}

// Markdown renders a pair of sweeps (16- and 64-core) as a self-contained
// results document: Table 6, then each chip's Reports, each the same table
// Format prints, and any failed runs. Either sweep may be nil.
// EXPERIMENTS.md embeds its output for the full suite verbatim.
func Markdown(s16, s64 *Sweep) string {
	var b strings.Builder
	b.WriteString("Generated by `rcsweep -md`.\n\n")
	b.WriteString(Table6Compute().table().markdown())
	for _, s := range []*Sweep{s16, s64} {
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "## %s chip: %d variants x %d workloads, %d measured ops/core, seed %d\n\n",
			s.Chip.Name, len(s.Variants), len(s.Apps), s.Scale.MeasureOps, s.Scale.Seed)
		for _, r := range Reports(s, s == s64) {
			if r.Err != nil {
				fmt.Fprintf(&b, "### %s\n\n_unavailable: %v_\n\n", r.Key, r.Err)
				continue
			}
			b.WriteString(r.Value.table().markdown())
		}
		if len(s.Failures) > 0 {
			fmt.Fprintf(&b, "### Run failures (%s)\n\n```\n%s```\n\n", s.Chip.Name, s.FailureSummary())
		}
	}
	return b.String()
}
