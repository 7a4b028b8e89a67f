package chip

import (
	"fmt"
	"sort"
	"strings"

	"reactivenoc/internal/sim"
	"reactivenoc/internal/stats"
)

// Leg is one configuration of the differential matrix: Apply flips one
// behaviour-neutral engine switch on a reference spec, and Skip names the
// metrics that switch moves by design.
type Leg struct {
	Name  string
	Apply func(*Spec)
	Skip  func(metric string) bool
}

// Legs returns the local differential matrix. The reference is the pooled
// sparse kernel; each leg flips exactly one switch: the dense kernel ticks
// every component (its kernel/ metrics, the stepper's own, differ), and
// NoPool allocates fresh flits, messages, arrays and shells, which no
// metric sees.
func Legs() []Leg {
	return []Leg{
		{Name: "dense-kernel", Apply: func(s *Spec) { s.DenseKernel = true }, Skip: kernelMetric},
		{Name: "no-pool", Apply: func(s *Spec) { s.Variant.Opts.NoPool = true }},
	}
}

// kernelMetric reports whether name is one of the stepper's own metrics
// (kernel/active, kernel/work/ticks/<class>), which a comparison between
// two steppers skips.
func kernelMetric(name string) bool { return strings.HasPrefix(name, "kernel/") }

// Diff compares two results of the same spec and returns a description of
// every observable divergence (nil = bit-identical). skip, when not nil,
// filters metric names whose divergence is by design for this leg pair, at
// the end of the run and in every Series window alike.
func Diff(a, b *Results, skip func(string) bool) error {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if a.Cycles != b.Cycles {
		add("Cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.SimCycles != b.SimCycles {
		add("SimCycles: %d vs %d", a.SimCycles, b.SimCycles)
	}
	at, ar := a.Msgs.Totals()
	bt, br := b.Msgs.Totals()
	if at != bt || ar != br {
		add("messages: %d/%d vs %d/%d", at, ar, bt, br)
	}
	lat := func(name string, x, y *stats.Sample) {
		if x.N() != y.N() || x.Sum() != y.Sum() {
			add("%s latency: (%d, %.0f) vs (%d, %.0f)", name, x.N(), x.Sum(), y.N(), y.Sum())
		}
	}
	lat("request", &a.Lat.Requests.Network, &b.Lat.Requests.Network)
	lat("circuit-reply", &a.Lat.CircuitReplies.Network, &b.Lat.CircuitReplies.Network)
	lat("other-reply", &a.Lat.OtherReplies.Network, &b.Lat.OtherReplies.Network)
	if a.Events.LinkFlits != b.Events.LinkFlits {
		add("link flits: %d vs %d", a.Events.LinkFlits, b.Events.LinkFlits)
	}

	// The end-of-run snapshot, then every sample window: a counter credited
	// lazily can be right at the end of a run and wrong inside it.
	if len(a.Series) != len(b.Series) {
		add("series: %d vs %d windows", len(a.Series), len(b.Series))
	}
	as, bs := append([]sim.Snapshot{a.Metrics}, a.Series...), append([]sim.Snapshot{b.Metrics}, b.Series...)
	for i := range min(len(as), len(bs)) {
		x, y := as[i], bs[i]
		// A metric missing on one side reads 0 there.
		var names []string
		for name := range x.Vals {
			names = append(names, name)
		}
		for name := range y.Vals {
			if _, ok := x.Vals[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if xv, yv := x.Value(name), y.Value(name); xv != yv && (skip == nil || !skip(name)) {
				add("metric %s at cycle %d: %d vs %d", name, x.At, xv, yv)
			}
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("results diverge:\n  %s", strings.Join(diffs, "\n  "))
}
