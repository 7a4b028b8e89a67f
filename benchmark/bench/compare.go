package bench

import (
	"fmt"
	"io"
	"math"
)

// Verdict is -compare's outcome; the exit code is its value.
type Verdict int

const (
	Agree Verdict = iota
	Regressed
	Unresolved
	Refused
)

func (v Verdict) String() string {
	return [...]string{"agree", "regressed", "unresolved", "refused"}[v]
}

// calibTolerance is how far host.calib_ms may move, within a run or
// between two, before their host-time numbers are not comparable.
const calibTolerance = 0.10

func moved(a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / a
}

// refusal says why two reports cannot be compared ("" when they can).
func refusal(a, b *Report) string {
	switch {
	case a.Quick || b.Quick:
		return "a -quick report carries smoke-test numbers"
	case a.Host.CPUModel != b.Host.CPUModel:
		return fmt.Sprintf("CPU model differs: %q vs %q", a.Host.CPUModel, b.Host.CPUModel)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs: %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case a.Host.GoVersion != b.Host.GoVersion:
		return fmt.Sprintf("go version differs: %s vs %s", a.Host.GoVersion, b.Host.GoVersion)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("run length differs: %gs vs %gs", a.Seconds, b.Seconds)
	}
	for _, r := range []*Report{a, b} {
		if m := moved(r.Host.CalibMS[0], r.Host.CalibMS[1]); m > calibTolerance {
			return fmt.Sprintf("host.calib_ms moved %.0f%% within a run (%.1f -> %.1f ms)", 100*m, r.Host.CalibMS[0], r.Host.CalibMS[1])
		}
	}
	if m := moved(a.Host.CalibMS[0], b.Host.CalibMS[0]); m > calibTolerance {
		return fmt.Sprintf("host.calib_ms moved %.0f%% between the runs (%.1f vs %.1f ms)", 100*m, a.Host.CalibMS[0], b.Host.CalibMS[0])
	}
	return ""
}

// judge rates one end-to-end metric of b (the change) against a (the
// parent). worse is b's move in the bad direction as a share of a. noisy
// says a side's own spread exceeds the bound, so a host-time move beyond it
// cannot be resolved.
func judge(d MetricDef, sameSeed, noisy bool, a, b float64) (Verdict, float64) {
	worse := (b - a) / a
	if d.Better == Higher {
		worse = -worse
	}
	switch {
	case d.Exact && sameSeed:
		// Simulated: the engine is deterministic, so any drift is real.
		if a != b {
			return Regressed, worse
		}
		return Agree, 0
	case worse <= d.Bound:
		return Agree, worse
	case noisy:
		return Unresolved, worse
	}
	return Regressed, worse
}

// Compare applies the bounds to every (end-to-end metric, workload) pair
// of two reports, a the parent and b the change, and prints one row each.
// Per-layer metrics are printed by the reports themselves; only simulated
// ones are compared here, for exact equality.
func Compare(w io.Writer, a, b *Report) Verdict {
	if why := refusal(a, b); why != "" {
		fmt.Fprintf(w, "refused: %s\n", why)
		return Refused
	}
	sameSeed := a.Seed == b.Seed
	verdict := Agree
	raise := func(v Verdict) {
		if v == Regressed || (v == Unresolved && verdict == Agree) {
			verdict = v
		}
	}
	fmt.Fprintf(w, "%-10s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, wl := range Workloads {
		pa, pb := a.pass(wl.Name, false), b.pass(wl.Name, false)
		if pa == nil || pb == nil {
			continue
		}
		if pa.Failed > 0 || pb.Failed > 0 {
			fmt.Fprintf(w, "%-10s failed operations: parent %d, change %d\n", wl.Name, pa.Failed, pb.Failed)
			raise(Regressed)
		}
		for _, d := range EndToEnd {
			va, vb := pa.Metrics[d.Name], pb.Metrics[d.Name]
			noisy := pa.Spread[d.Name] > d.Bound || pb.Spread[d.Name] > d.Bound
			v, worse := judge(d, sameSeed, noisy, va, vb)
			raise(v)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Exact && sameSeed {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-10s %-28s %14.6g %14.6g %+7.1f%% %6s  %s\n", wl.Name, d.Name, va, vb, 100*worse, bound, v)
		}
		ta, tb := a.pass(wl.Name, true), b.pass(wl.Name, true)
		if ta == nil || tb == nil || !sameSeed {
			continue
		}
		for _, d := range PerLayer {
			if d.Exact && ta.Metrics[d.Name] != tb.Metrics[d.Name] {
				fmt.Fprintf(w, "%-10s %-28s %14.6g %14.6g %8s %6s  %s\n", wl.Name, d.Name, ta.Metrics[d.Name], tb.Metrics[d.Name], "", "exact", Regressed)
				raise(Regressed)
			}
		}
	}
	fmt.Fprintf(w, "verdict: %s\n", verdict)
	return verdict
}
