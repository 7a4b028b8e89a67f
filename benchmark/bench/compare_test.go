package bench

import (
	"io"
	"strings"
	"testing"
)

// twoReports builds a parent and a change that agree on everything.
func twoReports() (*Report, *Report) {
	mk := func() *Report {
		r := &Report{Benchmark: "rcbench", Seed: 11, Seconds: 10,
			Host: Host{CPUModel: "cpu", GOMAXPROCS: 2, GoVersion: "go1.24.0", CalibMS: [2]float64{100, 101}}}
		for _, traced := range []bool{false, true} {
			p := newPass("light64", 11, traced)
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			for _, d := range defs {
				p.set(d.Name, 1000)
			}
			p.Attempted = 10
			r.Passes = append(r.Passes, p)
		}
		return r
	}
	return mk(), mk()
}

func TestCompare(t *testing.T) {
	bound := defsByName(EndToEnd)["op_ms_p50"].Bound
	cases := []struct {
		name   string
		mutate func(a, b *Report)
		want   Verdict
		says   string
	}{
		{"identical", func(a, b *Report) {}, Agree, ""},
		{"worse by exactly the bound", func(a, b *Report) {
			b.pass("light64", false).Metrics["op_ms_p50"] = 1000 * (1 + bound)
		}, Agree, ""},
		{"worse by more than the bound", func(a, b *Report) {
			b.pass("light64", false).Metrics["op_ms_p50"] = 1000*(1+bound) + 1
		}, Regressed, "op_ms_p50"},
		{"better by more than the bound", func(a, b *Report) {
			b.pass("light64", false).Metrics["op_ms_p50"] = 500
		}, Agree, ""},
		{"higher-is-better metric falls", func(a, b *Report) {
			b.pass("light64", false).Metrics["sim_kcycles_per_s"] = 700
		}, Regressed, "sim_kcycles_per_s"},
		{"higher-is-better metric rises", func(a, b *Report) {
			b.pass("light64", false).Metrics["sim_kcycles_per_s"] = 1500
		}, Agree, ""},
		{"worse but noisier than the bound", func(a, b *Report) {
			p := b.pass("light64", false)
			p.Metrics["op_ms_p50"] = 1300
			p.Spread["op_ms_p50"] = bound + 0.05
		}, Unresolved, "unresolved"},
		{"simulated metric drifts by one cycle", func(a, b *Report) {
			b.pass("light64", false).Metrics["sim_cycles"] = 1001
		}, Regressed, "sim_cycles"},
		{"simulated metric differs across seeds within the bound", func(a, b *Report) {
			b.Seed = 12
			b.pass("light64", false).Metrics["sim_cycles"] = 1001
		}, Agree, ""},
		{"simulated per-layer count drifts", func(a, b *Report) {
			b.pass("light64", true).Metrics["noc.link_flits"] = 999
		}, Regressed, "noc.link_flits"},
		{"failed operations", func(a, b *Report) {
			b.pass("light64", false).Failed = 1
		}, Regressed, "failed operations"},
		{"CPU model differs", func(a, b *Report) { b.Host.CPUModel = "other" }, Refused, "CPU model"},
		{"GOMAXPROCS differs", func(a, b *Report) { b.Host.GOMAXPROCS = 8 }, Refused, "GOMAXPROCS"},
		{"go version differs", func(a, b *Report) { b.Host.GoVersion = "go1.25" }, Refused, "go version"},
		{"calibration moved between the runs", func(a, b *Report) {
			b.Host.CalibMS = [2]float64{115, 115}
		}, Refused, "between the runs"},
		{"calibration moved within a run", func(a, b *Report) {
			a.Host.CalibMS = [2]float64{100, 120}
		}, Refused, "within a run"},
		{"quick report", func(a, b *Report) { a.Quick = true }, Refused, "quick"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := twoReports()
			c.mutate(a, b)
			var out strings.Builder
			if got := Compare(&out, a, b); got != c.want {
				t.Fatalf("verdict %s, want %s\n%s", got, c.want, out.String())
			}
			if !strings.Contains(out.String(), c.says) {
				t.Fatalf("output does not mention %q:\n%s", c.says, out.String())
			}
		})
	}
}

func TestCompareRegressionOutranksUnresolved(t *testing.T) {
	a, b := twoReports()
	p := b.pass("light64", false)
	p.Metrics["op_ms_p50"], p.Spread["op_ms_p50"] = 1300, 0.5
	p.Metrics["sim_cycles"] = 1001
	if got := Compare(io.Discard, a, b); got != Regressed {
		t.Fatalf("verdict %s, want regressed", got)
	}
}

func TestQuantiles(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if m := median(vs); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	if q := quantile(vs, 0.25); q != 2 {
		t.Errorf("q25 %v, want 2", q)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if s := spread([]float64{90, 100, 100, 100, 110}); s != 0 {
		t.Errorf("spread %v, want 0 (quartiles both 100)", s)
	}
	if vs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}
