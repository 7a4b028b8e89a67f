package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Report is a full benchmark run: every selected workload untraced, then
// traced, with the host it ran on.
type Report struct {
	Benchmark string  `json:"benchmark"`
	Quick     bool    `json:"quick"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Host      Host    `json:"host"`
	Passes    []*Pass `json:"passes"`
}

// pass finds the report's pass for a workload.
func (r *Report) pass(workload string, traced bool) *Pass {
	for _, p := range r.Passes {
		if p.Workload == workload && p.Traced == traced {
			return p
		}
	}
	return nil
}

// Failed sums the failed operations and checks over all passes.
func (r *Report) Failed() int {
	n := 0
	for _, p := range r.Passes {
		n += p.Failed
	}
	return n
}

// load is one workload: an untraced pass yields the end-to-end metrics, a
// traced pass the per-layer ones.
type load interface {
	untraced(context.Context, Options) (*Pass, error)
	traced(context.Context, Options) (*Pass, error)
}

// lookup resolves a workload name.
func lookup(name string) (load, error) {
	for _, l := range chipLoads {
		if l.name == name {
			return l, nil
		}
	}
	switch name {
	case "sweep64":
		return sweepLoad{}, nil
	case "serve16":
		return serveLoad{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// RunPass runs one workload once: untraced for the end-to-end metrics or
// traced for the per-layer ones. The pass carries every metric of its
// catalogue, or RunPass fails.
func RunPass(ctx context.Context, workload string, traced bool, o Options) (*Pass, error) {
	l, err := lookup(workload)
	if err != nil {
		return nil, err
	}
	run := l.untraced
	if traced {
		run = l.traced
	}
	t := time.Now()
	p, err := run(ctx, o)
	if err != nil {
		return nil, err
	}
	p.WallS = time.Since(t).Seconds()
	if p.Failed > 0 {
		return p, nil // the notes say what failed; metrics may be partial
	}
	return p, p.complete()
}

// ContractLine renders a pass as the one JSON object the benchmark
// contract asks for on the last line of standard output.
func ContractLine(p *Pass) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := EndToEnd
	if p.Traced {
		defs = PerLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		if v, ok := p.Metrics[d.Name]; ok {
			metrics[d.Name] = mv{v, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{p.Failed == 0, p.Attempted, p.Failed, metrics})
}

// PrintPass writes a pass as a table: every metric by name with its value,
// unit, sample count, spread and (end-to-end) bound.
func PrintPass(w io.Writer, p *Pass) {
	kind, defs := "end-to-end, untraced", EndToEnd
	if p.Traced {
		kind, defs = "per-layer, traced", PerLayer
	}
	fmt.Fprintf(w, "\n%s  seed %d  (%s)  %d checks, %d failed  %.1fs\n", p.Workload, p.Seed, kind, p.Attempted, p.Failed, p.WallS)
	fmt.Fprintf(w, "  %-34s %16s %-10s %7s %8s %6s\n", "metric", "value", "unit", "samples", "spread", "bound")
	for _, d := range defs {
		v, ok := p.Metrics[d.Name]
		if !ok {
			continue
		}
		samples, spr, bound := "", "", ""
		if n := p.Samples[d.Name]; n > 0 {
			samples = fmt.Sprint(n)
			spr = fmt.Sprintf("%.1f%%", 100*p.Spread[d.Name])
		}
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-10s %7s %8s %6s\n", d.Name, v, d.Unit, samples, spr, bound)
	}
	notes := append([]string(nil), p.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
