package tracefeed

import (
	"fmt"
	"path/filepath"
	"strings"

	"reactivenoc/internal/cpu"
	"reactivenoc/internal/workload"
)

// Stream returns core's replay stream: the recorded operations in
// order, then compute forever (a core retires exactly its op budget, so
// a faithful replay never reaches the filler). The stream's cursor is
// the only state — per-core, no cross-tile references.
func (t *Trace) Stream(core int) cpu.Stream {
	if core >= len(t.Recs) {
		return &replayStream{}
	}
	return &replayStream{recs: t.Recs[core]}
}

// CoreRegions returns core's prefill region table.
func (t *Trace) CoreRegions(core int) []workload.Region {
	if core >= len(t.Regions) {
		return nil
	}
	return t.Regions[core]
}

type replayStream struct {
	recs []Rec
	i    int
	run  int64 // remaining ops of the current compute run
}

func (s *replayStream) Next() cpu.Op {
	if s.run > 0 {
		s.run--
		return cpu.Op{Kind: cpu.OpCompute}
	}
	if s.i >= len(s.recs) {
		return cpu.Op{Kind: cpu.OpCompute}
	}
	r := s.recs[s.i]
	s.i++
	if r.Kind == cpu.OpCompute {
		s.run = r.N - 1
		return cpu.Op{Kind: cpu.OpCompute}
	}
	return cpu.Op{Kind: r.Kind, Addr: r.Addr}
}

// ComputeRun takes whole compute records, or the part of one that max
// allows, so a run costs O(1) per record.
func (s *replayStream) ComputeRun(max int64) int64 {
	var n int64
	for n < max {
		if s.run == 0 {
			if s.i >= len(s.recs) {
				return max // the filler computes forever
			}
			if r := s.recs[s.i]; r.Kind == cpu.OpCompute {
				s.run = r.N
				s.i++
			} else {
				break
			}
		}
		k := min(s.run, max-n)
		s.run -= k
		n += k
	}
	return n
}

// TracePrefix marks a workload name as a trace file reference:
// "trace:<path>" loads and replays <path>.
const TracePrefix = "trace:"

// LoadWorkload loads a trace file and wraps it in a replayable workload
// profile: TracePath names the file, TraceCRC pins its payload checksum
// so two different traces at the same path never alias in the spec
// fingerprint or a result cache.
func LoadWorkload(path string) (workload.Profile, *Trace, error) {
	t, crc, err := Load(path)
	if err != nil {
		return workload.Profile{}, nil, err
	}
	p := workload.Profile{
		Name:      TracePrefix + filepath.Base(path),
		TracePath: path,
		TraceCRC:  crc,
	}
	return p, t, nil
}

// ResolveWorkload turns a CLI workload name into a profile: built-in
// profiles and adversarial generators by name, or "trace:<path>" for a
// recorded trace file.
func ResolveWorkload(name string) (workload.Profile, error) {
	if strings.HasPrefix(name, TracePrefix) {
		p, _, err := LoadWorkload(strings.TrimPrefix(name, TracePrefix))
		return p, err
	}
	if p, ok := workload.ByName(name); ok {
		return p, nil
	}
	return workload.Profile{}, fmt.Errorf("unknown workload %q (rcsim -list-workloads enumerates them)", name)
}

// WorkloadNames enumerates every resolvable workload name for
// -list-workloads: every profile workload.ByName resolves, then the trace
// pseudo-entry.
func WorkloadNames() []string {
	var names []string
	for _, p := range workload.All() {
		names = append(names, p.Name)
	}
	return append(names, TracePrefix+"<path>")
}
