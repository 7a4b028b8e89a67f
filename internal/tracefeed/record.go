package tracefeed

import (
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/workload"
)

// Recorder taps the core instruction stream (cpu.Core.SetRecorder) and
// accumulates one record sequence per core. It is purely passive — the
// recorded run is bit-identical to an unrecorded one — and all state is
// per-core.
type Recorder struct {
	profile    workload.Profile
	seed       uint64
	warmupOps  int64
	measureOps int64
	cores      []coreState
}

type coreState struct {
	last sim.Cycle
	recs []Rec
}

// NewRecorder prepares a recorder for a run of the given synthetic
// profile: the profile labels each address with its region class and
// sharer hint and supplies the prefill region table of the eventual
// trace.
func NewRecorder(p workload.Profile, cores int, seed uint64, warmupOps, measureOps int64) *Recorder {
	return &Recorder{
		profile:    p,
		seed:       seed,
		warmupOps:  warmupOps,
		measureOps: measureOps,
		cores:      make([]coreState, cores),
	}
}

// Record implements cpu.Recorder. Consecutive compute operations merge
// into one run-length-encoded record (a compute never stalls, so a
// compute issued the cycle after another extends its run).
func (r *Recorder) Record(core int, now sim.Cycle, op cpu.Op) {
	cs := &r.cores[core]
	gap := int64(now - cs.last)
	cs.last = now
	if op.Kind == cpu.OpCompute {
		if n := len(cs.recs); n > 0 && cs.recs[n-1].Kind == cpu.OpCompute && gap == 1 {
			cs.recs[n-1].N++
			return
		}
		cs.recs = append(cs.recs, Rec{Gap: gap, Kind: cpu.OpCompute, N: 1})
		return
	}
	region, hint := r.profile.Classify(core, op.Addr)
	cs.recs = append(cs.recs, Rec{
		Gap: gap, Kind: op.Kind, N: 1,
		Addr: op.Addr, Region: region, Hint: hint,
	})
}

// Trace assembles the recorded run into an encodable trace: header from
// the run parameters, region table from the profile, records from the
// tap.
func (r *Recorder) Trace() *Trace {
	t := &Trace{
		Workload:   r.profile.Name,
		Seed:       r.seed,
		WarmupOps:  r.warmupOps,
		MeasureOps: r.measureOps,
		Regions:    make([][]workload.Region, len(r.cores)),
		Recs:       make([][]Rec, len(r.cores)),
	}
	for c := range r.cores {
		t.Regions[c] = r.profile.Regions(c)
		t.Recs[c] = r.cores[c].recs
	}
	return t
}
