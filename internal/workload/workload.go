// Package workload generates the synthetic memory traffic that stands in
// for the paper's PARSEC, SPLASH-2 and SPEC CPU 2006 workloads.
//
// Substitution rationale (see DESIGN.md): the NoC only observes the miss
// stream the cores emit, so each application is modelled by the parameters
// that shape that stream. Every core touches three regions:
//
//   - a hot private region that fits in the L1 (hits, no traffic);
//   - a streaming private region that fits in the L2 but thrashes the L1 —
//     its access share directly sets the L1 miss rate, producing the
//     request/data-reply/ack and write-back traffic of Table 3;
//   - a shared region (absent in the multiprogrammed mix) whose writes
//     produce forwards, L1-to-L1 transfers and invalidations.
//
// The profile values are synthetic analogs tuned so the network-visible
// aggregates match the paper's reported environment: a reply-dominated
// message mix (Table 1) and a lightly loaded network (under four flits
// injected per hundred cycles per node). They are not measurements of the
// original benchmarks. The regions are installed warm via functional cache
// prefill, standing in for the paper's 200M-cycle warm-up.
package workload

import (
	"fmt"
	"math"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/sim"
)

// Profile parameterizes one application's memory behaviour.
type Profile struct {
	Name string

	// MemFraction is the probability an operation touches memory.
	MemFraction float64
	// WriteFraction is the probability a memory operation is a store.
	WriteFraction float64

	// HotLines is the L1-resident private region (walked, mostly hits).
	HotLines int
	// StreamLines is the L2-resident private region cycled through by a
	// pointer walk; past the prefilled head (see Region) every access
	// misses the L1, so StreamFraction is a direct L1-miss-rate knob.
	StreamLines int
	// StreamFraction is the probability a private access goes to the
	// streaming region.
	StreamFraction float64

	// SharedLines sizes the globally shared region; SharedFraction is
	// the probability a memory access targets it; HotFraction
	// concentrates shared accesses on its first eighth (locks, queue
	// heads), maximizing coherence interaction.
	SharedLines    int
	SharedFraction float64
	HotFraction    float64

	// ColdLines sizes a never-warm region whose rare accesses miss the
	// L2 and reach the memory controllers (the paper's MEMORY traffic,
	// ~1% of messages); ColdFraction is their share of memory accesses.
	ColdLines    int
	ColdFraction float64

	// Locality is the probability a hot-region access continues the
	// sequential walk rather than jumping randomly within the region.
	Locality float64

	// The fields below parameterize the adversarial/bursty generators
	// (Generators) and trace replay. They are zero for the classic
	// stationary profiles, and every JSON tag carries omitempty so the
	// encodings — and therefore the spec fingerprints — of pre-existing
	// workloads are byte-identical to what they were before these knobs.

	// Pattern remaps shared-region accesses onto an adversarial
	// destination pattern: "" keeps the profile-driven uniform choice;
	// PatternHotspot funnels every shared access to lines homed on one
	// central tile; PatternTranspose sends core (x,y)'s shared accesses to
	// lines homed on (y,x); PatternTornado targets the tile halfway around
	// the row. Patterns need the mesh geometry, which reaches the stream
	// through StreamGeom; a geometry-less Stream ignores the pattern.
	Pattern string `json:",omitempty"`

	// BurstOn/BurstOff, when both positive, chop the instruction stream
	// into on/off windows of that many operations: during an off window
	// the core only computes, so the network sees bursts with a duty cycle
	// of BurstOn/(BurstOn+BurstOff).
	BurstOn  int64 `json:",omitempty"`
	BurstOff int64 `json:",omitempty"`

	// PhaseOps/PhaseNext switch the stream to the profile ByName resolves
	// for PhaseNext after PhaseOps operations — the phase-changing mixes
	// that stress the timed-window predictor. Chains may loop (A→B→A);
	// cursors reset at each switch while the RNG carries over, so the
	// whole run stays deterministic.
	PhaseOps  int64  `json:",omitempty"`
	PhaseNext string `json:",omitempty"`

	// TracePath, when set, drives the cores from a recorded binary trace
	// (internal/tracefeed) instead of the synthetic generator; the other
	// traffic knobs must be zero. TraceCRC pins the file's payload
	// checksum so two different traces at the same path never alias in the
	// spec fingerprint or a result cache.
	TracePath string `json:",omitempty"`
	TraceCRC  uint32 `json:",omitempty"`
}

// Destination patterns accepted by Profile.Pattern.
const (
	PatternHotspot   = "hotspot"
	PatternTranspose = "transpose"
	PatternTornado   = "tornado"
)

// Validate rejects nonsensical profiles: out-of-range, NaN or infinite
// shares, patterns without a shared region, degenerate burst windows, and
// unresolvable or out-of-range phase switches. It runs at spec build (and
// again defensively at stream construction) so a malformed generator
// config fails before a run starts, not mid-simulation.
func (p *Profile) Validate() error {
	if p.TracePath != "" {
		// A trace-driven profile carries no synthetic knobs: the recorded
		// file supplies the regions and the op stream.
		if p.MemFraction != 0 || p.StreamFraction != 0 || p.SharedFraction != 0 ||
			p.ColdFraction != 0 || p.HotLines != 0 || p.Pattern != "" ||
			p.BurstOn != 0 || p.BurstOff != 0 || p.PhaseOps != 0 || p.PhaseNext != "" {
			return fmt.Errorf("workload %q: trace replay cannot combine with synthetic traffic knobs", p.Name)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemFraction", p.MemFraction}, {"WriteFraction", p.WriteFraction},
		{"SharedFraction", p.SharedFraction}, {"StreamFraction", p.StreamFraction},
		{"ColdFraction", p.ColdFraction}, {"Locality", p.Locality},
		{"HotFraction", p.HotFraction},
	} {
		// NaN slips through plain range comparisons (every comparison with
		// it is false), so it is rejected by name before the range check.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %q: %s is not a finite share", p.Name, f.name)
		}
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %q: %s out of [0,1]", p.Name, f.name)
		}
	}
	switch {
	case p.HotLines <= 0:
		return fmt.Errorf("workload %q: empty hot working set", p.Name)
	case p.StreamFraction > 0 && p.StreamLines <= 0:
		return fmt.Errorf("workload %q: stream accesses without a stream region", p.Name)
	case p.SharedFraction > 0 && p.SharedLines <= 0:
		return fmt.Errorf("workload %q: shared accesses without a shared region", p.Name)
	case p.ColdFraction > 0 && p.ColdLines <= 0:
		return fmt.Errorf("workload %q: cold accesses without a cold region", p.Name)
	}
	switch p.Pattern {
	case "", PatternHotspot, PatternTranspose, PatternTornado:
	default:
		return fmt.Errorf("workload %q: unknown pattern %q", p.Name, p.Pattern)
	}
	if p.Pattern != "" && p.SharedLines <= 0 {
		return fmt.Errorf("workload %q: pattern %q needs a shared region to aim", p.Name, p.Pattern)
	}
	switch {
	case p.BurstOn < 0 || p.BurstOff < 0:
		return fmt.Errorf("workload %q: negative burst window", p.Name)
	case p.BurstOff > 0 && p.BurstOn <= 0:
		return fmt.Errorf("workload %q: off-only burst never issues memory traffic", p.Name)
	}
	switch {
	case p.PhaseOps < 0:
		return fmt.Errorf("workload %q: phase switch at negative operation count", p.Name)
	case p.PhaseOps > 0 && p.PhaseNext == "":
		return fmt.Errorf("workload %q: phase switch with no successor profile", p.Name)
	case p.PhaseOps == 0 && p.PhaseNext != "":
		return fmt.Errorf("workload %q: successor profile %q without a phase-switch point", p.Name, p.PhaseNext)
	case p.PhaseNext != "" && p.PhaseNext != p.Name:
		if _, ok := ByName(p.PhaseNext); !ok {
			return fmt.Errorf("workload %q: phase successor %q names no workload", p.Name, p.PhaseNext)
		}
	}
	return nil
}

const lineBytes = 64

// sharedBase places the shared region well above every private region.
const sharedBase cache.Addr = 1 << 34

// privateSpan spaces per-core private regions.
const privateSpan cache.Addr = 1 << 28

// streamOffset separates a core's streaming region from its hot region.
const streamOffset cache.Addr = 1 << 24

// l2SetBytes is the address stride that advances one set in an L2 bank
// (interleave 16B-line... 64B lines across up-to-64 banks: one bank-local
// set consumes banks*64 bytes; 64 banks is the worst case and also works
// for 16, keeping staggering deterministic across chip sizes).
const l2SetBytes = 64 * 64

// hotBase returns core c's hot-region base, staggered so different cores'
// regions do not alias into the same L2 sets (real applications have
// arbitrary bases; power-of-two bases would thrash a subset of the banks).
func hotBase(c int) cache.Addr {
	return cache.Addr(c+1)*privateSpan + cache.Addr((c*149)%1024)*l2SetBytes
}

// streamBase returns core c's streaming-region base, staggered away from
// every hot region.
func streamBase(c int) cache.Addr {
	return cache.Addr(c+1)*privateSpan + streamOffset + cache.Addr((c*383+511)%1024)*l2SetBytes
}

// coldBase returns core c's cold-region base (never prefilled).
func coldBase(c int) cache.Addr {
	return cache.Addr(c+1)*privateSpan + 2*streamOffset + cache.Addr((c*619+257)%1024)*l2SetBytes
}

// Region describes an address range for functional cache warming.
type Region struct {
	Start cache.Addr
	Lines int
	// The first L1Lines lines of the region, [0, L1Lines), are also
	// installed warm in the owning core's L1 (the paper's warm-up leaves
	// the L1s full, so the measured phase sees steady-state replacement
	// traffic immediately). L1From names the window the profile meant —
	// [L1From, L1From+L1Lines) — and is serialised in .rctf, but no
	// prefiller reads it: chip.Build's (every chip.Machine's, so RunCtx's
	// and examples/trafficmap's) and rcbench's stepper both install from
	// line 0, and the goldens and rcbench's digests pin that (DESIGN.md §4.1,
	// substitutions).
	L1From  int
	L1Lines int
	// Exclusive marks private data, prefilled in E state.
	Exclusive bool
}

// l1Lines is the L1 capacity in lines (32 KB / 64 B).
const l1Lines = 512

// Regions returns the address ranges core coreID touches, for prefill.
// The cold region is deliberately absent: its accesses must reach memory.
func (p Profile) Regions(coreID int) []Region {
	// One allocation per core: every run builds all its cores' regions to
	// key its prefilled image (chip.Build).
	rs := make([]Region, 1, 3)
	rs[0] = Region{Start: hotBase(coreID), Lines: p.HotLines, L1Lines: p.HotLines, Exclusive: true}
	if p.StreamLines > 0 {
		// Fill the rest of the L1 from the stream, so the L1 is completely
		// full when the run starts. L1From records the stream's *tail* —
		// a walk from line 0 would then miss from its first access — but
		// prefill installs the region's head instead (see Region), so the
		// walk's first lines can hit before its misses start.
		fill := l1Lines - p.HotLines
		if fill < 0 {
			fill = 0
		}
		if fill > p.StreamLines {
			fill = p.StreamLines
		}
		rs = append(rs, Region{
			Start: streamBase(coreID), Lines: p.StreamLines,
			L1From: p.StreamLines - fill, L1Lines: fill, Exclusive: true,
		})
	}
	if p.SharedLines > 0 {
		rs = append(rs, Region{Start: sharedBase, Lines: p.SharedLines})
	}
	return rs
}

// Scaled returns a copy of the profile with its traffic-producing
// fractions multiplied by k (clamped to stay meaningful), modelling a
// lighter (k < 1) or heavier (k > 1) network load with the same footprint.
// Used by the load-threshold experiment.
func (p Profile) Scaled(k float64) Profile {
	clamp := func(v float64) float64 {
		if v > 0.5 {
			return 0.5
		}
		return v
	}
	q := p
	q.Name = fmt.Sprintf("%s_x%g", p.Name, k)
	q.StreamFraction = clamp(p.StreamFraction * k)
	q.SharedFraction = clamp(p.SharedFraction * k)
	q.ColdFraction = clamp(p.ColdFraction * k)
	return q
}

// stream implements cpu.Stream for one core.
type stream struct {
	p         Profile
	th        thresholds
	rng       sim.RNG
	core      int
	w, h      int // mesh geometry (0 when unknown: patterns disabled)
	ops       int64
	hotCursor int
	strCursor int
	// mem is set when the head operation was drawn a memory op by
	// ComputeRun and the rest of it is Next's to draw.
	mem bool
}

// thresholds are a profile's probabilities in sim.Threshold form, so each
// draw is an integer compare: rng.Below(th.mem) is rng.Bool(p.MemFraction).
type thresholds struct {
	mem, write, shared, hot, cold, stream, locality uint64
}

func thresholdsOf(p Profile) thresholds {
	return thresholds{
		mem: sim.Threshold(p.MemFraction), write: sim.Threshold(p.WriteFraction),
		shared: sim.Threshold(p.SharedFraction), hot: sim.Threshold(p.HotFraction),
		cold: sim.Threshold(p.ColdFraction), stream: sim.Threshold(p.StreamFraction),
		locality: sim.Threshold(p.Locality),
	}
}

// Stream returns core coreID's deterministic instruction stream. The mesh
// geometry is unknown here, so adversarial destination patterns are
// inert; simulation runs construct streams through StreamGeom instead.
func (p Profile) Stream(coreID int, seed uint64) cpu.Stream {
	return p.StreamGeom(coreID, 0, 0, seed)
}

// StreamGeom is Stream with the mesh geometry attached, which the
// adversarial destination patterns (hotspot, transpose, tornado) need to
// aim shared-region accesses at specific home tiles.
func (p Profile) StreamGeom(coreID, width, height int, seed uint64) cpu.Stream {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.TracePath != "" {
		panic(fmt.Sprintf("workload %q: trace-driven profiles are replayed by internal/tracefeed, not synthesized", p.Name))
	}
	return &stream{
		p:    p,
		th:   thresholdsOf(p),
		rng:  *sim.NewRNG(seed ^ (uint64(coreID)+1)*0x9E3779B97F4A7C15),
		core: coreID,
		w:    width,
		h:    height,
	}
}

// step consumes the head operation's kind and reports whether it is a
// memory operation, whose kind and address are still to draw.
func (s *stream) step() bool {
	if s.p.PhaseOps > 0 && s.ops >= s.p.PhaseOps {
		s.switchPhase()
	}
	s.ops++
	if s.p.BurstOn > 0 && s.p.BurstOff > 0 &&
		(s.ops-1)%(s.p.BurstOn+s.p.BurstOff) >= s.p.BurstOn {
		// Off window: the pipeline computes, the network rests. No RNG
		// draw, so the on-window sequence is independent of the duty cycle.
		return false
	}
	return s.rng.Below(s.th.mem)
}

func (s *stream) ComputeRun(max int64) int64 {
	var n int64
	for n < max && !s.mem {
		if s.mem = s.step(); !s.mem {
			n++
		}
	}
	return n
}

func (s *stream) Next() cpu.Op {
	if !s.mem && !s.step() {
		return cpu.Op{Kind: cpu.OpCompute}
	}
	s.mem = false
	kind := cpu.OpLoad
	if s.rng.Below(s.th.write) {
		kind = cpu.OpStore
	}
	return cpu.Op{Kind: kind, Addr: s.addr()}
}

// switchPhase swaps in the successor profile: cursors restart, the RNG
// carries over (one deterministic sequence across the whole run), and the
// geometry stays, so a successor with a pattern aims correctly.
func (s *stream) switchPhase() {
	// Validate checked that the successor resolves or is the profile
	// itself.
	if next, ok := ByName(s.p.PhaseNext); ok {
		s.p, s.th = next, thresholdsOf(next)
	}
	s.ops = 0
	s.hotCursor, s.strCursor = 0, 0
}

// patternTarget returns the mesh tile this core's pattern aims at.
// Tiles are numbered row-major (mesh.NodeID: id = y*width + x).
func (s *stream) patternTarget() int {
	x, y := s.core%s.w, s.core/s.w
	switch s.p.Pattern {
	case PatternHotspot:
		return (s.h/2)*s.w + s.w/2 // the central tile
	case PatternTranspose:
		if s.w == s.h {
			return x*s.w + y
		}
		return s.w*s.h - 1 - s.core // rectangular fallback: point reflection
	default: // PatternTornado
		return y*s.w + (x+s.w/2)%s.w
	}
}

// patternAddr picks a shared-region line homed on the pattern's target
// tile. Lines are interleaved across the chip's L2 banks line-by-line and
// sharedBase is bank-aligned, so line numbers congruent to the target
// modulo the node count land exactly there.
func (s *stream) patternAddr() cache.Addr {
	nodes := s.w * s.h
	target := s.patternTarget()
	span := s.p.SharedLines / nodes
	if span < 1 {
		span = 1
	}
	line := target + nodes*s.rng.Intn(span)
	return sharedBase + cache.Addr(line)*lineBytes
}

func (s *stream) addr() cache.Addr {
	if s.p.SharedFraction > 0 && s.rng.Below(s.th.shared) {
		if s.p.Pattern != "" && s.w > 0 && s.h > 0 {
			return s.patternAddr()
		}
		n := s.p.SharedLines
		if s.p.HotFraction > 0 && s.rng.Below(s.th.hot) {
			hot := n / 8
			if hot < 1 {
				hot = 1
			}
			return sharedBase + cache.Addr(s.rng.Intn(hot))*lineBytes
		}
		return sharedBase + cache.Addr(s.rng.Intn(n))*lineBytes
	}
	if s.p.ColdFraction > 0 && s.rng.Below(s.th.cold) {
		return coldBase(s.core) + cache.Addr(s.rng.Intn(s.p.ColdLines))*lineBytes
	}
	if s.p.StreamFraction > 0 && s.rng.Below(s.th.stream) {
		if s.strCursor++; s.strCursor == s.p.StreamLines {
			s.strCursor = 0
		}
		return streamBase(s.core) + cache.Addr(s.strCursor)*lineBytes
	}
	if s.rng.Below(s.th.locality) {
		if s.hotCursor++; s.hotCursor == s.p.HotLines {
			s.hotCursor = 0
		}
	} else {
		s.hotCursor = s.rng.Intn(s.p.HotLines)
	}
	return hotBase(s.core) + cache.Addr(s.hotCursor)*lineBytes
}

// Parallel returns the synthetic analogs of the paper's 21 parallel
// applications (PARSEC and SPLASH-2 with scaled inputs). Parameters sketch
// each benchmark's documented character: streaming intensity (the L1 miss
// rate), read/write balance, sharing intensity and working-set size. Every
// parallel app also touches a small cold footprint that reaches the memory
// controllers (the paper's ~1% MEMORY traffic).
func Parallel() []Profile {
	ps := parallelProfiles()
	for i := range ps {
		ps[i].ColdLines = 1 << 16
		// Scaled so MEMORY messages land near the paper's ~1% share.
		ps[i].ColdFraction = 0.022 * ps[i].StreamFraction
	}
	return ps
}

func parallelProfiles() []Profile {
	return []Profile{
		{Name: "blackscholes", MemFraction: 0.25, WriteFraction: 0.20, HotLines: 192, StreamLines: 1024, StreamFraction: 0.008, SharedLines: 64, SharedFraction: 0.004, Locality: 0.95, HotFraction: 0.2},
		{Name: "bodytrack", MemFraction: 0.30, WriteFraction: 0.22, HotLines: 320, StreamLines: 1024, StreamFraction: 0.020, SharedLines: 256, SharedFraction: 0.008, Locality: 0.90, HotFraction: 0.4},
		{Name: "canneal", MemFraction: 0.34, WriteFraction: 0.28, HotLines: 384, StreamLines: 4096, StreamFraction: 0.050, SharedLines: 512, SharedFraction: 0.010, Locality: 0.70, HotFraction: 0.1},
		{Name: "dedup", MemFraction: 0.32, WriteFraction: 0.28, HotLines: 320, StreamLines: 2048, StreamFraction: 0.028, SharedLines: 256, SharedFraction: 0.010, Locality: 0.86, HotFraction: 0.4},
		{Name: "ferret", MemFraction: 0.31, WriteFraction: 0.24, HotLines: 320, StreamLines: 1536, StreamFraction: 0.022, SharedLines: 256, SharedFraction: 0.008, Locality: 0.88, HotFraction: 0.4},
		{Name: "fluidanimate", MemFraction: 0.32, WriteFraction: 0.30, HotLines: 320, StreamLines: 1024, StreamFraction: 0.018, SharedLines: 512, SharedFraction: 0.012, Locality: 0.88, HotFraction: 0.3},
		{Name: "raytrace", MemFraction: 0.28, WriteFraction: 0.12, HotLines: 384, StreamLines: 2048, StreamFraction: 0.024, SharedLines: 768, SharedFraction: 0.014, Locality: 0.85, HotFraction: 0.2},
		{Name: "swaptions", MemFraction: 0.24, WriteFraction: 0.22, HotLines: 160, StreamLines: 512, StreamFraction: 0.006, SharedLines: 64, SharedFraction: 0.003, Locality: 0.95, HotFraction: 0.2},
		{Name: "vips", MemFraction: 0.30, WriteFraction: 0.26, HotLines: 352, StreamLines: 1536, StreamFraction: 0.016, SharedLines: 192, SharedFraction: 0.006, Locality: 0.90, HotFraction: 0.3},
		{Name: "x264", MemFraction: 0.29, WriteFraction: 0.25, HotLines: 320, StreamLines: 1280, StreamFraction: 0.018, SharedLines: 256, SharedFraction: 0.008, Locality: 0.88, HotFraction: 0.4},
		{Name: "barnes", MemFraction: 0.31, WriteFraction: 0.25, HotLines: 320, StreamLines: 1024, StreamFraction: 0.016, SharedLines: 512, SharedFraction: 0.014, Locality: 0.82, HotFraction: 0.3},
		{Name: "cholesky", MemFraction: 0.30, WriteFraction: 0.27, HotLines: 384, StreamLines: 1536, StreamFraction: 0.020, SharedLines: 256, SharedFraction: 0.008, Locality: 0.88, HotFraction: 0.3},
		{Name: "fft", MemFraction: 0.32, WriteFraction: 0.30, HotLines: 448, StreamLines: 2048, StreamFraction: 0.030, SharedLines: 384, SharedFraction: 0.006, Locality: 0.85, HotFraction: 0.1},
		{Name: "lu_cb", MemFraction: 0.30, WriteFraction: 0.28, HotLines: 320, StreamLines: 1024, StreamFraction: 0.012, SharedLines: 192, SharedFraction: 0.005, Locality: 0.92, HotFraction: 0.2},
		{Name: "lu_ncb", MemFraction: 0.30, WriteFraction: 0.28, HotLines: 352, StreamLines: 1280, StreamFraction: 0.018, SharedLines: 384, SharedFraction: 0.010, Locality: 0.85, HotFraction: 0.2},
		{Name: "ocean_cp", MemFraction: 0.34, WriteFraction: 0.30, HotLines: 416, StreamLines: 3072, StreamFraction: 0.038, SharedLines: 512, SharedFraction: 0.008, Locality: 0.85, HotFraction: 0.1},
		{Name: "ocean_ncp", MemFraction: 0.34, WriteFraction: 0.30, HotLines: 416, StreamLines: 3584, StreamFraction: 0.044, SharedLines: 640, SharedFraction: 0.010, Locality: 0.80, HotFraction: 0.1},
		{Name: "radiosity", MemFraction: 0.30, WriteFraction: 0.24, HotLines: 320, StreamLines: 1024, StreamFraction: 0.014, SharedLines: 640, SharedFraction: 0.016, Locality: 0.80, HotFraction: 0.4},
		{Name: "volrend", MemFraction: 0.28, WriteFraction: 0.15, HotLines: 288, StreamLines: 1024, StreamFraction: 0.012, SharedLines: 512, SharedFraction: 0.012, Locality: 0.85, HotFraction: 0.3},
		{Name: "water_nsquared", MemFraction: 0.29, WriteFraction: 0.24, HotLines: 288, StreamLines: 768, StreamFraction: 0.010, SharedLines: 256, SharedFraction: 0.008, Locality: 0.90, HotFraction: 0.3},
		{Name: "water_spatial", MemFraction: 0.29, WriteFraction: 0.24, HotLines: 304, StreamLines: 768, StreamFraction: 0.009, SharedLines: 224, SharedFraction: 0.006, Locality: 0.90, HotFraction: 0.3},
	}
}

// Multiprogrammed returns the SPEC-like mix: each core runs an independent
// application with a streaming working set and no sharing. Per-core
// variation comes from the per-core RNG seeds.
func Multiprogrammed() Profile {
	return Profile{
		Name:           "mix",
		MemFraction:    0.34,
		WriteFraction:  0.28,
		HotLines:       384,
		StreamLines:    3072,
		StreamFraction: 0.035,
		Locality:       0.85,
		ColdLines:      1 << 16,
		ColdFraction:   0.0008,
	}
}

// All returns every profile ByName resolves, in listing order: the
// microbenchmark, the paper's 21 parallel apps and its multiprogrammed mix,
// the adversarial generators, then phased's quiet half.
func All() []Profile {
	ps := append([]Profile{Micro()}, Parallel()...)
	ps = append(append(ps, Multiprogrammed()), Generators()...)
	return append(ps, phasedQuiet())
}

// ByName returns the named profile from All.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Micro returns a uniform microbenchmark profile used by tests and the
// quickstart example.
func Micro() Profile {
	return Profile{
		Name:           "micro",
		MemFraction:    0.30,
		WriteFraction:  0.25,
		HotLines:       384,
		StreamLines:    1536,
		StreamFraction: 0.020,
		SharedLines:    256,
		SharedFraction: 0.010,
		Locality:       0.90,
		HotFraction:    0.3,
		ColdLines:      1 << 16,
		ColdFraction:   0.0005,
	}
}

// Generators returns the adversarial suite, in the order -list-workloads
// and rcsweep -exp tune report it: traffic the stationary evaluation
// profiles never produce — a single contended tile, permutation traffic
// with no reuse locality across destinations, duty-cycled bursts that
// defeat window averaging, and phase changes that invalidate whatever a
// timed window learned. ByName also resolves phased's quiet half, which is
// not a row of its own.
func Generators() []Profile {
	return []Profile{hotspot(), transpose(), tornado(), onOff(), phased()}
}

// hotspot funnels every shared access to lines homed on the central
// tile. The elevated shared fraction keeps the hotspot's queue full.
func hotspot() Profile {
	p := Micro()
	p.Name = "hotspot"
	p.Pattern = PatternHotspot
	p.SharedLines = 1024
	p.SharedFraction = 0.030
	return p
}

// transpose sends core (x,y)'s shared accesses to lines homed on tile
// (y,x) — the classic bit-permutation worst case for dimension-ordered
// routing.
func transpose() Profile {
	p := Micro()
	p.Name = "transpose"
	p.Pattern = PatternTranspose
	p.SharedLines = 1024
	p.SharedFraction = 0.020
	return p
}

// tornado targets the tile halfway around the row, maximizing average
// hop distance in the X dimension.
func tornado() Profile {
	p := Micro()
	p.Name = "tornado"
	p.Pattern = PatternTornado
	p.SharedLines = 1024
	p.SharedFraction = 0.020
	return p
}

// onOff chops the micro profile into bursts: heavy traffic for 400 ops,
// silence for 1200 (duty cycle 1/4). The timed-window predictor sees
// circuits go cold mid-window.
func onOff() Profile {
	p := Micro()
	p.Name = "onoff"
	p.BurstOn = 400
	p.BurstOff = 1200
	p.StreamFraction = 0.040
	p.SharedFraction = 0.020
	return p
}

// phased ping-pongs between a communication-heavy phase and a
// compute-quiet one every 1500 ops: the phase-changing mix that
// invalidates per-app tuning. phasedQuiet is its other half.
func phased() Profile {
	p := Micro()
	p.Name = "phased"
	p.StreamFraction = 0.040
	p.SharedFraction = 0.020
	p.PhaseOps = 1500
	p.PhaseNext = "phased_quiet"
	return p
}

func phasedQuiet() Profile {
	p := Micro()
	p.Name = "phased_quiet"
	p.MemFraction = 0.10
	p.StreamFraction = 0.004
	p.SharedFraction = 0.002
	p.ColdFraction = 0.0002
	p.PhaseOps = 1500
	p.PhaseNext = "phased"
	return p
}
