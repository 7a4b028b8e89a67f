// Package tracefeed records, encodes and replays the memory-access
// streams that drive the chip's cores, and registers the adversarial
// workload generators (hotspot, transpose, tornado, on/off bursts,
// phase-changing mixes) as first-class workload names.
//
// The trace format (DESIGN.md §5h) is a compact versioned binary: a
// self-describing header (workload name, seed, phase budgets, core
// count), a per-core region table for functional cache prefill, one
// varint-encoded record sequence per core ({cycle-gap, op,
// address-region, sharer-hint}, compute runs run-length encoded,
// addresses delta-coded), and a CRC-32 trailer over everything before
// it.
package tracefeed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/workload"
)

// Format constants. Version bumps when the wire layout changes; Decode
// rejects versions it does not know.
const (
	magic   = "RCTF"
	version = 1
)

// Decode hard caps: a header that claims more than these is corrupt (or
// adversarial fuzz input), not a bigger trace. They are far above
// anything the simulator produces.
const (
	maxCores       = 1 << 14
	maxRegions     = 1 << 10
	maxRegionLines = 1 << 26
)

// Rec is one trace record: an operation (or a run of compute
// operations) issued Gap cycles after the previous record.
type Rec struct {
	// Gap is the issue-cycle delta to the previous record (the absolute
	// cycle for a core's first record). Replay does not consume it — a
	// core's timing re-emerges from its misses — but it makes a trace
	// analyzable without re-simulation.
	Gap int64
	// Kind is the operation; for OpCompute the record covers a run of N
	// back-to-back compute cycles.
	Kind cpu.OpKind
	// N is the run length for compute records (>= 1); 1 for memory ops.
	N int64
	// Addr is the absolute line address for memory ops (delta-coded on
	// the wire).
	Addr cache.Addr
	// Region and Hint label the address: which of the generating
	// profile's regions it fell in and how widely the line is expected
	// to be shared (workload.Profile.Classify).
	Region workload.RegionClass
	Hint   uint8
}

// Trace is a decoded trace file: everything needed to rebuild the run
// that produced it — prefill regions per core plus each core's exact
// operation sequence.
type Trace struct {
	Workload   string
	Seed       uint64
	WarmupOps  int64
	MeasureOps int64
	Regions    [][]workload.Region
	Recs       [][]Rec
}

// Cores returns the number of per-core streams in the trace.
func (t *Trace) Cores() int { return len(t.Recs) }

// Encode serializes the trace: header, region table, per-core records,
// CRC-32 trailer. The encoding is canonical — one trace value has one
// byte representation — so the CRC doubles as a content fingerprint
// (workload.Profile.TraceCRC).
func (t *Trace) Encode() []byte {
	var buf []byte
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, 0) // flags, reserved
	buf = binary.AppendUvarint(buf, uint64(len(t.Workload)))
	buf = append(buf, t.Workload...)
	buf = binary.AppendUvarint(buf, t.Seed)
	buf = binary.AppendUvarint(buf, uint64(t.WarmupOps))
	buf = binary.AppendUvarint(buf, uint64(t.MeasureOps))
	buf = binary.AppendUvarint(buf, uint64(len(t.Recs)))
	for core := range t.Recs {
		var regions []workload.Region
		if core < len(t.Regions) {
			regions = t.Regions[core]
		}
		buf = binary.AppendUvarint(buf, uint64(len(regions)))
		for _, r := range regions {
			buf = binary.AppendUvarint(buf, uint64(r.Start))
			buf = binary.AppendUvarint(buf, uint64(r.Lines))
			buf = binary.AppendUvarint(buf, uint64(r.L1From))
			buf = binary.AppendUvarint(buf, uint64(r.L1Lines))
			if r.Exclusive {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	for core := range t.Recs {
		recs := t.Recs[core]
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
		var prevAddr cache.Addr
		for _, r := range recs {
			buf = binary.AppendUvarint(buf, uint64(r.Gap))
			meta := byte(r.Kind) | byte(r.Region)<<2 | r.Hint<<5
			buf = append(buf, meta)
			if r.Kind == cpu.OpCompute {
				buf = binary.AppendUvarint(buf, uint64(r.N))
			} else {
				buf = binary.AppendVarint(buf, int64(r.Addr)-int64(prevAddr))
				prevAddr = r.Addr
			}
		}
	}
	crc := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// decoder is a bounds-checked cursor over an encoded trace. Every read
// reports corruption as an error — Decode must never panic on arbitrary
// bytes (FuzzTraceRoundTrip).
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefeed: truncated varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefeed: truncated varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.data) {
		return nil, fmt.Errorf("tracefeed: truncated read of %d bytes at offset %d", n, d.pos)
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// count reads a length-prefix and bounds it: the remaining bytes must be
// able to hold at least one byte per claimed element, so a corrupt
// header cannot force a giant allocation.
func (d *decoder) count(cap64 uint64) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > cap64 || int(v) > len(d.data)-d.pos {
		return 0, fmt.Errorf("tracefeed: implausible element count %d at offset %d", v, d.pos)
	}
	return int(v), nil
}

// Decode parses an encoded trace, verifying magic, version, the CRC
// trailer and every structural bound. It returns the trace and its CRC
// (the value pinned by workload.Profile.TraceCRC).
func Decode(data []byte) (*Trace, uint32, error) {
	if len(data) < len(magic)+4 {
		return nil, 0, fmt.Errorf("tracefeed: %d bytes is shorter than any trace", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, 0, fmt.Errorf("tracefeed: CRC mismatch (file %08x, payload %08x)", want, got)
	}
	crc := binary.LittleEndian.Uint32(trailer)
	d := &decoder{data: payload}
	if m, err := d.bytes(len(magic)); err != nil || string(m) != magic {
		return nil, 0, fmt.Errorf("tracefeed: bad magic")
	}
	v, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if v != version {
		return nil, 0, fmt.Errorf("tracefeed: unsupported version %d (have %d)", v, version)
	}
	if _, err := d.uvarint(); err != nil { // flags
		return nil, 0, err
	}
	nameLen, err := d.count(1 << 10)
	if err != nil {
		return nil, 0, err
	}
	name, err := d.bytes(nameLen)
	if err != nil {
		return nil, 0, err
	}
	t := &Trace{Workload: string(name)}
	if t.Seed, err = d.uvarint(); err != nil {
		return nil, 0, err
	}
	warm, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	meas, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if warm > math.MaxInt64 || meas > math.MaxInt64 {
		return nil, 0, fmt.Errorf("tracefeed: phase budget overflows int64")
	}
	t.WarmupOps, t.MeasureOps = int64(warm), int64(meas)
	cores, err := d.count(maxCores)
	if err != nil {
		return nil, 0, err
	}
	t.Regions = make([][]workload.Region, cores)
	for c := 0; c < cores; c++ {
		n, err := d.count(maxRegions)
		if err != nil {
			return nil, 0, err
		}
		regions := make([]workload.Region, 0, n)
		for i := 0; i < n; i++ {
			var r workload.Region
			start, err := d.uvarint()
			if err != nil {
				return nil, 0, err
			}
			r.Start = cache.Addr(start)
			for _, dst := range []*int{&r.Lines, &r.L1From, &r.L1Lines} {
				v, err := d.uvarint()
				if err != nil {
					return nil, 0, err
				}
				if v > maxRegionLines {
					return nil, 0, fmt.Errorf("tracefeed: region spans %d lines", v)
				}
				*dst = int(v)
			}
			excl, err := d.bytes(1)
			if err != nil {
				return nil, 0, err
			}
			if excl[0] > 1 {
				return nil, 0, fmt.Errorf("tracefeed: bad exclusive flag %d", excl[0])
			}
			r.Exclusive = excl[0] == 1
			regions = append(regions, r)
		}
		t.Regions[c] = regions
	}
	t.Recs = make([][]Rec, cores)
	for c := 0; c < cores; c++ {
		n, err := d.count(uint64(len(payload)))
		if err != nil {
			return nil, 0, err
		}
		recs := make([]Rec, 0, n)
		var prevAddr cache.Addr
		for i := 0; i < n; i++ {
			var r Rec
			gap, err := d.uvarint()
			if err != nil {
				return nil, 0, err
			}
			if gap > math.MaxInt64 {
				return nil, 0, fmt.Errorf("tracefeed: cycle gap overflows int64")
			}
			r.Gap = int64(gap)
			meta, err := d.bytes(1)
			if err != nil {
				return nil, 0, err
			}
			r.Kind = cpu.OpKind(meta[0] & 0b11)
			r.Region = workload.RegionClass(meta[0] >> 2 & 0b111)
			r.Hint = meta[0] >> 5
			if r.Kind > cpu.OpStore || r.Region > workload.RegionOther {
				return nil, 0, fmt.Errorf("tracefeed: bad record meta %02x", meta[0])
			}
			if r.Kind == cpu.OpCompute {
				run, err := d.uvarint()
				if err != nil {
					return nil, 0, err
				}
				if run == 0 || run > math.MaxInt64 {
					return nil, 0, fmt.Errorf("tracefeed: compute run of %d ops", run)
				}
				r.N = int64(run)
			} else {
				delta, err := d.varint()
				if err != nil {
					return nil, 0, err
				}
				r.N = 1
				r.Addr = cache.Addr(int64(prevAddr) + delta)
				prevAddr = r.Addr
			}
			recs = append(recs, r)
		}
		t.Recs[c] = recs
	}
	if d.pos != len(payload) {
		return nil, 0, fmt.Errorf("tracefeed: %d trailing bytes after records", len(payload)-d.pos)
	}
	return t, crc, nil
}

// WriteFile encodes the trace to path and returns the payload CRC.
func (t *Trace) WriteFile(path string) (uint32, error) {
	enc := t.Encode()
	crc := binary.LittleEndian.Uint32(enc[len(enc)-4:])
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return 0, err
	}
	return crc, nil
}

// Load reads and decodes a trace file.
func Load(path string) (*Trace, uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return Decode(data)
}
