package exp

import (
	"context"
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/stats"
	"reactivenoc/internal/workload"
)

// The extension experiments below are all one shape: build the spec list,
// runCells, fold the result slice. Of the Scale they honour MeasureOps,
// Seed and Workers; their workloads are fixed by the experiment.

// mustVariant resolves a name from an experiment's own variant table.
func mustVariant(name string) config.Variant {
	v, ok := config.ByName(name)
	if !ok {
		panic("exp: unknown variant " + name)
	}
	return v
}

// failShare is failed reservations as a share of the run's attempts.
func failShare(r *chip.Results, failed int64) float64 {
	att := r.Circ.CircuitsBuilt + r.Circ.ReserveFailedConflict + r.Circ.ReserveFailedStorage
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// ---------------------------------------------------------------------------
// The untimed-vs-timed pair, measured against a baseline at each point of a
// load sweep or a chip-size sweep (the paper's Section 5.5 argument).
// ---------------------------------------------------------------------------

// pairVariants are the designs whose congestion behaviour the paper
// contrasts: untimed complete circuits vs timed with slack and delay.
var pairVariants = []string{"Complete_NoAck", "SlackDelay_1_NoAck"}

// PairRow is one sweep point's outcome per pair variant: fraction of
// replies riding circuits, reservation failures among attempts, and
// speedup over the baseline at that point.
type PairRow struct {
	Circuit map[string]float64
	Failed  map[string]float64
	Speedup map[string]float64
}

// pairSpecs is one point's cells: the baseline, then each pair variant.
func pairSpecs(scale Scale, c config.Chip, w workload.Profile) []chip.Spec {
	specs := []chip.Spec{scale.spec(c, mustVariant("Baseline"), w)}
	for _, name := range pairVariants {
		specs = append(specs, scale.spec(c, mustVariant(name), w))
	}
	return specs
}

// foldPair folds one point's results, in pairSpecs order; the caller has
// checked that the baseline res[0] survived.
func foldPair(res []*chip.Results) PairRow {
	row := PairRow{
		Circuit: map[string]float64{},
		Failed:  map[string]float64{},
		Speedup: map[string]float64{},
	}
	for i, name := range pairVariants {
		r := res[1+i]
		if r == nil {
			continue
		}
		row.Circuit[name] = r.Circ.OutcomeFraction(core.OutcomeCircuit)
		row.Failed[name] = failShare(r, r.Circ.ReserveFailedConflict+r.Circ.ReserveFailedStorage)
		row.Speedup[name] = r.Speedup(res[0])
	}
	return row
}

// pairPoint is point i's slice of the results of concatenated pairSpecs.
func pairPoint(res []*chip.Results, i int) []*chip.Results {
	n := 1 + len(pairVariants)
	return res[i*n : (i+1)*n]
}

// pairHeader appends the pair's three columns per variant to lead.
func pairHeader(lead ...string) []string {
	for _, v := range pairVariants {
		lead = append(lead, v+" circ", v+" fail", v+" speedup")
	}
	return lead
}

// cells appends the row's pairHeader columns to lead.
func (r PairRow) cells(lead ...string) []string {
	for _, v := range pairVariants {
		lead = append(lead, pct(r.Circuit[v]), pct(r.Failed[v]), speedupPct(r.Speedup[v]))
	}
	return lead
}

// LoadSweep measures circuit success and speedup as the offered load grows
// (the paper's Section 5.5 claim: heavy traffic prevents complete circuits,
// and timed circuits raise that threshold).
type LoadSweep struct {
	Chip     config.Chip
	Rows     []LoadRow
	Failures []FailureReport
}

// LoadRow is one load point.
type LoadRow struct {
	Factor  float64
	InjRate float64 // baseline injected flits/node/cycle
	PairRow
}

// LoadSweepRun sweeps workload intensity multipliers on one chip. Failed
// runs are recorded in the result's Failures; a point without a baseline
// to normalize to is skipped.
func LoadSweepRun(ctx context.Context, c config.Chip, factors []float64, scale Scale, pol Policy) *LoadSweep {
	ls := &LoadSweep{Chip: c}
	var specs []chip.Spec
	for _, f := range factors {
		specs = append(specs, pairSpecs(scale, c, workload.Micro().Scaled(f))...)
	}
	var res []*chip.Results
	res, ls.Failures = runCells(ctx, pol, scale.Workers, specs)
	for i, f := range factors {
		point := pairPoint(res, i)
		if point[0] == nil {
			continue
		}
		ls.Rows = append(ls.Rows, LoadRow{
			Factor: f, InjRate: injectedFlitsPerNodeCycle(point[0]), PairRow: foldPair(point),
		})
	}
	return ls
}

// injectedFlitsPerNodeCycle is the paper's load measure.
func injectedFlitsPerNodeCycle(r *chip.Results) float64 {
	var flits int64
	for t, n := range r.Msgs.Network {
		flits += n * int64(coherence.MsgType(t).SizeFlits())
	}
	return float64(flits) / float64(r.Cycles) / float64(r.Spec.Chip.Nodes())
}

// Format renders the sweep.
func (ls *LoadSweep) Format() string { return ls.table().text() + FormatFailures(ls.Failures) }

func (ls *LoadSweep) table() *table {
	tb := &table{title: fmt.Sprintf("Load threshold (%s): circuit construction vs offered load", ls.Chip.Name),
		header: pairHeader("load", "flits/node/100cy"), notes: []string{
			"the paper (Section 5.5): heavy loads make conflicts frequent and prevent complete circuits;",
			"timed circuits hold ports only for their windows, raising the congestion threshold"}}
	for _, r := range ls.Rows {
		tb.add(r.cells(fmt.Sprintf("x%g", r.Factor), fmt.Sprintf("%.2f", r.InjRate*100))...)
	}
	return tb
}

// ScaleSweep measures the mechanism across chip sizes (the paper's Section
// 5.5 concern that longer paths and more traffic make circuits harder to
// build).
type ScaleSweep struct {
	Rows     []ScaleRow
	Failures []FailureReport
}

// ScaleRow is one chip size's outcome.
type ScaleRow struct {
	Nodes int
	PairRow
}

// ScaleSweepRun runs the micro workload across square meshes.
func ScaleSweepRun(ctx context.Context, dims []int, scale Scale, pol Policy) *ScaleSweep {
	ss := &ScaleSweep{}
	var specs []chip.Spec
	for _, d := range dims {
		c := config.Chip{Name: fmt.Sprintf("%d-core", d*d), Width: d, Height: d, MCs: 4}
		specs = append(specs, pairSpecs(scale, c, workload.Micro())...)
	}
	var res []*chip.Results
	res, ss.Failures = runCells(ctx, pol, scale.Workers, specs)
	for i, d := range dims {
		point := pairPoint(res, i)
		if point[0] != nil {
			ss.Rows = append(ss.Rows, ScaleRow{Nodes: d * d, PairRow: foldPair(point)})
		}
	}
	return ss
}

// Format renders the scalability sweep.
func (ss *ScaleSweep) Format() string { return ss.table().text() + FormatFailures(ss.Failures) }

func (ss *ScaleSweep) table() *table {
	tb := &table{title: "Scalability: circuit construction vs chip size", header: pairHeader("cores"),
		notes: []string{
			"the paper (Section 5.2/5.5): bigger chips mean longer paths and more conflicts,",
			"so fewer circuits build; timed reservations are 'very useful to guarantee the",
			"scalability of the mechanism'"}}
	for _, r := range ss.Rows {
		tb.add(r.cells(fmt.Sprintf("%d", r.Nodes))...)
	}
	return tb
}

// ---------------------------------------------------------------------------
// Ablations of the paper's experimentally chosen constants.
// ---------------------------------------------------------------------------

// Ablation is a one-dimensional design sweep.
type Ablation struct {
	Chip     config.Chip
	Param    string
	Rows     []AblationRow
	Failures []FailureReport
}

// AblationRow is one parameter value's outcome.
type AblationRow struct {
	Value          int
	CircuitFrac    float64
	StorageFailed  float64 // reservation failures from full entry storage
	ConflictFailed float64
	Undone         float64
	Speedup        float64
	AreaSavings    float64
}

// ablate runs the micro workload on variant(value) for every value and
// normalizes to one shared baseline run; without it there are no ratios
// worth reporting and the ablation has no rows.
func ablate(ctx context.Context, c config.Chip, param string, values []int,
	variant func(int) config.Variant, scale Scale, pol Policy) *Ablation {
	ab := &Ablation{Chip: c, Param: param}
	w := workload.Micro()
	specs := []chip.Spec{scale.spec(c, mustVariant("Baseline"), w)}
	for _, n := range values {
		specs = append(specs, scale.spec(c, variant(n), w))
	}
	var res []*chip.Results
	res, ab.Failures = runCells(ctx, pol, scale.Workers, specs)
	if res[0] == nil {
		return ab
	}
	for i, n := range values {
		r := res[1+i]
		if r == nil {
			continue
		}
		ab.Rows = append(ab.Rows, AblationRow{
			Value:          n,
			CircuitFrac:    r.Circ.OutcomeFraction(core.OutcomeCircuit),
			StorageFailed:  failShare(r, r.Circ.ReserveFailedStorage),
			ConflictFailed: failShare(r, r.Circ.ReserveFailedConflict),
			Undone:         r.Circ.OutcomeFraction(core.OutcomeUndone),
			Speedup:        r.Speedup(res[0]),
			AreaSavings:    r.AreaSavings,
		})
	}
	return ab
}

// AblateCircuitsPerPort sweeps the simultaneous-circuit storage that the
// paper fixes at five entries per input port ("big enough to reduce failed
// circuits due to lack of storage but small enough to minimize area").
func AblateCircuitsPerPort(ctx context.Context, c config.Chip, values []int, scale Scale, pol Policy) *Ablation {
	return ablate(ctx, c, "circuits/port", values, func(n int) config.Variant {
		return config.Variant{Name: fmt.Sprintf("Complete_%dper", n),
			Opts: core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: n, NoAck: true}}
	}, scale, pol)
}

// AblateSlack sweeps the slack of timed reservations (the paper's Slack_N
// family): small slack loses circuits to jitter, large slack occupies
// ports too long.
func AblateSlack(ctx context.Context, c config.Chip, values []int, scale Scale, pol Policy) *Ablation {
	return ablate(ctx, c, "slack/hop", values, func(s int) config.Variant {
		return config.Variant{Name: fmt.Sprintf("Slack_%d", s), Opts: core.Options{
			Mechanism: core.MechComplete, MaxCircuitsPerPort: 5,
			NoAck: true, Timed: true, SlackPerHop: s,
		}}
	}, scale, pol)
}

// Format renders the ablation.
func (ab *Ablation) Format() string { return ab.table().text() + FormatFailures(ab.Failures) }

func (ab *Ablation) table() *table {
	tb := &table{title: fmt.Sprintf("Ablation (%s, %s)", ab.Chip.Name, ab.Param),
		header: []string{ab.Param, "circuit", "storage-fail", "conflict-fail", "undone", "speedup", "area"}}
	for _, r := range ab.Rows {
		tb.add(fmt.Sprintf("%d", r.Value), pct(r.CircuitFrac), pct(r.StorageFailed),
			pct(r.ConflictFailed), pct(r.Undone), speedupPct(r.Speedup), pct2(r.AreaSavings))
	}
	return tb
}

// ---------------------------------------------------------------------------
// Related-work comparison: the design space the paper positions itself in.
// ---------------------------------------------------------------------------

// Compare contrasts Reactive Circuits with the related-work alternatives:
// speculative single-cycle routers and probe-based (Déjà-Vu) setup.
type Compare struct {
	Chip     config.Chip
	Rows     []CompareRow
	Failures []FailureReport
}

// CompareRow is one design's headline metrics at light load plus its
// speedup under an 8x-intensity workload (speculation decays with
// contention; circuits — especially timed ones — hold up).
type CompareRow struct {
	Name         string
	ReplyNet     float64 // circuit-eligible reply network latency (cycles)
	Speedup      float64
	SpeedupHeavy float64
	EnergyRatio  float64
	AreaSavings  float64
}

// CompareRun evaluates the comparator designs on one workload, light then
// 8x-heavy per design; config.Comparators lists the baseline first.
func CompareRun(ctx context.Context, c config.Chip, scale Scale, pol Policy) *Compare {
	cmp := &Compare{Chip: c}
	light := workload.Micro()
	heavy := light.Scaled(8)
	designs := config.Comparators()
	var specs []chip.Spec
	for _, v := range designs {
		specs = append(specs, scale.spec(c, v, light), scale.spec(c, v, heavy))
	}
	var res []*chip.Results
	res, cmp.Failures = runCells(ctx, pol, scale.Workers, specs)
	base, baseHeavy := res[0], res[1]
	for i, v := range designs {
		r, hr := res[2*i], res[2*i+1]
		if r == nil {
			continue
		}
		row := CompareRow{
			Name:        v.Name,
			ReplyNet:    r.Lat.CircuitReplies.Network.Mean(),
			AreaSavings: r.AreaSavings,
		}
		if base != nil {
			row.Speedup = r.Speedup(base)
			row.EnergyRatio = r.Energy.Total() / base.Energy.Total()
		}
		if hr != nil && baseHeavy != nil {
			row.SpeedupHeavy = hr.Speedup(baseHeavy)
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp
}

// Format renders the comparison.
func (cmp *Compare) Format() string { return cmp.table().text() + FormatFailures(cmp.Failures) }

func (cmp *Compare) table() *table {
	tb := &table{title: fmt.Sprintf("Related-work comparison (%s)", cmp.Chip.Name),
		header: []string{"design", "data-reply net (cy)", "speedup", "speedup @8x load", "energy", "router area"},
		notes: []string{
			"speculative routers [16-19] are modelled WITHOUT their complexity/frequency penalty",
			"(an optimistic bound) and only win while uncontended; probe setup at reply time [7]",
			"cannot hide the traversal when the L2 answers in 7 cycles; reserving with the",
			"request gets circuit latency plus the area and NoAck benefits"}}
	for _, r := range cmp.Rows {
		tb.add(r.Name, fmt.Sprintf("%.1f", r.ReplyNet),
			speedupPct(r.Speedup), speedupPct(r.SpeedupHeavy),
			fmt.Sprintf("%.3f", r.EnergyRatio), pct2(r.AreaSavings))
	}
	return tb
}

// ---------------------------------------------------------------------------
// Confidence intervals across seeds (the paper quotes 95% margins under 2%
// at 64 cores and under 5% at 16 cores).
// ---------------------------------------------------------------------------

// CI reports speedup means with 95% confidence half-widths, measured
// across (workload x seed) replicas.
type CI struct {
	Chip     config.Chip
	Seeds    int
	Rows     []CIRow
	Failures []FailureReport
}

// CIRow is one variant's aggregate.
type CIRow struct {
	Variant string
	Mean    float64
	CI95    float64 // half-width, absolute speedup units
}

// CIRun measures speedups across seeds for the given variants: replica k
// runs under scale.Seed+k, and each (workload, seed) replica's baseline
// run is shared by every variant.
func CIRun(ctx context.Context, c config.Chip, variants []string, seeds int, scale Scale, pol Policy) *CI {
	ci := &CI{Chip: c, Seeds: seeds}
	apps := []workload.Profile{workload.Micro(), workload.Multiprogrammed()}
	// One block of len(apps)*seeds replicas per variant, the baseline's first.
	var specs []chip.Spec
	for _, name := range append([]string{"Baseline"}, variants...) {
		v := mustVariant(name)
		for _, w := range apps {
			for k := 0; k < seeds; k++ {
				spec := scale.spec(c, v, w)
				spec.Seed += uint64(k)
				specs = append(specs, spec)
			}
		}
	}
	var res []*chip.Results
	res, ci.Failures = runCells(ctx, pol, scale.Workers, specs)
	block := len(apps) * seeds
	for i, name := range variants {
		var sample stats.Sample
		for j, b := range res[:block] {
			if r := res[(1+i)*block+j]; r != nil && b != nil {
				sample.Add(r.Speedup(b))
			}
		}
		// Like ratioRows: no surviving (variant, baseline) replica, no row.
		if sample.N() > 0 {
			ci.Rows = append(ci.Rows, CIRow{Variant: name, Mean: sample.Mean(), CI95: sample.CI95()})
		}
	}
	return ci
}

// Format renders the confidence table.
func (ci *CI) Format() string { return ci.table().text() + FormatFailures(ci.Failures) }

func (ci *CI) table() *table {
	tb := &table{title: fmt.Sprintf("Speedup confidence (%s, %d seeds x 2 workloads)", ci.Chip.Name, ci.Seeds),
		header: []string{"variant", "speedup", "95% CI"}, notes: []string{paperCI}}
	for _, r := range ci.Rows {
		tb.add(r.Variant, speedupPct(r.Mean), fmt.Sprintf("±%.2f%%", r.CI95*100))
	}
	return tb
}
