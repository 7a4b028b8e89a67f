package sim

import (
	"fmt"
	"sort"
)

// metricKind distinguishes cumulative counters from level gauges: window
// deltas subtract counters but carry gauges at their end-of-window level.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
)

type metric struct {
	name     string
	kind     metricKind
	counters []*int64
	// reads are the metric's functions of the snapshot cycle: a gauge's
	// level, or a CounterAt counter.
	reads []func(at Cycle) int64
}

func (m *metric) value(at Cycle) int64 {
	var v int64
	for _, p := range m.counters {
		v += *p
	}
	for _, f := range m.reads {
		v += f(at)
	}
	return v
}

// Registry maps stable metric names to the counters and gauges components
// registered once at construction. Components keep owning their plain
// int64 fields — the registry only holds pointers — so the hot simulation
// paths never pay for instrumentation; reading happens exclusively at
// snapshot time.
//
// Several registrations under one name sum in snapshots: the 64 L1
// controllers each register their own hit counter under "l1/hits" and the
// registry aggregates them. Names are slash-scoped by layer:
// "core/retired", "l1/hits", "noc/link_flits", "circ/built",
// "kernel/active".
type Registry struct {
	byName  map[string]int
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]int{}} }

func (r *Registry) slot(name string, kind metricKind) *metric {
	if i, ok := r.byName[name]; ok {
		m := &r.metrics[i]
		if m.kind != kind {
			panic(fmt.Sprintf("sim: metric %q registered as both counter and gauge", name))
		}
		return m
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, kind: kind})
	return &r.metrics[len(r.metrics)-1]
}

// Counter registers the cumulative counter at p under name. Registering
// several pointers under the same name sums them in snapshots.
func (r *Registry) Counter(name string, p *int64) {
	m := r.slot(name, counterKind)
	m.counters = append(m.counters, p)
}

// CounterAt registers a cumulative counter read through f at the snapshot's
// cycle, for a component that credits a counter in closed form when it
// wakes instead of bumping it every cycle it sleeps: f adds the span still
// open at cycle at, so every read equals the ticking engine's. It sums and
// deltas like Counter.
func (r *Registry) CounterAt(name string, f func(at Cycle) int64) {
	m := r.slot(name, counterKind)
	m.reads = append(m.reads, f)
}

// Gauge registers a level metric computed on demand; same-name gauges sum.
func (r *Registry) Gauge(name string, f func() int64) {
	m := r.slot(name, gaugeKind)
	m.reads = append(m.reads, func(Cycle) int64 { return f() })
}

// Names returns every registered metric name in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i := range r.metrics {
		out[i] = r.metrics[i].name
	}
	return out
}

// Snapshot reads every metric at cycle at.
func (r *Registry) Snapshot(at Cycle) Snapshot {
	s := Snapshot{At: at, Vals: make(map[string]int64, len(r.metrics))}
	for i := range r.metrics {
		s.Vals[r.metrics[i].name] = r.metrics[i].value(at)
	}
	return s
}

// Delta builds the window view between two snapshots: counters are
// differenced, gauges keep cur's level. The result's At is cur.At.
func (r *Registry) Delta(cur, prev Snapshot) Snapshot {
	d := Snapshot{At: cur.At, Vals: make(map[string]int64, len(cur.Vals))}
	for i := range r.metrics {
		m := &r.metrics[i]
		v := cur.Vals[m.name]
		if m.kind == counterKind {
			v -= prev.Vals[m.name]
		}
		d.Vals[m.name] = v
	}
	return d
}

// Snapshot is a point-in-time (or, after Delta, per-window) reading of
// every registered metric.
type Snapshot struct {
	At   Cycle
	Vals map[string]int64
}

// Value returns one metric (0 for unknown names), so report code never
// needs existence checks.
func (s Snapshot) Value(name string) int64 { return s.Vals[name] }

// Keys returns the snapshot's metric names in sorted order — the stable
// iteration order wire formats (the service's /metrics endpoint, JSON
// progress events) rely on, since Vals itself is an unordered map.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s.Vals))
	for k := range s.Vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sampler turns a registry into an interval time series: Poll it once per
// cycle and it records one windowed Delta snapshot per SampleEvery cycles.
type Sampler struct {
	reg   *Registry
	every Cycle
	next  Cycle
	prev  Snapshot
	out   []Snapshot

	// OnWindow, when non-nil, observes every recorded window right after
	// it is appended to the series. It runs on the polling goroutine (the
	// simulation loop) — observers that hand the snapshot to another
	// goroutine must do so through their own synchronization.
	OnWindow func(Snapshot)
}

// NewSampler starts sampling windows of the given length beginning at
// start; the baseline snapshot is taken immediately.
func NewSampler(reg *Registry, every, start Cycle) *Sampler {
	if every <= 0 {
		panic("sim: sampler window must be positive")
	}
	return &Sampler{reg: reg, every: every, next: start + every, prev: reg.Snapshot(start)}
}

// Poll records a window if now reached its boundary. Call it after every
// kernel step with the kernel's (already advanced) cycle.
func (s *Sampler) Poll(now Cycle) {
	for now >= s.next {
		cur := s.reg.Snapshot(s.next)
		s.record(s.reg.Delta(cur, s.prev))
		s.prev = cur
		s.next += s.every
	}
}

// Flush closes the final, possibly partial window at now.
func (s *Sampler) Flush(now Cycle) {
	if now > s.prev.At {
		cur := s.reg.Snapshot(now)
		s.record(s.reg.Delta(cur, s.prev))
		s.prev = cur
		s.next = now + s.every
	}
}

func (s *Sampler) record(w Snapshot) {
	s.out = append(s.out, w)
	if s.OnWindow != nil {
		s.OnWindow(w)
	}
}

// Samples returns the recorded windows; each snapshot holds that window's
// counter deltas and end-of-window gauge levels, with At at the window
// end.
func (s *Sampler) Samples() []Snapshot { return s.out }
