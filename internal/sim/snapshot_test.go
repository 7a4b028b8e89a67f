package sim

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotKeysStableAndSorted: Snapshot.Keys must return the same
// sorted name list no matter the registration order or how often it is
// asked — the /metrics endpoint renders directly from it, and a text
// format that reshuffles between scrapes is useless to diff.
func TestSnapshotKeysStableAndSorted(t *testing.T) {
	var a, b, c int64
	fwd := NewRegistry()
	fwd.Counter("serve/cache_hits", &a)
	fwd.Counter("noc/link_flits", &b)
	fwd.Gauge("kernel/active", func() int64 { return c })

	rev := NewRegistry()
	rev.Gauge("kernel/active", func() int64 { return c })
	rev.Counter("noc/link_flits", &b)
	rev.Counter("serve/cache_hits", &a)

	want := []string{"kernel/active", "noc/link_flits", "serve/cache_hits"}
	if got := fwd.Snapshot(0).Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if got := rev.Snapshot(0).Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registration order leaked into keys: %v", got)
	}
	s := fwd.Snapshot(7)
	if !reflect.DeepEqual(s.Keys(), s.Keys()) {
		t.Fatalf("repeated Keys calls disagree")
	}
}

// countingComponent steps a counter every tick and quiesces after limit.
type countingComponent struct {
	ticks int64
	limit int64
}

func (c *countingComponent) Tick(Cycle)      { c.ticks++ }
func (c *countingComponent) Quiescent() bool { return c.ticks >= c.limit }

// TestSnapshotWhileSteppingRace drives a kernel whose components mutate
// registered counters while other goroutines continuously read snapshots.
// Plain counter fields are owned by the simulation goroutine, so the
// supported concurrent-read path is a gauge over an atomic — exactly how
// the service exports queue/cache/worker levels. Run under -race this
// proves that pattern (and the registry's own internals) are data-race
// free while a simulation is stepping.
func TestSnapshotWhileSteppingRace(t *testing.T) {
	var published atomic.Int64
	reg := NewRegistry()
	reg.Gauge("serve/ticks", func() int64 { return published.Load() })

	comp := &countingComponent{limit: 50_000}
	k := NewKernel()
	k.Add(comp)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64 = -1
			for {
				select {
				case <-done:
					return
				default:
				}
				s := reg.Snapshot(0)
				v := s.Value("serve/ticks")
				if v < last {
					t.Errorf("snapshot went backwards: %d after %d", v, last)
					return
				}
				last = v
				for range s.Keys() {
				}
			}
		}()
	}

	for !comp.Quiescent() {
		k.Step()
		published.Store(comp.ticks)
	}
	close(done)
	wg.Wait()

	if got := reg.Snapshot(k.Now()).Value("serve/ticks"); got != comp.limit {
		t.Fatalf("final gauge = %d, want %d", got, comp.limit)
	}
}

// TestSamplerOnWindowObservesEveryWindow: the streaming hook must see the
// same windows, in the same order, that land in Samples().
func TestSamplerOnWindowObservesEveryWindow(t *testing.T) {
	var flits int64
	reg := NewRegistry()
	reg.Counter("noc/link_flits", &flits)

	s := NewSampler(reg, 10, 0)
	var streamed []Snapshot
	s.OnWindow = func(w Snapshot) { streamed = append(streamed, w) }

	for now := Cycle(1); now <= 25; now++ {
		flits++
		s.Poll(now)
	}
	s.Flush(25)

	if !reflect.DeepEqual(streamed, s.Samples()) {
		t.Fatalf("streamed windows diverge from the recorded series:\n%v\nvs\n%v",
			streamed, s.Samples())
	}
	if len(streamed) != 3 {
		t.Fatalf("got %d windows, want 3 (two full + one partial)", len(streamed))
	}
}
