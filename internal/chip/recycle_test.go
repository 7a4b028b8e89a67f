package chip

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

// goldenRowOf returns the pinned row of one cell.
func goldenRowOf(t *testing.T, chip, wl, variant string) goldenRow {
	t.Helper()
	for _, row := range goldenMatrix {
		if row.chip == chip && row.workload == wl && row.variant == variant {
			return row
		}
	}
	t.Fatalf("no golden row %s/%s/%s", chip, wl, variant)
	return goldenRow{}
}

// runRecycled runs spec and requires that it drew its arrays from the free
// lists and put them back: the lists hold what they held before.
func runRecycled(t *testing.T, spec Spec) (*Results, error) {
	t.Helper()
	idle := cache.Idle()
	if idle < 2 {
		t.Fatalf("%d slabs idle before the run, want the previous run's two", idle)
	}
	r, err := Run(spec)
	if got := cache.Idle(); got != idle {
		t.Fatalf("%d slabs idle after the run, %d before: arrays leaked or were not reused", got, idle)
	}
	return r, err
}

// TestRecycledArraysReproduceGolden: the golden rows were cut before
// recycling existed, so they are the fresh-process reference. After a run
// that leaves the 16-core arrays as dirty as a run can (canneal evicts and
// shares; NoAck leaves the most directory churn), every 16-core row must
// still reproduce — each on the arrays the row before it dirtied.
func TestRecycledArraysReproduceGolden(t *testing.T) {
	if _, err := Run(goldenSpec(goldenRowOf(t, "16-core", "canneal", "Complete_NoAck"), t)); err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		r, err := runRecycled(t, goldenSpec(row, t))
		if err != nil {
			t.Fatalf("%s/%s: %v", row.workload, row.variant, err)
		}
		checkGolden(t, row, r)
	}
}

// TestRecyclingAfterFailedRuns: a run that dies of an invariant panic and
// one cancelled in the middle of its measured phase both hand their arrays
// back — in whatever state the failure left them — and the next run on
// those arrays is golden.
func TestRecyclingAfterFailedRuns(t *testing.T) {
	row := goldenRowOf(t, "16-core", "canneal", "Complete_NoAck")
	if _, err := Run(goldenSpec(row, t)); err != nil {
		t.Fatal(err)
	}

	panicking := quickSpec(t, config.Chip16(), "Complete_NoAck")
	panicking.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
	if _, err := runRecycled(t, panicking); err == nil {
		t.Log("flip-built-bit absorbed in this configuration")
	} else if re := AsRunError(err); re == nil || !re.Panicked {
		t.Fatalf("expected a contained panic, got: %v", err)
	}
	r, err := runRecycled(t, goldenSpec(row, t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, row, r)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := goldenSpec(row, t)
	cancelled.MeasureOps = 40000 // long enough that a checkEvery poll follows the first window
	cancelled.SampleEvery = 512
	cancelled.OnSample = func(sim.Snapshot) { cancel() }
	idle := cache.Idle()
	_, err = RunCtx(ctx, cancelled)
	if re := AsRunError(err); re == nil || re.Phase != "measured" || !strings.Contains(re.Msg, "canceled") {
		t.Fatalf("expected a cancellation in the measured phase, got: %v", err)
	}
	if got := cache.Idle(); got != idle {
		t.Fatalf("the cancelled run left %d slabs idle, %d before", got, idle)
	}
	r, err = runRecycled(t, goldenSpec(row, t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, row, r)
}

// TestRecyclingConcurrentRuns drives the free lists the way exp and
// rcserved workers do: eight goroutines run a mix of 2x2 and 4x4 specs,
// drawing and releasing arrays of two geometries at once, and every result
// must equal the one its spec produced serially.
func TestRecyclingConcurrentRuns(t *testing.T) {
	chips := []config.Chip{{Name: "4-core", Width: 2, Height: 2, MCs: 2}, config.Chip16()}
	var specs []Spec
	var want []*Results
	for i, vname := range []string{"Baseline", "Complete_NoAck", "Reuse_NoAck", "SlackDelay_1_NoAck"} {
		for _, c := range chips {
			s := DefaultSpec(c, variant(t, vname), workload.Micro())
			s.WarmupOps, s.MeasureOps, s.Seed = 200, 800, uint64(3+i)
			r, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			specs, want = append(specs, s), append(want, r)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g*5 + k*3) % len(specs)
				r, err := Run(specs[i])
				if err != nil {
					t.Errorf("goroutine %d: %s/%s: %v", g, specs[i].Chip.Name, specs[i].Variant.Name, err)
					continue
				}
				sameResults(t, specs[i].Chip.Name+"/"+specs[i].Variant.Name, want[i], r)
			}
		}(g)
	}
	wg.Wait()
}

// TestBadTraceFailsBeforeBuild: a trace the spec cannot replay — missing,
// stale CRC, recorded on another chip, recorded with other budgets — is
// rejected before the machine is built. On Chip64 the machine is 27 MB of
// arrays; each rejection must cost under 1 MB and leave the free lists alone.
func TestBadTraceFailsBeforeBuild(t *testing.T) {
	record := func(c config.Chip) Spec {
		s := DefaultSpec(c, variant(t, "Baseline"), workload.Micro())
		s.WarmupOps, s.MeasureOps, s.Seed = 50, 100, 3
		s.RecordTrace = filepath.Join(t.TempDir(), c.Name+".rctf")
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		p, _, err := tracefeed.LoadWorkload(s.RecordTrace)
		if err != nil {
			t.Fatal(err)
		}
		s.Workload, s.RecordTrace = p, ""
		return s
	}
	good := record(config.Chip64())
	if _, err := Run(good); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	missing := good
	missing.Workload.TracePath = filepath.Join(t.TempDir(), "gone.rctf")
	staleCRC := good
	staleCRC.Workload.TraceCRC ^= 0xFFFF
	wrongChip := record(config.Chip16())
	wrongChip.Chip = config.Chip64()
	wrongOps := good
	wrongOps.MeasureOps = 999

	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"missing file", missing, "gone.rctf"},
		{"stale CRC", staleCRC, "spec pinned"},
		{"wrong core count", wrongChip, "recorded 16 cores"},
		{"wrong budgets", wrongOps, "spec asks"},
	} {
		idle := cache.Idle()
		var err error
		bytes := allocatedBy(func() { _, err = Run(tc.spec) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if AsRunError(err) != nil {
			t.Errorf("%s: rejected as a RunError, want a plain error: nothing ran", tc.name)
		}
		if bytes >= 1<<20 {
			t.Errorf("%s: rejection allocated %d bytes, want < 1 MB: a chip was built first", tc.name, bytes)
		}
		if got := cache.Idle(); got != idle {
			t.Errorf("%s: free lists went from %d to %d slabs", tc.name, idle, got)
		}
	}
}
