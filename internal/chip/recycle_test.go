package chip

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
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

// runOnShell runs spec and requires that it drew a recycled machine shell
// and put it back: the shell free list holds what it held before. (A run
// that found no shell of its inputs would leave one more.)
func runOnShell(t *testing.T, spec Spec) (*Results, error) {
	t.Helper()
	idle := shells.Idle()
	r, err := Run(spec)
	if got := shells.Idle(); got != idle {
		t.Fatalf("%d shells idle after the run, %d before: it built its system new, or kept it", got, idle)
	}
	return r, err
}

// otherInput is a short run of spec's inputs on another workload and
// seed: it leaves their shell as another run would.
func otherInput(t *testing.T, spec Spec) Spec {
	t.Helper()
	name := "canneal"
	if spec.Workload.Name == name {
		name = "micro"
	}
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	spec.Workload, spec.Seed = w, spec.Seed+5
	spec.WarmupOps, spec.MeasureOps = 100, 400
	return spec
}

// drainShells empties the shell free list of spec's inputs: it builds
// machines, releasing only their arrays, until one comes out new.
func drainShells(t *testing.T, spec Spec) {
	t.Helper()
	for {
		idle := shells.Idle()
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		if shells.Idle() == idle {
			return
		}
	}
}

// TestRecycledShellsReproduceGolden: every 16-core golden row reproduces
// twice in a row on a recycled machine shell of its own variant — system,
// kernel, cores, streams, regions and registry — first on the one a run of
// another workload and seed left, then on the one its own first run left.
func TestRecycledShellsReproduceGolden(t *testing.T) {
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		if _, err := Run(otherInput(t, goldenSpec(row, t))); err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 2; run++ {
			r, err := runOnShell(t, goldenSpec(row, t))
			if err != nil {
				t.Fatalf("%s/%s run %d: %v", row.workload, row.variant, run, err)
			}
			checkGolden(t, row, r)
		}
	}
}

// TestRecycledShellMatchesFresh: a run on a recycled machine shell is the
// run on a new one, to the last metric of every sample window, for the
// 16-core cross-check cells, whichever kind of run left the shell: a run
// of another workload and seed, a recorded run, a fault-armed run (its
// injector never fires, so it files the shell with the hook and the
// diagnostic tracer armed) or a replay of the recorded trace, whose
// regions and streams are the trace's, not the shell's.
func TestRecycledShellMatchesFresh(t *testing.T) {
	for _, i := range crossCheckRows() {
		row := goldenMatrix[i]
		if row.chip != "16-core" {
			continue
		}
		spec := goldenSpec(row, t)
		spec.SampleEvery = 97
		drainShells(t, spec)
		idle := shells.Idle()
		fresh, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := shells.Idle(); got != idle+1 {
			t.Fatalf("%s/%s: %d shells idle after a run on a new one, %d before", row.workload, row.variant, got, idle)
		}
		after := func(label string, prior Spec) {
			if _, err := runOnShell(t, prior); err != nil {
				t.Fatalf("%s/%s %s: %v", row.workload, row.variant, label, err)
			}
			recycled, err := runOnShell(t, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := Diff(fresh, recycled, nil); err != nil {
				t.Errorf("%s/%s after the %s: %v", row.workload, row.variant, label, err)
			}
		}
		recorded, armed := spec, spec
		recorded.RecordTrace = filepath.Join(t.TempDir(), "prior.rctf")
		armed.Fault = &fault.Plan{Class: fault.StallLink, After: 1 << 40}
		after("other input", otherInput(t, spec))
		after("recorded run", recorded)
		after("fault-armed run", armed)
		replay := spec
		if replay.Workload, _, err = tracefeed.LoadWorkload(recorded.RecordTrace); err != nil {
			t.Fatal(err)
		}
		after("replay", replay)
	}
}

// TestResultsOutliveRecycledShell: a run's Results hold copies, never
// pointers into the machine that produced them — the per-core statistics,
// latency histogram, metrics, sample windows, trace tail, circuit
// statistics and power events read the same after the next run has rebuilt
// that machine over the same shell.
func TestResultsOutliveRecycledShell(t *testing.T) {
	spec := goldenSpec(goldenRowOf(t, "16-core", "micro", "Reuse_NoAck"), t)
	spec.SampleEvery = 97
	spec.TraceCap = 64
	dump := func(r *Results) string {
		return fmt.Sprintf("%#v\n%#v\n%#v\n%#v\n%#v\n%#v\n%#v\n%#v",
			r.Cores, *r.Lat.CircuitReplyHist, r.Lat, r.Metrics, r.Series, r.Trace, *r.Circ, r.Events)
	}
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := dump(r)
	if _, err := runOnShell(t, otherInput(t, spec)); err != nil {
		t.Fatal(err)
	}
	if after := dump(r); after != before {
		t.Errorf("the next run on the shell changed the Results:\nbefore %s\nafter  %s", before, after)
	}
}

// TestNoPoolRunsNeverRecycle: a NoPool run builds its system new and leaves
// it to the GC, whatever shells wait.
func TestNoPoolRunsNeverRecycle(t *testing.T) {
	spec := quickSpec(t, config.Chip16(), "Complete_NoAck")
	spec.WarmupOps, spec.MeasureOps = 200, 600
	MustRun(spec)
	idle := shells.Idle()
	spec.Variant.Opts.NoPool = true
	for i := 0; i < 2; i++ {
		MustRun(spec)
		if got := shells.Idle(); got != idle {
			t.Fatalf("NoPool run %d left %d shells idle, %d before", i+1, got, idle)
		}
	}
}

// TestRecycledArraysReproduceGolden: the golden rows were cut before
// recycling and prefilled images existed, so they are the fresh-process
// reference. After a run that leaves the 16-core arrays as dirty as a run
// can (canneal evicts and shares; NoAck leaves the most directory churn),
// every 16-core row must still reproduce — each on the arrays the run
// before it dirtied, and each twice against an initially empty image store:
// the first run of a workload walks its prefill and stores the image, and
// every second run restores it.
func TestRecycledArraysReproduceGolden(t *testing.T) {
	st := &imageStore{budget: imageBudget}
	useStore(t, st)
	if _, err := Run(goldenSpec(goldenRowOf(t, "16-core", "canneal", "Complete_NoAck"), t)); err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenMatrix {
		if row.chip != "16-core" {
			continue
		}
		for run := 1; run <= 2; run++ {
			hits, _ := st.counts()
			r, err := runRecycled(t, goldenSpec(row, t))
			if err != nil {
				t.Fatalf("%s/%s run %d: %v", row.workload, row.variant, run, err)
			}
			if now, _ := st.counts(); run == 2 && now != hits+1 {
				t.Fatalf("%s/%s: the second run did not restore the stored image", row.workload, row.variant)
			}
			checkGolden(t, row, r)
		}
	}
}

// TestRecyclingAfterFailedRuns: a run that dies of an invariant panic and
// one cancelled in the middle of its measured phase both hand their arrays
// back — in whatever state the failure left them — but not their shells,
// which the GC takes; the next run on those arrays is golden.
func TestRecyclingAfterFailedRuns(t *testing.T) {
	row := goldenRowOf(t, "16-core", "canneal", "Complete_NoAck")
	if _, err := Run(goldenSpec(row, t)); err != nil {
		t.Fatal(err)
	}

	panicking := quickSpec(t, config.Chip16(), "Complete_NoAck")
	panicking.Fault = &fault.Plan{Class: fault.FlipBuiltBit}
	idleShells := shells.Idle()
	if _, err := runRecycled(t, panicking); err == nil {
		t.Log("flip-built-bit absorbed in this configuration")
		idleShells++
	} else if re := AsRunError(err); re == nil || !re.Panicked {
		t.Fatalf("expected a contained panic, got: %v", err)
	}
	if got := shells.Idle(); got != idleShells-1 {
		t.Fatalf("%d shells idle after the panicked run, %d before: a failed run returned its shell", got, idleShells)
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
	idle, idleShells := cache.Idle(), shells.Idle()
	_, err = RunCtx(ctx, cancelled)
	if re := AsRunError(err); re == nil || re.Phase != "measured" || !strings.Contains(re.Msg, "canceled") {
		t.Fatalf("expected a cancellation in the measured phase, got: %v", err)
	}
	if got := cache.Idle(); got != idle {
		t.Fatalf("the cancelled run left %d slabs idle, %d before", got, idle)
	}
	if got := shells.Idle(); got != idleShells-1 {
		t.Fatalf("%d shells idle after the cancelled run, %d before: it returned its shell", got, idleShells)
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

// runMachine runs a built machine to its Results as RunCtx does, and
// releases it.
func runMachine(t *testing.T, m *Machine) *Results {
	t.Helper()
	defer m.Release()
	ctx := context.Background()
	if err := m.RunPhase(ctx, "warm-up"); err != nil {
		t.Fatal(err)
	}
	m.BeginMeasured()
	if err := m.RunPhase(ctx, "measured"); err != nil {
		t.Fatal(err)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	return m.Harvest()
}

// TestRebuiltImagesMatchNoPool: one shell runs the prefills of two
// workloads in the order A, B, A, A, B, A. The first A and B walk and store
// their images; after that the shell's slabs leave an image for another, or
// keep theirs and rewrite only the sets the run before wrote. Every build
// must hold the caches a NoPool walk leaves, and every run must equal the
// NoPool run of its spec.
func TestRebuiltImagesMatchNoPool(t *testing.T) {
	st := &imageStore{budget: imageBudget}
	useStore(t, st)
	a := quickSpec(t, config.Chip16(), "Complete_NoAck")
	a.WarmupOps, a.MeasureOps = 200, 600
	b := otherInput(t, a)
	noPool := func(s Spec) Spec { s.Variant.Opts.NoPool = true; return s }
	want := map[string]*Results{a.Workload.Name: MustRun(noPool(a)), b.Workload.Name: MustRun(noPool(b))}
	skip := Legs()[slices.IndexFunc(Legs(), func(l Leg) bool { return l.Name == "no-pool" })].Skip
	for i, spec := range []Spec{a, b, a, a, b, a} {
		label := fmt.Sprintf("run %d (%s)", i+1, spec.Workload.Name)
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(noPool(spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Sys.DiffCaches(m.Sys); err != nil {
			t.Fatalf("%s: the built caches differ from the NoPool walk: %v", label, err)
		}
		ref.Release()
		idle := shells.Idle()
		if err := Diff(want[spec.Workload.Name], runMachine(t, m), skip); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if i > 0 && shells.Idle() != idle+1 {
			t.Fatalf("%s: the run did not file its shell", label)
		}
	}
	if hits, misses := st.counts(); hits != 4 || misses != 2 {
		t.Errorf("%d hits and %d misses, want the first A and B walked and the rest restored", hits, misses)
	}
}
