package chip

import (
	"path/filepath"
	"slices"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/workload"
)

// useStore makes st the store RunCtx prefills through until the test ends.
// Only tests that run no other test's chips at the same time may call it.
func useStore(t *testing.T, st *imageStore) {
	t.Helper()
	old := images
	images = st
	t.Cleanup(func() { images = old })
}

// counts reads the store's hit and miss counters.
func (st *imageStore) counts() (hits, misses int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hits, st.misses
}

// nineCore is the non-power-of-two mesh: 9 banks interleave lines unevenly
// over the slab's sets.
var nineCore = config.Chip{Name: "9-core", Width: 3, Height: 3, MCs: 2}

// chip81 is the smallest square mesh past 64 tiles: its directory keeps a
// spill word per line.
var chip81 = config.Chip{Name: "81-core", Width: 9, Height: 9, MCs: 4}

func newSystem(t *testing.T, c config.Chip, noPool bool) *coherence.System {
	t.Helper()
	opts := variant(t, "Baseline").Opts
	opts.NoPool = noPool
	return coherence.NewSystem(mesh.New(c.Width, c.Height), opts, c.MCs)
}

func profileRegions(p workload.Profile, cores int) [][]workload.Region {
	regions := make([][]workload.Region, cores)
	for i := range regions {
		regions[i] = p.Regions(i)
	}
	return regions
}

// recordTrace records a short run of p on c and returns the spec that
// replays it.
func recordTrace(t *testing.T, c config.Chip, p workload.Profile) Spec {
	t.Helper()
	s := DefaultSpec(c, variant(t, "Baseline"), p)
	s.WarmupOps, s.MeasureOps, s.Seed = 50, 150, 3
	s.RecordTrace = filepath.Join(t.TempDir(), c.Name+".rctf")
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	replay, _, err := tracefeed.LoadWorkload(s.RecordTrace)
	if err != nil {
		t.Fatal(err)
	}
	s.Workload, s.RecordTrace = replay, ""
	return s
}

// sharedRegions installs the same 64 lines in every core's L1 in S, so
// every line's directory lists every tile.
func sharedRegions(cores int) [][]workload.Region {
	regions := make([][]workload.Region, cores)
	for i := range regions {
		regions[i] = []workload.Region{{Start: 1 << 40, Lines: 64, L1Lines: 64}}
	}
	return regions
}

func cloneRegions(regions [][]workload.Region) [][]workload.Region {
	out := make([][]workload.Region, len(regions))
	for i := range regions {
		out[i] = slices.Clone(regions[i])
	}
	return out
}

// l1Valid counts the valid lines of every L1.
func l1Valid(sys *coherence.System) int {
	n := 0
	for _, l1 := range sys.L1s {
		c := l1.Cache()
		for s := 0; s < c.Config().Sets(); s++ {
			for _, l := range c.Lines(cache.Addr(s * c.Config().LineBytes)) {
				if l.Valid {
					n++
				}
			}
		}
	}
	return n
}

// TestImageReproducesPrefill: a restored image is the line-by-line walk.
// For each chip and workload the caches are walked under NoPool (the
// reference, which never touches a store), walked again through an empty
// store (a miss, which captures) and then restored from that store; the
// restored arrays must equal the reference in every line, PLRU word and
// counter. "overflow" streams more lines into every L2 set than it has
// ways, so the walk evicts (counted) and drops L1 copies, and the image
// must carry both. "shared" puts every tile in the directory of the same
// lines, so on the 81-core chip the image must carry the spill words too.
// A region set differing only in one region's L1Lines must miss
// the stored image and walk to its own reference.
func TestImageReproducesPrefill(t *testing.T) {
	canneal, _ := workload.ByName("canneal")
	overflow := workload.Micro()
	overflow.StreamLines = 1 << 14
	for _, c := range []config.Chip{config.Chip16(), config.Chip64(), nineCore, chip81} {
		n := c.Width * c.Height
		traced := recordTrace(t, c, tracefeed.Transpose())
		feed, _, err := tracefeed.Load(traced.Workload.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []struct {
			name    string
			regions [][]workload.Region
		}{
			{"micro", profileRegions(workload.Micro(), n)},
			{"canneal", profileRegions(canneal, n)},
			{"overflow", profileRegions(overflow, n)},
			{"trace", feed.Regions},
			{"shared", sharedRegions(n)},
		} {
			label := c.Name + "/" + wl.name
			ref := newSystem(t, c, true)
			images.prefill(ref, wl.regions)

			st := &imageStore{budget: imageBudget}
			walked, restored := newSystem(t, c, false), newSystem(t, c, false)
			st.prefill(walked, wl.regions)
			st.prefill(restored, wl.regions)
			if hits, misses := st.counts(); hits != 1 || misses != 1 || len(st.entries) != 1 {
				t.Fatalf("%s: %d hits, %d misses, %d images; want the walk stored and the second build restored",
					label, hits, misses, len(st.entries))
			}
			if err := ref.DiffCaches(walked); err != nil {
				t.Fatalf("%s: the pooled walk differs from the NoPool walk: %v", label, err)
			}
			if err := ref.DiffCaches(restored); err != nil {
				t.Fatalf("%s: the restored image differs from the walk: %v", label, err)
			}

			if wl.name == "overflow" {
				var evictions int64
				for _, l2 := range ref.L2s {
					evictions += l2.Cache().Evictions
				}
				if evictions == 0 || l1Valid(ref) >= n*512 {
					t.Fatalf("%s: %d L2 evictions and %d of %d L1 lines valid: the walk did not overflow",
						label, evictions, l1Valid(ref), n*512)
				}
			}

			tweaked := cloneRegions(wl.regions)
			tweaked[0][0].L1Lines--
			ref2, got2 := newSystem(t, c, true), newSystem(t, c, false)
			images.prefill(ref2, tweaked)
			st.prefill(got2, tweaked)
			if hits, _ := st.counts(); hits != 1 {
				t.Fatalf("%s: regions differing in L1Lines hit the stored image", label)
			}
			if err := ref2.DiffCaches(got2); err != nil {
				t.Fatalf("%s with one fewer L1 line: %v", label, err)
			}
			walked.Release()
			restored.Release()
			got2.Release()
		}
	}
}

// TestImageHitsOnlyEqualKeys drives the store through RunCtx: a run hits
// when only its seed or variant differs from a stored run, and misses when
// the workload, the mesh or a trace's regions differ. NoPool leaves the
// store untouched.
func TestImageHitsOnlyEqualKeys(t *testing.T) {
	st := &imageStore{budget: imageBudget}
	useStore(t, st)
	small := func(c config.Chip, vname string, w workload.Profile, seed uint64) Spec {
		s := DefaultSpec(c, variant(t, vname), w)
		s.WarmupOps, s.MeasureOps, s.Seed = 50, 150, seed
		return s
	}
	canneal, _ := workload.ByName("canneal")
	traced := recordTrace(t, config.Chip16(), tracefeed.Hotspot())

	// The same trace with core 0 warming one fewer L1 line.
	feed, _, err := tracefeed.Load(traced.Workload.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	feed.Regions[0][0].L1Lines--
	shifted := traced
	path := filepath.Join(t.TempDir(), "shifted.rctf")
	if _, err := feed.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if shifted.Workload, _, err = tracefeed.LoadWorkload(path); err != nil {
		t.Fatal(err)
	}

	for _, step := range []struct {
		name string
		spec Spec
		hit  bool
	}{
		{"first micro run", small(config.Chip16(), "Baseline", workload.Micro(), 1), false},
		{"another seed", small(config.Chip16(), "Baseline", workload.Micro(), 2), true},
		{"another variant", small(config.Chip16(), "SlackDelay_1_NoAck", workload.Micro(), 2), true},
		{"another workload", small(config.Chip16(), "Baseline", canneal, 1), false},
		{"another mesh", small(nineCore, "Baseline", workload.Micro(), 1), false},
		{"replay of the recorded profile", traced, true},
		{"replay with other regions", shifted, false},
		{"that replay again", shifted, true},
	} {
		h0, m0 := st.counts()
		if _, err := Run(step.spec); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		h1, m1 := st.counts()
		if hit := h1 == h0+1 && m1 == m0; hit != step.hit || h1+m1 != h0+m0+1 {
			t.Errorf("%s: %d hits and %d misses, want hit=%v", step.name, h1-h0, m1-m0, step.hit)
		}
	}

	h0, m0 := st.counts()
	entries, bytes := len(st.entries), st.bytes
	spec := small(config.Chip16(), "Baseline", workload.Micro(), 1)
	spec.NoPool = true
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if h1, m1 := st.counts(); h1 != h0 || m1 != m0 || len(st.entries) != entries || st.bytes != bytes {
		t.Errorf("a NoPool run touched the store: hits %d→%d, misses %d→%d, images %d→%d, bytes %d→%d",
			h0, h1, m0, m1, entries, len(st.entries), bytes, st.bytes)
	}
}

// TestImageStoreKeepsItsBudget: the store never holds more than its
// budget. With room for one image, a second key walks every time and is
// never stored; with no room, nothing is stored. Walks the store refused
// still produce the reference state.
func TestImageStoreKeepsItsBudget(t *testing.T) {
	c := config.Chip16()
	canneal, _ := workload.ByName("canneal")
	a, b := profileRegions(workload.Micro(), 16), profileRegions(canneal, 16)

	// Measure both entries in a store with room for them.
	probe := &imageStore{budget: imageBudget}
	probe.prefill(newSystem(t, c, false), a)
	sizeA := probe.bytes
	probe.prefill(newSystem(t, c, false), b)
	sizeB := probe.bytes - sizeA
	if sizeA == 0 || sizeB == 0 {
		t.Fatalf("image sizes %d and %d bytes", sizeA, sizeB)
	}

	for _, tc := range []struct {
		name    string
		budget  int
		entries int
	}{
		{"room for one", sizeA + sizeB - 1, 1},
		{"room for none", sizeA - 1, 0},
	} {
		st := &imageStore{budget: tc.budget}
		for round := 0; round < 2; round++ {
			for _, regions := range [][][]workload.Region{a, b} {
				ref, got := newSystem(t, c, true), newSystem(t, c, false)
				images.prefill(ref, regions)
				st.prefill(got, regions)
				if err := ref.DiffCaches(got); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got.Release()
				if st.bytes > st.budget {
					t.Fatalf("%s: the store holds %d bytes over a budget of %d", tc.name, st.bytes, st.budget)
				}
			}
		}
		hits, misses := st.counts()
		if len(st.entries) != tc.entries || hits != tc.entries || misses != 4-tc.entries {
			t.Errorf("%s: %d images, %d hits, %d misses; want %d images and every other prefill walked",
				tc.name, len(st.entries), hits, misses, tc.entries)
		}
	}
}
