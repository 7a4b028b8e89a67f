package chip

import (
	"slices"
	"sync"
	"unsafe"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/workload"
)

// prefillLines is the line-by-line walk every image is captured from.
func prefillLines(sys *coherence.System, regions [][]workload.Region) {
	for i, regs := range regions {
		for _, reg := range regs {
			for l := 0; l < reg.Lines; l++ {
				tile := mesh.NodeID(-1)
				if l < reg.L1Lines {
					tile = mesh.NodeID(i)
				}
				sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
			}
		}
	}
}

// imageBudget bounds the bytes the process's prefilled images hold: every
// app of a 64-core Fig 9 sweep fits (2–10 MB each), as does a 256-core
// micro image (20 MB). A bound, not an option.
const imageBudget = 256 << 20

// images is the process's store, shared by every RunCtx like the cache
// free lists.
var images = &imageStore{budget: imageBudget}

// imageStore holds prefilled images under a byte budget. Entries are never
// evicted: once the budget is full, new keys walk line by line and are not
// stored, so a sweep cycling through more keys than fit never thrashes.
type imageStore struct {
	mu           sync.Mutex
	budget       int
	bytes        int
	entries      []imageEntry
	hits, misses int // lookups that restored an image, and that walked
}

type imageEntry struct {
	key imageKey
	img *coherence.Image
}

// imageKey is everything a prefill's result depends on, compared exactly.
// The cache geometries are not in it: coherence builds Table 2's caches on
// every mesh, so the mesh size fixes them.
type imageKey struct {
	width, height int
	regions       [][]workload.Region
}

func (k *imageKey) equal(o *imageKey) bool {
	if k.width != o.width || k.height != o.height || len(k.regions) != len(o.regions) {
		return false
	}
	for i := range k.regions {
		if !slices.Equal(k.regions[i], o.regions[i]) {
			return false
		}
	}
	return true
}

// bytes is the memory a stored key holds.
func (k *imageKey) bytes() int {
	n := int(unsafe.Sizeof(*k)) + len(k.regions)*int(unsafe.Sizeof([]workload.Region(nil)))
	for _, regs := range k.regions {
		n += len(regs) * int(unsafe.Sizeof(workload.Region{}))
	}
	return n
}

// build builds the system of m, opts and mcCount in sys (zero or a
// finished machine's) with its caches warmed functionally, standing in for
// the paper's 200M-cycle warm-up: every line of every region in regions[i]
// is installed in its home L2 bank, and each region's first L1Lines lines
// in core i's L1 (Region.L1From is not consulted — see workload.Region).
//
// The state this leaves depends only on the mesh size and regions — never
// on the seed or the variant — so unless opts.NoPool, the system is built
// in the image an earlier identical prefill stored, in place of the
// line-by-line walk, and a walk whose image fits st's budget stores one
// (DESIGN.md §4.11). NoPool, the reference, always walks.
func (st *imageStore) build(sys *coherence.System, m mesh.Mesh, opts core.Options, mcCount int, regions [][]workload.Region) *coherence.System {
	if opts.NoPool {
		sys.Init(m, opts, mcCount, nil)
		prefillLines(sys, regions)
		return sys
	}
	key := imageKey{width: m.Width, height: m.Height, regions: regions}
	img := st.lookup(&key)
	sys.Init(m, opts, mcCount, img)
	if img == nil {
		prefillLines(sys, regions)
		st.store(key, sys)
	}
	return sys
}

// lookup returns the image stored under k, or nil, counting the outcome.
func (st *imageStore) lookup(k *imageKey) *coherence.Image {
	st.mu.Lock()
	defer st.mu.Unlock()
	img := st.find(k)
	if img != nil {
		st.hits++
	} else {
		st.misses++
	}
	return img
}

func (st *imageStore) find(k *imageKey) *coherence.Image {
	for i := range st.entries {
		if st.entries[i].key.equal(k) {
			return st.entries[i].img
		}
	}
	return nil
}

// store captures sys's freshly walked caches under key if the image fits
// what is left of the budget. The capture runs outside the lock; a run that
// stored the same key meanwhile wins, and this image is dropped.
func (st *imageStore) store(key imageKey, sys *coherence.System) {
	st.mu.Lock()
	room := st.budget - st.bytes - key.bytes()
	st.mu.Unlock()
	img := sys.Capture(room)
	if img == nil {
		return
	}
	// The caller's region slices may change after this run; the key may not.
	key.regions = slices.Clone(key.regions)
	for i := range key.regions {
		key.regions[i] = slices.Clone(key.regions[i])
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := img.Bytes() + key.bytes()
	if st.find(&key) != nil || st.bytes+n > st.budget {
		return
	}
	st.entries = append(st.entries, imageEntry{key, img})
	st.bytes += n
}
