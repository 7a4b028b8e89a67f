package serve

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"reactivenoc/internal/chip"
)

// resultCache memoizes chip.Results by spec fingerprint in one LRU bounded
// at capacity entries, and carries the in-flight index — the dedup table
// that coalesces an identical submission onto the job already queued or
// running for it. Both sit under one lock so that a single acquisition
// decides hit / join / miss atomically: two racing submissions of a new
// spec can never both become simulations. The lock is held for a map
// lookup and a list move (microseconds, against a millisecond of HTTP per
// job), so there is nothing to shard.
type resultCache struct {
	capacity int

	mu  sync.Mutex
	lru *list.List               // front = most recent; values are *cacheEntry
	byF map[string]*list.Element // fingerprint -> lru element
	// inflight maps fingerprints to the live job that will produce their
	// result (dedup target).
	inflight map[string]*job

	hits, misses, evictions atomic.Int64
}

type cacheEntry struct {
	fp  string
	res *chip.Results
}

// newResultCache builds a cache holding capacity entries (<= 0: 512).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &resultCache{
		capacity: capacity,
		lru:      list.New(),
		byF:      map[string]*list.Element{},
		inflight: map[string]*job{},
	}
}

// admitOutcome is what a submission learned under the cache lock.
type admitOutcome int

const (
	admitHit  admitOutcome = iota // cached results returned
	admitJoin                     // coalesced onto an in-flight job
	admitNew                      // caller's job registered in-flight
)

// admit decides a submission's fate atomically: a cached result wins, an
// in-flight twin is joined, otherwise the caller's fresh job is registered
// as the fingerprint's in-flight owner.
func (c *resultCache) admit(fp string, fresh *job) (admitOutcome, *chip.Results, *job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byF[fp]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return admitHit, el.Value.(*cacheEntry).res, nil
	}
	if twin, ok := c.inflight[fp]; ok {
		return admitJoin, nil, twin
	}
	c.misses.Add(1)
	c.inflight[fp] = fresh
	return admitNew, nil, nil
}

// complete stores a finished run's results (nil res for failures) and
// releases the fingerprint's in-flight slot.
func (c *resultCache) complete(fp string, res *chip.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, fp)
	if res == nil {
		return
	}
	if el, ok := c.byF[fp]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.byF[fp] = c.lru.PushFront(&cacheEntry{fp: fp, res: res})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byF, oldest.Value.(*cacheEntry).fp)
		c.evictions.Add(1)
	}
}

// release frees the in-flight slot without storing anything (canceled or
// journaled jobs).
func (c *resultCache) release(fp string) { c.complete(fp, nil) }

// fingerprints lists every cached fingerprint, sorted.
func (c *resultCache) fingerprints() []string {
	c.mu.Lock()
	fps := make([]string, 0, len(c.byF))
	for fp := range c.byF {
		fps = append(fps, fp)
	}
	c.mu.Unlock()
	sort.Strings(fps)
	return fps
}

// size returns the cached-entry count.
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.lru.Len())
}
