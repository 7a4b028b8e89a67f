package serve

import (
	"container/list"
	"encoding/json"
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
	res *result
}

// result is a finished run's Results with their JSON and binary forms,
// shared by the cache entry and every job served from it. Each form is
// encoded once, by the first HTTP handler that asks for it (the miss's own
// GET or the first hit), and never on a worker, where it would delay the
// next queued run. A stored result is never changed: replacing an entry's
// Results replaces its result, so the bytes always match the Results they
// were encoded from. A 16-core run's forms are about 6.5 KB of JSON and
// 2.6 KB of binary.
type result struct {
	res *chip.Results

	once sync.Once
	js   []byte
	err  error

	binOnce sync.Once
	bin     []byte
	binErr  error
}

// encoded returns the Results' encoding, as json.Marshal writes it.
func (r *result) encoded() ([]byte, error) {
	r.once.Do(func() { r.js, r.err = json.Marshal(r.res) })
	return r.js, r.err
}

// binary returns the Results in the binary result form (codec.go).
func (r *result) binary() ([]byte, error) {
	r.binOnce.Do(func() { r.bin, r.binErr = encodeResults(r.res) })
	return r.bin, r.binErr
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
func (c *resultCache) admit(fp string, fresh *job) (admitOutcome, *result, *job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.hitLocked(fp); r != nil {
		return admitHit, r, nil
	}
	if twin, ok := c.inflight[fp]; ok {
		return admitJoin, nil, twin
	}
	c.misses.Add(1)
	c.inflight[fp] = fresh
	return admitNew, nil, nil
}

// hit returns fp's cached result, counted as a hit, or nil without
// counting anything.
func (c *resultCache) hit(fp string) *result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(fp)
}

func (c *resultCache) hitLocked(fp string) *result {
	el, ok := c.byF[fp]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).res
}

// complete stores a finished run's result (nil res for failures) and
// releases the fingerprint's in-flight slot.
func (c *resultCache) complete(fp string, res *result) {
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
