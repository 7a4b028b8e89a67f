package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/serve"
)

// Client fans spec submissions out across a cluster. Each fingerprint is
// routed to its ring owner, so the fleet's result caches partition instead
// of duplicating; when the owner dies mid-job the client re-dispatches to
// the deterministic ring successor. Run has the same shape as chip.RunCtx
// and serve.Client.Run, so it plugs straight into exp.Policy.Run.
//
// Safe for concurrent use: a sweep's worker pool shares one Client, one
// membership view, and one per-node connection set.
type Client struct {
	registry string
	hc       *http.Client
	logf     func(format string, args ...any)

	mu      sync.Mutex
	view    Membership
	ring    *Ring
	fetched time.Time
	nodes   map[string]*serve.Client // keyed by node URL
	suspect map[string]time.Time     // node ID -> when the client last saw it fail

	refreshes    atomic.Int64
	staleViews   atomic.Int64
	handoffs     atomic.Int64
	redispatches atomic.Int64
}

// NewClient targets a discovery registry base URL; logf sinks the client's
// warnings (nil: log.Printf).
func NewClient(registry string, logf func(format string, args ...any)) *Client {
	if logf == nil {
		logf = log.Printf
	}
	return &Client{
		registry: strings.TrimRight(registry, "/"),
		hc:       &http.Client{},
		logf:     logf,
		nodes:    map[string]*serve.Client{},
		suspect:  map[string]time.Time{},
	}
}

// Counters reports the client-side tallies, mirroring the names the
// registry publishes so chaos tests can cross-check both sides.
func (c *Client) Counters() map[string]int64 {
	return map[string]int64{
		"refreshes":    c.refreshes.Load(),
		"stale_views":  c.staleViews.Load(),
		"handoffs":     c.handoffs.Load(),
		"redispatches": c.redispatches.Load(),
	}
}

// fetchMembership asks the registry at base for a membership snapshot.
func fetchMembership(ctx context.Context, hc *http.Client, base string) (Membership, error) {
	var m Membership
	err := serve.Call(ctx, hc, http.MethodGet, strings.TrimRight(base, "/")+"/v1/nodes", nil, &m)
	return m, err
}

// viewTTL is how long a membership view is trusted without a refresh.
func (c *Client) viewTTL() time.Duration {
	if c.view.TTLMillis > 0 {
		return time.Duration(c.view.TTLMillis) * time.Millisecond
	}
	return DefaultTTL
}

// currentRing returns a routing view, refreshing from the registry when
// the cached one is stale (or force is set, after a dispatch failure). A
// partitioned or empty registry degrades, never blocks: the last non-empty
// membership keeps routing — nodes outlive a registry outage by design,
// exactly like an established circuit outliving its setup network.
func (c *Client) currentRing(ctx context.Context, force bool) (*Ring, error) {
	c.mu.Lock()
	if c.ring != nil && !force && time.Since(c.fetched) < c.viewTTL() {
		r := c.ring
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()

	m, err := fetchMembership(ctx, c.hc, c.registry)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		c.refreshes.Add(1)
	}
	switch {
	case err != nil && c.ring != nil && c.ring.Len() > 0:
		c.staleViews.Add(1)
		c.logf("cluster: registry unreachable (%v); routing on stale membership epoch %d", err, c.view.Epoch)
		return c.ring, nil
	case err != nil:
		return nil, fmt.Errorf("cluster: no membership available: %w", err)
	case len(m.Nodes) == 0 && c.ring != nil && c.ring.Len() > 0:
		// A registry that just restarted (or sat through a partition)
		// reports an empty fleet until the nodes beat again. Trust the
		// nodes we knew over a freshly amnesiac registry.
		c.staleViews.Add(1)
		c.logf("cluster: registry reports no nodes; keeping stale membership epoch %d", c.view.Epoch)
		return c.ring, nil
	}
	if c.ring == nil || m.Epoch != c.view.Epoch {
		c.ring = m.Ring(DefaultVNodes)
	}
	c.view = m
	c.fetched = time.Now()
	return c.ring, nil
}

// nodeClient returns (caching) the serve client for a node URL.
func (c *Client) nodeClient(url string) *serve.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.nodes[url]
	if !ok {
		cl = serve.NewClient(url)
		c.nodes[url] = cl
	}
	return cl
}

// suspectNode marks a node failed so the next dispatch skips it until the
// registry has had a TTL to expire it (or it recovers).
func (c *Client) suspectNode(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.suspect[id] = time.Now()
}

// isSuspect reports whether a node is inside its local suspicion window.
func (c *Client) isSuspect(id string, ttl time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.suspect[id]
	if !ok {
		return false
	}
	if time.Since(at) > ttl {
		delete(c.suspect, id)
		return false
	}
	return true
}

// report tells the registry about a handoff or re-dispatch so the
// cluster/ counters see what the clients saw. Fire-and-forget: a
// partitioned registry must not slow the sweep down.
func (c *Client) report(typ, from, to, fp string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = serve.Call(ctx, c.hc, http.MethodPost, c.registry+"/v1/cluster/events",
		clusterEvent{Type: typ, From: from, To: to, Fingerprint: fp}, nil)
}

// permanent reports whether a dispatch error is the job's fault (a
// structured simulation failure, or a request the server rejected) rather
// than the node's — only node-level failures justify a handoff.
func permanent(err error) bool {
	if chip.AsRunError(err) != nil {
		return true
	}
	var se *serve.StatusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500
}

// backoff schedule for re-dispatch: bounded exponential with full jitter,
// so N sweep workers that lost the same node don't stampede its successor.
const (
	redispatchBase = 100 * time.Millisecond
	redispatchMax  = 2 * time.Second
)

// jittered picks a sleep in [d/2, 3d/2).
func jittered(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Run routes one spec to its ring owner and blocks for the results. On a
// node-level failure it suspects the node, refreshes membership, and
// re-dispatches to the next surviving successor with jittered exponential
// backoff — at-least-once delivery whose double-count protection is the
// target node's fingerprint dedup, the same undo-token discipline the
// simulated NIs use. Per-node backpressure (429/503) is absorbed inside
// serve.Client.Run and never triggers a handoff.
func (c *Client) Run(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
	fp := spec.Fingerprint()
	delay := redispatchBase
	var lastErr error
	var lastNode string
	for attempt := 0; ; attempt++ {
		ring, err := c.currentRing(ctx, attempt > 0)
		if err != nil {
			return nil, err
		}
		if ring.Len() == 0 {
			return nil, fmt.Errorf("cluster: no live nodes registered at %s", c.registry)
		}
		// maxAttempts gives every node two shots plus slack for membership
		// to catch up with reality.
		maxAttempts := 2*ring.Len() + 3

		// First non-suspect node in deterministic failover order; if the
		// whole ring is suspected, take the owner anyway — suspicion is a
		// hint, not a verdict.
		order := ring.Successors(fp, ring.Len())
		target := order[0]
		for _, n := range order {
			if !c.isSuspect(n.ID, c.viewTTL()) {
				target = n
				break
			}
		}

		res, err := c.nodeClient(target.URL).Run(ctx, spec)
		if err == nil {
			if attempt > 0 {
				c.redispatches.Add(1)
				c.report("redispatch", lastNode, target.ID, fp)
				c.logf("cluster: job %.12s re-dispatched %s -> %s (attempt %d)", fp, lastNode, target.ID, attempt+1)
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if permanent(err) {
			return nil, err
		}

		// Node-level failure: hand the job off.
		lastErr = err
		lastNode = target.ID
		c.suspectNode(target.ID)
		c.handoffs.Add(1)
		c.report("handoff", target.ID, "", fp)
		c.logf("cluster: node %s failed job %.12s (%v); handing off", target.ID, fp, err)
		if attempt+1 >= maxAttempts {
			return nil, fmt.Errorf("cluster: job %.12s failed on every candidate after %d attempts: %w", fp, attempt+1, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jittered(delay)):
		}
		if delay *= 2; delay > redispatchMax {
			delay = redispatchMax
		}
	}
}

// Probe asks base for a membership snapshot. ok reports whether base
// speaks the discovery protocol — the seam rcsweep -remote uses to accept
// either a single rcserved or a cluster endpoint transparently.
func Probe(ctx context.Context, base string) (Membership, bool) {
	m, err := fetchMembership(ctx, &http.Client{Timeout: 5 * time.Second}, base)
	return m, err == nil
}

// RunFunc resolves a -remote endpoint into an executor: a cluster Client
// when base hosts the discovery protocol, a plain serve.Client otherwise.
// The returned description is for the caller's logs.
func RunFunc(ctx context.Context, base string, logf func(format string, args ...any)) (func(context.Context, chip.Spec) (*chip.Results, error), string) {
	if m, ok := Probe(ctx, base); ok {
		return NewClient(base, logf).Run, fmt.Sprintf("cluster of %d nodes (epoch %d)", len(m.Nodes), m.Epoch)
	}
	return serve.NewClient(base).Run, "single node"
}
