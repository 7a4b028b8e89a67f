package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/serve"
)

// Client fans spec submissions out across a fixed list of rcserved nodes.
// Each fingerprint is routed to its ring owner, so the fleet's result
// caches partition instead of duplicating; when the owner fails mid-job
// the client re-dispatches to the deterministic ring successor. Run has
// the same shape as chip.RunCtx and serve.Client.Run, so it plugs straight
// into exp.Policy.Run.
//
// Safe for concurrent use: a sweep's worker pool shares one Client, one
// ring, and one per-node connection set.
type Client struct {
	ring  *Ring
	nodes map[string]*serve.Client // keyed by node; read-only after NewClient
	logf  func(format string, args ...any)

	mu      sync.Mutex
	suspect map[string]time.Time // node -> when the client last saw it fail

	handoffs     atomic.Int64
	redispatches atomic.Int64
}

// NewClient builds a client over the nodes at urls. A node is its base URL
// with any trailing "/" trimmed, so two clients share a ring only if they
// spell every address the same way. The list is checked before anything
// is sent: it must be non-empty, and every element an http(s) URL with a
// host that no other element names too. logf sinks the client's warnings
// (nil: log.Printf).
func NewClient(urls []string, logf func(format string, args ...any)) (*Client, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if logf == nil {
		logf = log.Printf
	}
	c := &Client{
		nodes:   make(map[string]*serve.Client, len(urls)),
		logf:    logf,
		suspect: map[string]time.Time{},
	}
	ids := make([]string, 0, len(urls))
	for _, raw := range urls {
		id := strings.TrimRight(raw, "/")
		if id == "" {
			return nil, fmt.Errorf("cluster: empty address in %q", strings.Join(urls, ","))
		}
		u, err := url.Parse(id)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err) // names the address
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("cluster: address %q: scheme must be http or https", raw)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("cluster: address %q has no host", raw)
		}
		// A duplicate would take two ring slots, and Successors could then
		// hand a dead node's key straight back to it.
		if _, dup := c.nodes[id]; dup {
			return nil, fmt.Errorf("cluster: address %q listed twice", id)
		}
		c.nodes[id] = serve.NewClient(id)
		ids = append(ids, id)
	}
	c.ring = NewRing(ids)
	return c, nil
}

// Counters reports the client-side handoff tallies.
func (c *Client) Counters() map[string]int64 {
	return map[string]int64{
		"handoffs":     c.handoffs.Load(),
		"redispatches": c.redispatches.Load(),
	}
}

// suspectFor is how long a node that failed a dispatch is skipped before
// the client tries it again.
const suspectFor = 3 * time.Second

// suspectNode marks a node failed so the next dispatches skip it until the
// suspicion window passes.
func (c *Client) suspectNode(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.suspect[node] = time.Now()
}

// isSuspect reports whether a node is inside its suspicion window.
func (c *Client) isSuspect(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.suspect[node]
	if !ok {
		return false
	}
	if time.Since(at) > suspectFor {
		delete(c.suspect, node)
		return false
	}
	return true
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
// node-level failure it suspects the node and re-dispatches to the next
// non-suspect successor with jittered exponential backoff — at-least-once
// delivery whose double-count protection is the target node's fingerprint
// dedup, the same undo-token discipline the simulated NIs use. Per-node
// backpressure (429/503) is absorbed inside serve.Client.Run and never
// triggers a handoff.
func (c *Client) Run(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
	fp := spec.Fingerprint()
	order := c.ring.Successors(fp, c.ring.Len())
	// Every node gets two shots plus three more, so a one-node list still
	// rides out a restart: five attempts.
	maxAttempts := 2*len(order) + 3
	delay := redispatchBase
	var lastNode string
	for attempt := 0; ; attempt++ {
		// First non-suspect node in failover order; if the whole ring is
		// suspected, take the owner anyway — suspicion is a hint, not a
		// verdict.
		target := order[0]
		for _, n := range order {
			if !c.isSuspect(n) {
				target = n
				break
			}
		}

		res, err := c.nodes[target].Run(ctx, spec)
		if err == nil {
			if attempt > 0 {
				c.redispatches.Add(1)
				c.logf("cluster: job %.12s re-dispatched %s -> %s (attempt %d)", fp, lastNode, target, attempt+1)
			}
			return res, nil
		}
		if ctx.Err() != nil || permanent(err) {
			return nil, err
		}

		// Node-level failure: hand the job off.
		lastNode = target
		c.suspectNode(target)
		c.handoffs.Add(1)
		c.logf("cluster: node %s failed job %.12s (%v); handing off", target, fp, err)
		if attempt+1 >= maxAttempts {
			return nil, fmt.Errorf("cluster: job %.12s failed on every candidate after %d attempts: %w", fp, attempt+1, err)
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
