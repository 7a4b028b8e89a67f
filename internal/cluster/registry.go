package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/serve"
	"reactivenoc/internal/sim"
)

// DefaultTTL is how long a node survives without a heartbeat before the
// registry expires it. Three one-second heartbeats fit inside it, so a
// single dropped beat never declares a node dead.
const DefaultTTL = 3 * time.Second

// RegistryConfig sizes the discovery service.
type RegistryConfig struct {
	// TTL is the heartbeat expiry window (<= 0: DefaultTTL).
	TTL time.Duration
	// Logf sinks warnings (nil: log.Printf).
	Logf func(format string, args ...any)

	// now is the test seam for TTL expiry.
	now func() time.Time
}

// member is one registered node.
type member struct {
	Node
	joined   time.Time
	lastBeat time.Time
}

// Membership is the wire representation of the live node set. Epoch bumps
// on every join, leave, and expiry, so clients can cheaply detect change.
type Membership struct {
	Epoch     int64  `json:"epoch"`
	TTLMillis int64  `json:"ttl_ms"`
	Nodes     []Node `json:"nodes"`
}

// Ring builds the membership's consistent-hash ring; every process that
// sees the same epoch routes fingerprints identically.
func (m Membership) Ring(vnodes int) *Ring { return NewRing(m.Nodes, vnodes) }

// beatResponse acknowledges a registration/heartbeat — the "ack" of the
// node's setup — carrying the expiry contract back to the agent.
type beatResponse struct {
	Epoch     int64 `json:"epoch"`
	TTLMillis int64 `json:"ttl_ms"`
	// Joined reports whether this beat registered a new node (vs
	// refreshing a live one).
	Joined bool `json:"joined"`
}

// clusterEvent is a client- or node-reported incident the registry counts:
// "handoff" when a client abandons a dead node mid-job, "redispatch" when
// the job lands on a surviving node.
type clusterEvent struct {
	Type        string `json:"type"`
	From        string `json:"from,omitempty"`
	To          string `json:"to,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Registry is the discovery service: node registration with TTL expiry,
// membership snapshots with epochs, and cluster-level counters.
type Registry struct {
	cfg RegistryConfig

	mu      sync.Mutex
	members map[string]*member
	ring    *Ring

	epoch   atomic.Int64
	startAt time.Time
	reg     *sim.Registry
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	joins        atomic.Int64
	leaves       atomic.Int64
	expiries     atomic.Int64
	heartbeats   atomic.Int64
	handoffs     atomic.Int64
	redispatches atomic.Int64
	ringMoves    atomic.Int64
}

// NewRegistry builds a stopped registry; Start arms the expiry sweeper.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	g := &Registry{
		cfg:     cfg,
		members: map[string]*member{},
		ring:    NewRing(nil, DefaultVNodes),
		startAt: cfg.now(),
		stop:    make(chan struct{}),
	}
	g.reg = g.describeMetrics()
	return g
}

// describeMetrics registers the cluster/ scope. Everything reads through
// atomics or takes the membership lock briefly, so scrapes race cleanly
// with heartbeats.
func (g *Registry) describeMetrics() *sim.Registry {
	reg := sim.NewRegistry()
	reg.Gauge("cluster/nodes", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(len(g.members))
	})
	reg.Gauge("cluster/epoch", g.epoch.Load)
	reg.Gauge("cluster/node_up_transitions", g.joins.Load)
	reg.Gauge("cluster/node_down_transitions", func() int64 { return g.leaves.Load() + g.expiries.Load() })
	reg.Gauge("cluster/leaves", g.leaves.Load)
	reg.Gauge("cluster/expiries", g.expiries.Load)
	reg.Gauge("cluster/heartbeats", g.heartbeats.Load)
	reg.Gauge("cluster/handoffs", g.handoffs.Load)
	reg.Gauge("cluster/redispatches", g.redispatches.Load)
	reg.Gauge("cluster/ring_moves", g.ringMoves.Load)
	reg.Gauge("cluster/uptime_seconds", func() int64 { return int64(g.cfg.now().Sub(g.startAt).Seconds()) })
	return reg
}

// Metrics snapshots the cluster/ scope.
func (g *Registry) Metrics() sim.Snapshot {
	return g.reg.Snapshot(int64(g.cfg.now().Sub(g.startAt).Seconds()))
}

// Start arms the background expiry sweeper (TTL/2 cadence, so a dead node
// is expelled between one and one-and-a-half TTLs after its last beat).
func (g *Registry) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.TTL / 2)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.expire()
			}
		}
	}()
}

// Stop halts the sweeper. Registered nodes are left as-is.
func (g *Registry) Stop() {
	g.stopped.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// rebuildLocked recomputes the ring and counts keyspace churn. Callers
// hold g.mu and have already mutated g.members.
func (g *Registry) rebuildLocked() {
	nodes := make([]Node, 0, len(g.members))
	for _, m := range g.members {
		nodes = append(nodes, m.Node)
	}
	next := NewRing(nodes, DefaultVNodes)
	g.ringMoves.Add(int64(MovedShare(g.ring, next)))
	g.ring = next
	g.epoch.Add(1)
}

// Beat registers or refreshes a node. A new ID (or a known ID advertising
// a new URL — a node restarted on a different port) joins the ring; a live
// one just pushes its expiry out.
func (g *Registry) Beat(n Node) (beatResponse, error) {
	if n.ID == "" || n.URL == "" {
		return beatResponse{}, fmt.Errorf("cluster: node id and url are required")
	}
	now := g.cfg.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.heartbeats.Add(1)
	joined := false
	m, ok := g.members[n.ID]
	switch {
	case !ok:
		g.members[n.ID] = &member{Node: n, joined: now, lastBeat: now}
		g.joins.Add(1)
		g.rebuildLocked()
		joined = true
		g.cfg.Logf("cluster: node %s joined at %s (%d live)", n.ID, n.URL, len(g.members))
	case m.URL != n.URL:
		m.URL = n.URL
		m.lastBeat = now
		g.rebuildLocked()
		g.cfg.Logf("cluster: node %s moved to %s", n.ID, n.URL)
	default:
		m.lastBeat = now
	}
	return beatResponse{Epoch: g.epoch.Load(), TTLMillis: g.cfg.TTL.Milliseconds(), Joined: joined}, nil
}

// Leave deregisters a node — the graceful teardown, vs TTL expiry's
// speculative one. Unknown IDs are a no-op.
func (g *Registry) Leave(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[id]; !ok {
		return
	}
	delete(g.members, id)
	g.leaves.Add(1)
	g.rebuildLocked()
	g.cfg.Logf("cluster: node %s left (%d live)", id, len(g.members))
}

// expire expels every member whose last beat is older than the TTL.
func (g *Registry) expire() {
	now := g.cfg.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	changed := false
	for id, m := range g.members {
		if now.Sub(m.lastBeat) > g.cfg.TTL {
			delete(g.members, id)
			g.expiries.Add(1)
			changed = true
			g.cfg.Logf("cluster: node %s expired (last beat %v ago)", id, now.Sub(m.lastBeat).Round(time.Millisecond))
		}
	}
	if changed {
		g.rebuildLocked()
	}
}

// Membership snapshots the live node set. Expiry runs first, so a reader
// polling faster than the sweeper still never sees a node past its TTL.
func (g *Registry) Membership() Membership {
	g.expire()
	g.mu.Lock()
	defer g.mu.Unlock()
	nodes := make([]Node, 0, len(g.members))
	for _, m := range g.members {
		nodes = append(nodes, m.Node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return Membership{Epoch: g.epoch.Load(), TTLMillis: g.cfg.TTL.Milliseconds(), Nodes: nodes}
}

// Record counts a reported cluster event.
func (g *Registry) Record(ev clusterEvent) {
	switch ev.Type {
	case "handoff":
		g.handoffs.Add(1)
	case "redispatch":
		g.redispatches.Add(1)
	}
}

// Routes mounts the registry's API onto mux — the embeddable surface
// (rcserved -registry shares its mux between serving and discovery).
//
//	POST   /v1/nodes             register / heartbeat {id, url}
//	GET    /v1/nodes             membership snapshot (the cluster probe)
//	DELETE /v1/nodes/{id}        graceful leave
//	POST   /v1/cluster/events    handoff / re-dispatch reports
func (g *Registry) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		var n Node
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&n); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad node: "+err.Error())
			return
		}
		resp, err := g.Beat(n)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, g.Membership())
	})
	mux.HandleFunc("DELETE /v1/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.Leave(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/cluster/events", func(w http.ResponseWriter, r *http.Request) {
		var ev clusterEvent
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&ev); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad event: "+err.Error())
			return
		}
		g.Record(ev)
		w.WriteHeader(http.StatusNoContent)
	})
}

// Handler returns a standalone HTTP surface: the Routes API plus /metrics
// and /healthz, for running the registry as its own small process.
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	g.Routes(mux)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteMetrics(w, g.Metrics())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "registry"})
	})
	return mux
}
