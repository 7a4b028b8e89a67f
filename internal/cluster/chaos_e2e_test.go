// In-process chaos tests for the cluster: three real serve.Servers behind
// real listeners, joined to a real discovery registry, driven through the
// same cluster.Client rcsweep -remote uses. These encode the PR's
// acceptance criteria — a node killed mid-sweep (connections severed, no
// deregistration, TTL expiry) costs no results and no duplicates, a
// partitioned registry degrades to stale-view routing instead of stalling
// the sweep, and a queue-full node sheds load with 429s that the client
// absorbs without a handoff.
package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/cluster"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/verify/differ"
)

// quiet discards log output from servers, agents, and clients whose
// goroutines may outlive the test body.
func quiet(string, ...any) {}

// chaosNode is one cluster member: a simulation server, its listener, and
// the heartbeat agent that keeps it registered.
type chaosNode struct {
	id    string
	srv   *serve.Server
	hs    *httptest.Server
	agent *cluster.Agent
	dead  bool
}

// kill simulates SIGKILL: heartbeats stop without a Leave, and every open
// connection is severed — the registry only learns of the death by TTL.
func (n *chaosNode) kill() {
	n.dead = true
	n.agent.Stop()
	n.hs.CloseClientConnections()
	n.hs.Close()
}

// startCluster stands up a registry (with the given TTL) plus n joined
// nodes and registers teardown for all of it.
func startCluster(t *testing.T, ttl time.Duration, n int, nodeCfg serve.Config) (*cluster.Registry, *httptest.Server, []*chaosNode) {
	t.Helper()
	reg := cluster.NewRegistry(cluster.RegistryConfig{TTL: ttl, Logf: quiet})
	reg.Start()
	regHS := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		reg.Stop()
		regHS.Close()
	})

	nodes := make([]*chaosNode, n)
	for i := range nodes {
		cfg := nodeCfg
		cfg.Logf = quiet
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		hs := httptest.NewServer(srv.Handler())
		id := fmt.Sprintf("node-%d", i)
		agent := cluster.NewAgent(cluster.AgentConfig{
			Registry: regHS.URL,
			Self:     cluster.Node{ID: id, URL: hs.URL},
			Interval: ttl / 3,
			Logf:     quiet,
		})
		if err := agent.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		agent.Start()
		node := &chaosNode{id: id, srv: srv, hs: hs, agent: agent}
		t.Cleanup(func() {
			agent.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// A killed node has cancelled in-flight work; its drain error is
			// part of the scenario, not a test failure.
			if err := node.srv.Shutdown(ctx); err != nil && !node.dead {
				t.Errorf("node %s shutdown: %v", node.id, err)
			}
			if !node.dead {
				node.hs.Close()
			}
		})
		nodes[i] = node
	}
	return reg, regHS, nodes
}

// chaosScale keeps the sweep quick but wide enough that cells keep landing
// on a node killed partway through.
func chaosScale() exp.Scale {
	return exp.Scale{MeasureOps: 800, Apps: 3, Seed: 1, Workers: 4}
}

// sweepSpecs reproduces exactly the specs RunSweepCtx submits, so tests can
// reason about the sweep's fingerprint universe.
func sweepSpecs(scale exp.Scale) []chip.Spec {
	var specs []chip.Spec
	for _, v := range config.Variants() {
		for _, w := range scale.Workloads() {
			spec := chip.DefaultSpec(config.Chip16(), v, w)
			spec.MeasureOps = scale.MeasureOps
			spec.Seed = scale.Seed
			specs = append(specs, spec)
		}
	}
	return specs
}

// clusterPolicy plugs the cluster client into the sweep harness the way
// rcsweep -remote does: the nodes own retry, the client owns handoff.
func clusterPolicy(cl *cluster.Client) exp.Policy {
	pol := exp.DefaultPolicy()
	pol.Run = cl.Run
	pol.Retry = false
	return pol
}

// TestClusterKillNodeMidSweep is the headline chaos scenario: a three-node
// cluster loses a node partway through a sweep. The sweep must complete
// with zero failures, every cell bit-identical to a local run, and the
// surviving caches must partition the fingerprint space — pairwise
// disjoint, and (after a second pass re-homes the dead node's keyspace)
// exactly one copy of every fingerprint cluster-wide.
func TestClusterKillNodeMidSweep(t *testing.T) {
	const ttl = 500 * time.Millisecond
	reg, regHS, nodes := startCluster(t, ttl, 3, serve.Config{Workers: 2, QueueDepth: 64, Policy: exp.Policy{Retry: true}})
	scale := chaosScale()

	// The ground truth: the same sweep simulated locally.
	ref := exp.RunSweepCtx(context.Background(), config.Chip16(), config.Variants(), scale, exp.DefaultPolicy())
	if len(ref.Failures) > 0 {
		t.Fatalf("local reference sweep failed: %v", ref.Failures)
	}

	// Kill node-0 once the fleet has demonstrably done work, while most of
	// the sweep is still ahead of it.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			var done int64
			for _, n := range nodes {
				done += n.srv.Metrics().Value("serve/jobs_done")
			}
			if done >= 3 {
				nodes[0].kill()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	cl := cluster.NewClient(regHS.URL, quiet)
	sweep := exp.RunSweepCtx(context.Background(), config.Chip16(), config.Variants(), scale, clusterPolicy(cl))
	<-killed

	if len(sweep.Failures) > 0 {
		t.Fatalf("cluster sweep reported failures despite handoff: %v", sweep.Failures)
	}
	for _, v := range config.Variants() {
		for _, w := range scale.Workloads() {
			got, want := sweep.Res[v.Name][w.Name], ref.Res[v.Name][w.Name]
			if got == nil || want == nil {
				t.Fatalf("missing cell %s/%s (cluster=%v local=%v)", v.Name, w.Name, got != nil, want != nil)
			}
			if err := differ.Diff(want, got, nil); err != nil {
				t.Fatalf("cell %s/%s diverged from local run: %v", v.Name, w.Name, err)
			}
		}
	}

	// The registry saw the death as a TTL expiry (never a graceful leave)
	// and re-homed the dead node's keyspace. Whether any client dispatch
	// actually hit the corpse is a timing race (the expiry may win), so the
	// guaranteed-handoff scenario lives in TestClusterHandoffToSuccessor.
	waitFor(t, 3*ttl, func() bool { return reg.Metrics().Value("cluster/expiries") >= 1 })
	snap := reg.Metrics()
	if snap.Value("cluster/node_down_transitions") < 1 || snap.Value("cluster/leaves") != 0 {
		t.Fatalf("death misclassified: %+v", snap.Vals)
	}
	if snap.Value("cluster/ring_moves") == 0 {
		t.Fatal("membership churn moved no keyspace")
	}

	// Sharding invariant, part 1: the survivors' caches are disjoint — no
	// fingerprint was simulated (or stored) on two live nodes.
	assertDisjointCaches(t, nodes[1:])

	// Part 2: a second pass re-homes the dead node's keyspace onto the
	// survivors (every cell is now a cache hit or a single re-run), after
	// which the live cluster holds exactly one copy of every fingerprint.
	again := exp.RunSweepCtx(context.Background(), config.Chip16(), config.Variants(), scale, clusterPolicy(cl))
	if len(again.Failures) > 0 {
		t.Fatalf("second pass failed: %v", again.Failures)
	}
	holders := map[string]int{}
	for _, n := range nodes[1:] {
		for _, fp := range n.srv.CachedFingerprints() {
			holders[fp]++
		}
	}
	for _, spec := range sweepSpecs(scale) {
		if got := holders[spec.Fingerprint()]; got != 1 {
			t.Fatalf("fingerprint %.12s held by %d live nodes, want exactly 1", spec.Fingerprint(), got)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition never held")
	}
}

// assertDisjointCaches fails if any fingerprint is cached on two nodes.
func assertDisjointCaches(t *testing.T, nodes []*chaosNode) {
	t.Helper()
	seen := map[string]string{}
	for _, n := range nodes {
		for _, fp := range n.srv.CachedFingerprints() {
			if other, dup := seen[fp]; dup {
				t.Fatalf("fingerprint %.12s cached on both %s and %s — sharding broken", fp, other, n.id)
			}
			seen[fp] = n.id
		}
	}
}

// TestClusterHandoffToSuccessor pins the failure-aware handoff itself,
// with the timing race removed: the TTL is a minute, so the registry never
// notices the death and keeps advertising the corpse. A job owned by the
// dead node MUST fail its first dispatch, be handed off, and complete on
// the deterministic ring successor — and the registry's counters must see
// the client's reports.
func TestClusterHandoffToSuccessor(t *testing.T) {
	reg, regHS, nodes := startCluster(t, time.Minute, 2, serve.Config{Workers: 2, QueueDepth: 64, Policy: exp.Policy{Retry: true}})
	ctx := context.Background()

	m, ok := cluster.Probe(ctx, regHS.URL)
	if !ok || len(m.Nodes) != 2 {
		t.Fatalf("probe: ok=%v %+v", ok, m)
	}
	ring := m.Ring(cluster.DefaultVNodes)

	// A spec whose fingerprint is owned by node-0 — the node we will kill.
	var victim chip.Spec
	found := false
	for _, spec := range sweepSpecs(exp.Scale{MeasureOps: 500, Apps: 4, Seed: 1}) {
		if owner, ok := ring.Owner(spec.Fingerprint()); ok && owner.ID == nodes[0].id {
			victim, found = spec, true
			break
		}
	}
	if !found {
		t.Fatal("no spec hashed to node-0 — enlarge the spec pool")
	}

	nodes[0].kill()

	cl := cluster.NewClient(regHS.URL, quiet)
	res, err := cl.Run(ctx, victim)
	if err != nil {
		t.Fatalf("run after owner death: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("handoff returned an empty result")
	}
	counters := cl.Counters()
	if counters["handoffs"] == 0 || counters["redispatches"] == 0 {
		t.Fatalf("dead owner produced no handoff: %+v", counters)
	}
	snap := reg.Metrics()
	if snap.Value("cluster/handoffs") == 0 || snap.Value("cluster/redispatches") == 0 {
		t.Fatalf("client reports never reached the registry: %+v", snap.Vals)
	}
	// The survivor holds the result; bit-identical to a local simulation.
	fps := nodes[1].srv.CachedFingerprints()
	held := false
	for _, fp := range fps {
		if fp == victim.Fingerprint() {
			held = true
		}
	}
	if !held {
		t.Fatalf("successor does not hold the handed-off fingerprint (%d cached)", len(fps))
	}
	local, err := chip.RunCtx(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := differ.Diff(local, res, nil); err != nil {
		t.Fatalf("handed-off result diverged from local run: %v", err)
	}
}

// TestClusterRegistryPartition: the registry vanishing mid-sweep must not
// stall dispatch — the client routes on its last good membership view (the
// established circuits outlive the setup network).
func TestClusterRegistryPartition(t *testing.T) {
	const ttl = 300 * time.Millisecond
	reg, regHS, nodes := startCluster(t, ttl, 2, serve.Config{Workers: 2, QueueDepth: 64, Policy: exp.Policy{Retry: true}})

	cl := cluster.NewClient(regHS.URL, quiet)
	ctx := context.Background()
	warm := sweepSpecs(exp.Scale{MeasureOps: 500, Apps: 2, Seed: 1})
	if _, err := cl.Run(ctx, warm[0]); err != nil {
		t.Fatalf("warmup run: %v", err)
	}

	// Partition: the registry goes away entirely. The expiry sweeper is
	// stopped too, so nothing mutates membership behind the test's back.
	reg.Stop()
	regHS.CloseClientConnections()
	regHS.Close()
	time.Sleep(ttl + 50*time.Millisecond) // force the cached view stale

	for _, spec := range warm[1:4] {
		if _, err := cl.Run(ctx, spec); err != nil {
			t.Fatalf("run during registry partition: %v", err)
		}
	}
	if cl.Counters()["stale_views"] == 0 {
		t.Fatal("partition never exercised the stale-view path")
	}
	assertDisjointCaches(t, nodes)
}

// TestClusterBackpressure429: a queue-full node sheds load with 429 +
// Retry-After; the client's jittered backoff absorbs it — every submission
// completes, none is handed off to another node (backpressure is not
// death).
func TestClusterBackpressure429(t *testing.T) {
	_, regHS, nodes := startCluster(t, time.Minute, 1, serve.Config{Workers: 1, QueueDepth: 1, Policy: exp.Policy{Retry: true}})

	cl := cluster.NewClient(regHS.URL, quiet)
	specs := sweepSpecs(exp.Scale{MeasureOps: 2000, Apps: 2, Seed: 1})[:8]
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec chip.Spec) {
			defer wg.Done()
			_, errs[i] = cl.Run(context.Background(), spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed under backpressure: %v", i, err)
		}
	}
	if nodes[0].srv.Metrics().Value("serve/rejected") == 0 {
		t.Fatal("queue never filled — the scenario did not exercise 429s")
	}
	if cl.Counters()["handoffs"] != 0 {
		t.Fatalf("backpressure was misread as node death: %+v", cl.Counters())
	}
}
