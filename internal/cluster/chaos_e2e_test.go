// In-process chaos tests for the cluster: three real serve.Servers behind
// real listeners, listed statically and driven through the same
// cluster.Client rcsweep -remote uses. A node killed mid-sweep (connections
// severed, listener gone) costs no results and no duplicates, every cell
// comes back to the sweep exactly once, and a queue-full node sheds load
// with 429s that the client absorbs without a handoff.
package cluster_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/cluster"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/serve"
)

// quiet discards log output from servers and clients whose goroutines may
// outlive the test body.
func quiet(string, ...any) {}

// chaosNode is one cluster member: a simulation server and its listener.
type chaosNode struct {
	srv  *serve.Server
	hs   *httptest.Server
	dead bool
}

// kill simulates SIGKILL: every open connection is severed and the
// listener closed, so the next request to the node fails in transport.
func (n *chaosNode) kill() {
	n.dead = true
	n.hs.CloseClientConnections()
	n.hs.Close()
}

// startNodes stands up n nodes and registers their teardown. The returned
// URLs are the cluster's member list.
func startNodes(t *testing.T, n int, nodeCfg serve.Config) ([]*chaosNode, []string) {
	t.Helper()
	nodes := make([]*chaosNode, n)
	urls := make([]string, n)
	for i := range nodes {
		cfg := nodeCfg
		cfg.Logf = quiet
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		node := &chaosNode{srv: srv, hs: httptest.NewServer(srv.Handler())}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// A killed node has cancelled in-flight work; its drain error is
			// part of the scenario, not a test failure.
			if err := node.srv.Shutdown(ctx); err != nil && !node.dead {
				t.Errorf("node %s shutdown: %v", node.hs.URL, err)
			}
			if !node.dead {
				node.hs.Close()
			}
		})
		nodes[i], urls[i] = node, node.hs.URL
	}
	return nodes, urls
}

// newClient builds the cluster client over urls or fails the test.
func newClient(t *testing.T, urls []string) *cluster.Client {
	t.Helper()
	cl, err := cluster.NewClient(urls, quiet)
	if err != nil {
		t.Fatal(err)
	}
	return cl
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
// rcsweep -remote does: the nodes run each cell, the client owns handoff. Run
// is wrapped to tally returns by fingerprint; the returned check requires
// exactly one return per cell of the sweep — none lost, none reported
// twice — and none for anything else.
func clusterPolicy(cl *cluster.Client) (exp.Policy, func(*testing.T, []chip.Spec)) {
	var pol exp.Policy
	var mu sync.Mutex
	returns := map[string]int{}
	pol.Run = func(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
		res, err := cl.Run(ctx, spec)
		mu.Lock()
		returns[spec.Fingerprint()]++
		mu.Unlock()
		return res, err
	}
	return pol, func(t *testing.T, specs []chip.Spec) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, spec := range specs {
			if got := returns[spec.Fingerprint()]; got != 1 {
				t.Fatalf("cell %.12s came back %d times, want exactly 1", spec.Fingerprint(), got)
			}
		}
		if len(returns) != len(specs) {
			t.Fatalf("%d fingerprints came back for %d cells", len(returns), len(specs))
		}
	}
}

// killMidSweep is the headline chaos scenario, shared by the in-process
// and process-level suites: a sweep over the nodes at urls loses node 0 to
// kill once the fleet has done some work, with most of the sweep still
// ahead. The sweep must complete with zero failures, every cell returned
// exactly once and bit-identical to a local run; each survivor must have
// simulated exactly what it caches, and no fingerprint may be cached on two
// survivors. A second pass re-homes the dead node's keyspace (every cell a
// cache hit or a single re-run), after which the survivors hold exactly one
// copy of every fingerprint. Everything is read over HTTP, so both suites
// judge their nodes the same way.
func killMidSweep(t *testing.T, urls []string, kill func()) {
	t.Helper()
	ctx := context.Background()
	scale := chaosScale()
	specs := sweepSpecs(scale)
	ref := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, exp.Policy{})
	if len(ref.Failures) > 0 {
		t.Fatalf("local reference sweep failed: %v", ref.Failures)
	}

	nodes := make([]*serve.Client, len(urls))
	for i, u := range urls {
		nodes[i] = serve.NewClient(u)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			var done int64
			for _, n := range nodes {
				if m, err := n.Metrics(ctx); err == nil {
					done += m["serve/jobs_done"]
				}
			}
			if done >= 3 {
				kill()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	cl := newClient(t, urls)
	pol, exactlyOnce := clusterPolicy(cl)
	sweep := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, pol)
	<-killed
	if len(sweep.Failures) > 0 {
		t.Fatalf("cluster sweep reported failures despite handoff: %v", sweep.Failures)
	}
	t.Logf("first pass: %+v", cl.Counters())
	exactlyOnce(t, specs)
	for _, v := range config.Variants() {
		for _, w := range scale.Workloads() {
			got, want := sweep.Res[v.Name][w.Name], ref.Res[v.Name][w.Name]
			if got == nil || want == nil {
				t.Fatalf("missing cell %s/%s (cluster=%v local=%v)", v.Name, w.Name, got != nil, want != nil)
			}
			if err := chip.Diff(want, got, nil); err != nil {
				t.Fatalf("cell %s/%s diverged from local run: %v", v.Name, w.Name, err)
			}
		}
	}

	survivors := urls[1:]
	holders := map[string]string{}
	for i, u := range survivors {
		m, err := nodes[1+i].Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fps := scrapeCache(t, u)
		if m["serve/runs"] != int64(len(fps)) {
			t.Fatalf("%s ran %d simulations for %d cached fingerprints", u, m["serve/runs"], len(fps))
		}
		for _, fp := range fps {
			if other, dup := holders[fp]; dup {
				t.Fatalf("fingerprint %.12s cached on both %s and %s — sharding broken", fp, other, u)
			}
			holders[fp] = u
		}
	}

	pol, exactlyOnce = clusterPolicy(cl)
	if again := exp.RunSweepCtx(ctx, config.Chip16(), config.Variants(), scale, pol); len(again.Failures) > 0 {
		t.Fatalf("second pass failed: %v", again.Failures)
	}
	exactlyOnce(t, specs)
	copies := map[string]int{}
	for _, u := range survivors {
		for _, fp := range scrapeCache(t, u) {
			copies[fp]++
		}
	}
	for _, spec := range specs {
		if got := copies[spec.Fingerprint()]; got != 1 {
			t.Fatalf("fingerprint %.12s held by %d survivors, want exactly 1", spec.Fingerprint(), got)
		}
	}
}

// scrapeCache reads a node's /v1/cache plain-text fingerprint list.
func scrapeCache(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/cache")
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(body))
}

// TestClusterKillNodeMidSweep runs killMidSweep on three in-process nodes.
func TestClusterKillNodeMidSweep(t *testing.T) {
	nodes, urls := startNodes(t, 3, serve.Config{Workers: 2, QueueDepth: 64})
	killMidSweep(t, urls, nodes[0].kill)
}

// TestClusterHandoffToSuccessor pins the failure-aware handoff itself: a
// job owned by a dead node MUST fail its first dispatch, be handed off,
// and complete on the deterministic ring successor.
func TestClusterHandoffToSuccessor(t *testing.T) {
	nodes, urls := startNodes(t, 2, serve.Config{Workers: 2, QueueDepth: 64})
	ctx := context.Background()
	ring := cluster.NewRing(urls)

	// A spec whose fingerprint is owned by node-0 — the node we will kill.
	var victim chip.Spec
	found := false
	for _, spec := range sweepSpecs(exp.Scale{MeasureOps: 500, Apps: 4, Seed: 1}) {
		if owner, ok := ring.Owner(spec.Fingerprint()); ok && owner == urls[0] {
			victim, found = spec, true
			break
		}
	}
	if !found {
		t.Fatal("no spec hashed to node-0 — enlarge the spec pool")
	}

	nodes[0].kill()

	cl := newClient(t, urls)
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
	if err := chip.Diff(local, res, nil); err != nil {
		t.Fatalf("handed-off result diverged from local run: %v", err)
	}
}

// TestClusterBackpressure429: a queue-full node sheds load with 429 +
// Retry-After; the client's jittered backoff absorbs it — every submission
// completes, none is handed off to another node (backpressure is not
// death).
func TestClusterBackpressure429(t *testing.T) {
	nodes, urls := startNodes(t, 1, serve.Config{Workers: 1, QueueDepth: 1})

	cl := newClient(t, urls)
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
