package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the registry's test time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testRegistry(ttl time.Duration) (*Registry, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	g := NewRegistry(RegistryConfig{TTL: ttl, Logf: func(string, ...any) {}, now: clk.now})
	return g, clk
}

// TestRegistryLifecycle: join bumps the epoch and counters, heartbeats
// keep a node alive past its TTL, a missed TTL expires it, and an explicit
// leave is counted separately from an expiry.
func TestRegistryLifecycle(t *testing.T) {
	g, clk := testRegistry(3 * time.Second)

	br, err := g.Beat(Node{ID: "n1", URL: "http://a:1"})
	if err != nil || !br.Joined {
		t.Fatalf("first beat: %+v, %v", br, err)
	}
	if br, _ = g.Beat(Node{ID: "n1", URL: "http://a:1"}); br.Joined {
		t.Fatal("refresh beat reported a join")
	}
	if _, err := g.Beat(Node{ID: "", URL: "x"}); err == nil {
		t.Fatal("anonymous node accepted")
	}
	g.Beat(Node{ID: "n2", URL: "http://b:1"})

	m := g.Membership()
	if len(m.Nodes) != 2 || m.Nodes[0].ID != "n1" || m.Nodes[1].ID != "n2" {
		t.Fatalf("membership: %+v", m.Nodes)
	}
	epoch := m.Epoch

	// Heartbeats inside the TTL keep n1 alive across any span.
	for i := 0; i < 5; i++ {
		clk.advance(2 * time.Second)
		g.Beat(Node{ID: "n1", URL: "http://a:1"})
	}
	g.expire()
	m = g.Membership()
	if len(m.Nodes) != 1 || m.Nodes[0].ID != "n1" {
		t.Fatalf("n2 (silent for 10s) should have expired, n1 (beating) survived: %+v", m.Nodes)
	}
	if m.Epoch == epoch {
		t.Fatal("expiry did not bump the epoch")
	}
	if got := g.Metrics().Value("cluster/expiries"); got != 1 {
		t.Fatalf("cluster/expiries = %d, want 1", got)
	}
	if got := g.Metrics().Value("cluster/node_down_transitions"); got != 1 {
		t.Fatalf("cluster/node_down_transitions = %d, want 1", got)
	}

	g.Leave("n1")
	g.Leave("n1") // unknown id: no-op, no double count
	snap := g.Metrics()
	if snap.Value("cluster/leaves") != 1 || snap.Value("cluster/nodes") != 0 {
		t.Fatalf("leave accounting wrong: leaves=%d nodes=%d",
			snap.Value("cluster/leaves"), snap.Value("cluster/nodes"))
	}
	if snap.Value("cluster/node_down_transitions") != 2 {
		t.Fatalf("down transitions = %d, want expiry+leave = 2", snap.Value("cluster/node_down_transitions"))
	}
	if snap.Value("cluster/node_up_transitions") != 2 {
		t.Fatalf("up transitions = %d, want 2 joins", snap.Value("cluster/node_up_transitions"))
	}
	if snap.Value("cluster/ring_moves") == 0 {
		t.Fatal("membership churn recorded no ring moves")
	}
}

// TestRegistryRelocatedNode: a node that re-registers from a new URL (a
// restart on another port) updates routing and bumps the epoch.
func TestRegistryRelocatedNode(t *testing.T) {
	g, _ := testRegistry(3 * time.Second)
	g.Beat(Node{ID: "n1", URL: "http://a:1"})
	before := g.Membership().Epoch
	g.Beat(Node{ID: "n1", URL: "http://a:2"})
	m := g.Membership()
	if m.Nodes[0].URL != "http://a:2" {
		t.Fatalf("URL not updated: %+v", m.Nodes)
	}
	if m.Epoch == before {
		t.Fatal("relocation did not bump the epoch")
	}
}

// TestRegistryHTTP: the wire surface — register, snapshot, report events,
// leave, scrape — all through a real listener.
func TestRegistryHTTP(t *testing.T) {
	g, _ := testRegistry(time.Minute)
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()
	ctx := context.Background()

	a := NewAgent(AgentConfig{Registry: hs.URL, Self: Node{ID: "n1", URL: "http://a:1"}, Logf: func(string, ...any) {}})
	if err := a.Register(ctx); err != nil {
		t.Fatalf("register: %v", err)
	}

	m, ok := Probe(ctx, hs.URL)
	if !ok || len(m.Nodes) != 1 || m.Nodes[0].ID != "n1" {
		t.Fatalf("probe: ok=%v %+v", ok, m)
	}
	if m.TTLMillis != time.Minute.Milliseconds() {
		t.Fatalf("ttl_ms = %d", m.TTLMillis)
	}

	// Event reports land in the counters.
	c := NewClient(hs.URL, func(string, ...any) {})
	c.report("handoff", "n1", "", "fp")
	c.report("redispatch", "n1", "n2", "fp")
	snap := g.Metrics()
	if snap.Value("cluster/handoffs") != 1 || snap.Value("cluster/redispatches") != 1 {
		t.Fatalf("event counters: %+v", snap.Vals)
	}

	if err := a.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if m := g.Membership(); len(m.Nodes) != 0 {
		t.Fatalf("node still registered after leave: %+v", m.Nodes)
	}

	// /metrics renders the plain-text contract.
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<14)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "cluster/handoffs 1") || !strings.Contains(body, "cluster/nodes 0") {
		t.Fatalf("metrics body:\n%s", body)
	}

	// A non-registry endpoint does not probe as a cluster.
	if _, ok := Probe(ctx, hs.URL+"/metrics"); ok {
		t.Fatal("probe accepted a non-discovery endpoint")
	}
}

// TestAgentHeartbeatsAndCrash: a started agent keeps its node alive across
// several real TTLs; stopping it without Leave (the crash path) lets the
// TTL expire the node.
func TestAgentHeartbeatsAndCrash(t *testing.T) {
	g := NewRegistry(RegistryConfig{TTL: 200 * time.Millisecond, Logf: func(string, ...any) {}})
	g.Start()
	defer g.Stop()
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()

	a := NewAgent(AgentConfig{
		Registry: hs.URL,
		Self:     Node{ID: "n1", URL: "http://a:1"},
		Interval: 50 * time.Millisecond,
		Logf:     func(string, ...any) {},
	})
	if err := a.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Start()

	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if m := g.Membership(); len(m.Nodes) != 1 {
			t.Fatalf("heartbeating node expired: %+v", m.Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if a.Beats() < 5 {
		t.Fatalf("agent sent only %d beats", a.Beats())
	}

	// Crash: heartbeats stop, no deregistration — the registry must learn
	// of the death by TTL, the speculative teardown.
	a.Stop()
	expired := func() bool { return len(g.Membership().Nodes) == 0 }
	deadline = time.Now().Add(2 * time.Second)
	for !expired() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !expired() {
		t.Fatal("crashed node never expired")
	}
	if g.Metrics().Value("cluster/expiries") != 1 {
		t.Fatal("crash was not counted as an expiry")
	}
}
