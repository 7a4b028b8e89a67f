// End-to-end tests for the simulation service: a real Server behind a real
// HTTP listener, driven through the same Client rcsweep -remote uses. These
// encode the PR's acceptance criteria — duplicate submissions are served
// from the cache without a second simulation, shutdown journals unfinished
// jobs and a restarted server replays them, and a fault-injected run is
// retried per policy and surfaces as a structured error rather than a
// server crash.
package serve_test

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/workload"
)

func quickSpec(t *testing.T, variant string, seed uint64) chip.Spec {
	t.Helper()
	v, ok := config.ByName(variant)
	if !ok {
		t.Fatalf("unknown variant %s", variant)
	}
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	spec.WarmupOps = 200
	spec.MeasureOps = 500
	spec.Seed = seed
	return spec
}

// testService stands up a Server behind httptest and tears both down.
func testService(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return srv, serve.NewClient(hs.URL)
}

// TestE2ECacheHitSkipsSimulation: the duplicate of a completed spec is
// served from the cache — serve/cache_hits increments and serve/runs does
// not, proving no worker touched it.
func TestE2ECacheHitSkipsSimulation(t *testing.T) {
	_, cl := testService(t, serve.Config{Workers: 2})
	ctx := context.Background()
	spec := quickSpec(t, "Complete_NoAck", 1)

	res, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("first run measured nothing")
	}
	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if !st.Cached || st.State != serve.StateDone {
		t.Fatalf("duplicate submission not served from cache: %+v", st)
	}
	if st.Result == nil || st.Result.Cycles != res.Cycles {
		t.Fatal("cached submission carries no (or different) results")
	}

	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after["serve/runs"] != before["serve/runs"] {
		t.Fatalf("cache hit burned a worker: runs %d -> %d",
			before["serve/runs"], after["serve/runs"])
	}
	if after["serve/cache_hits"] != before["serve/cache_hits"]+1 {
		t.Fatalf("serve/cache_hits %d -> %d, want +1",
			before["serve/cache_hits"], after["serve/cache_hits"])
	}
}

// TestE2ERunWireFootprint: what one Client.Run costs on the wire. A miss is
// one submission, one event stream followed to its terminal event and one
// fetch of the finished record — no polling; a hit is the submission alone.
func TestE2ERunWireFootprint(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	var mu sync.Mutex
	seen := map[string]int{}
	inner := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	cl := serve.NewClient(hs.URL)
	spec := quickSpec(t, "Complete_NoAck", 3)

	for _, tc := range []struct {
		name string
		want map[string]int
	}{
		{"miss", map[string]int{"POST /v1/jobs": 1, "GET /v1/jobs/j-1/events": 1, "GET /v1/jobs/j-1": 1}},
		{"hit", map[string]int{"POST /v1/jobs": 1}},
	} {
		if _, err := cl.Run(context.Background(), spec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		got := seen
		seen = map[string]int{}
		mu.Unlock()
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("a %s cost %v on the wire, want %v", tc.name, got, tc.want)
		}
	}
}

// TestE2EJournalReplay: shutdown with queued jobs writes them to the
// journal; a new server on the same path replays them to completion under
// their original ids.
func TestE2EJournalReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "rcserved.journal")

	// First server: accept jobs but never start workers, so both stay
	// queued — the SIGTERM-with-queued-jobs scenario.
	s1, err := serve.New(serve.Config{Workers: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	specs := []chip.Spec{quickSpec(t, "Baseline", 11), quickSpec(t, "Complete_NoAck", 11)}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("shutdown left no journal: %v", err)
	}

	// Second server on the same journal path replays the backlog.
	_, cl := testService(t, serve.Config{Workers: 2, Journal: journal})
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m["serve/journal_replayed"] != int64(len(ids)) {
		t.Fatalf("serve/journal_replayed = %d, want %d", m["serve/journal_replayed"], len(ids))
	}
	for _, id := range ids {
		st, err := cl.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("replayed job %s finished %s (%v)", id, st.State, st.Error)
		}
	}
	// The journal was consumed: a third server sees nothing to replay.
	if entriesLeft, _ := os.ReadFile(journal); len(entriesLeft) != 0 {
		t.Fatalf("journal not consumed after replay: %q", entriesLeft)
	}
}

// TestE2EFaultRetrySurfacesStructuredError: a deterministically failing
// run (stalled link caught by the watchdog, both seeds) is retried per the
// policy and lands as a structured job error; the server keeps serving.
func TestE2EFaultRetrySurfacesStructuredError(t *testing.T) {
	_, cl := testService(t, serve.Config{Workers: 2, Policy: exp.Policy{Retry: true}})
	ctx := context.Background()

	spec := quickSpec(t, "Complete_NoAck", 1)
	spec.WarmupOps = 1000
	spec.MeasureOps = 3000
	spec.Audit = true
	spec.Fault = &fault.Plan{Class: fault.StallLink, After: 2000}
	spec.WatchdogStall = 3000

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != serve.StateFailed {
		t.Fatalf("fault-injected job finished %s, want failed", st.State)
	}
	if !st.Retried {
		t.Fatal("failed job was not retried under the alternate seed")
	}
	if st.Error == nil || st.Error.Phase == "" || st.Error.Msg == "" {
		t.Fatalf("failure is not a structured run error: %+v", st.Error)
	}
	if st.RetryError == nil {
		t.Fatal("retry outcome missing from the job status")
	}

	// The client path surfaces the same structured error type.
	if _, err := cl.Run(ctx, spec); err == nil {
		t.Fatal("Run returned no error for a failed job")
	} else if re := chip.AsRunError(err); re == nil {
		t.Fatalf("Run error is not a *chip.RunError: %v", err)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["serve/jobs_failed"] == 0 || m["serve/jobs_retried"] == 0 {
		t.Fatalf("failure metrics not recorded: %v", m)
	}

	// Not a crash: a healthy spec still runs to completion.
	if res, err := cl.Run(ctx, quickSpec(t, "Baseline", 2)); err != nil || res == nil {
		t.Fatalf("server unhealthy after fault-injected failure: %v", err)
	}
}

// TestE2EEventStreamOrder: the SSE stream for a sampled run is
// queued → started → window… → done, and the stream closes itself after
// the terminal event.
func TestE2EEventStreamOrder(t *testing.T) {
	srv, cl := testService(t, serve.Config{Workers: 1})
	ctx := context.Background()

	spec := quickSpec(t, "Complete_NoAck", 7)
	spec.SampleEvery = 200

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// Stream the full history; the handler terminates after "done".
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(types) < 4 {
		t.Fatalf("event stream too short: %v", types)
	}
	if types[0] != "queued" || types[1] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("stream order wrong: %v", types)
	}
	windows := 0
	for _, ty := range types[2 : len(types)-1] {
		if ty != "window" {
			t.Fatalf("unexpected mid-stream event %q in %v", ty, types)
		}
		windows++
	}
	if windows == 0 {
		t.Fatalf("sampled run streamed no windows: %v", types)
	}

	// Resume cursor: ?after= replays only the tail.
	resp2, err := hs.Client().Get(hs.URL + "/v1/jobs/" + st.ID + "/events?after=" +
		strconv.Itoa(len(types)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail []string
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		if ev, ok := strings.CutPrefix(sc2.Text(), "event: "); ok {
			tail = append(tail, ev)
		}
	}
	if len(tail) != 1 || tail[0] != "done" {
		t.Fatalf("after-cursor resume streamed %v, want [done]", tail)
	}
}

// TestE2EBackpressureHTTP: a full queue answers 429 with Retry-After, and
// the client Run absorbs it rather than failing the sweep cell.
func TestE2EBackpressureHTTP(t *testing.T) {
	// One worker, depth-1 queue, and no worker draining it yet — submit
	// three distinct specs fast enough that one lands on a full queue.
	srv, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := serve.NewClient(hs.URL)
	ctx := context.Background()

	if _, err := cl.Submit(ctx, quickSpec(t, "Baseline", 21)); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, quickSpec(t, "Baseline", 22))
	if err == nil {
		t.Fatal("overflow submission was not rejected")
	}
	if !strings.Contains(err.Error(), "retry after") {
		t.Fatalf("overflow error is not backpressure-shaped: %v", err)
	}

	// Start the pool: the queued job completes and Run rides out the 429.
	srv.Start()
	if _, err := cl.Run(ctx, quickSpec(t, "Baseline", 22)); err != nil {
		t.Fatalf("Run did not absorb backpressure: %v", err)
	}
	ctx2, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx2); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
