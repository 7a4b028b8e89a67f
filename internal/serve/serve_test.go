package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/workload"
)

// smallSpec is a fast-but-real run: a 16-core baseline cell over the micro
// workload, a few milliseconds of wall clock.
func smallSpec(seed uint64) chip.Spec {
	v, _ := config.ByName("Baseline")
	spec := chip.DefaultSpec(config.Chip16(), v, workload.Micro())
	spec.WarmupOps = 200
	spec.MeasureOps = 500
	spec.Seed = seed
	return spec
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestCacheLRUEviction: the LRU must evict the least recently used
// fingerprint and count the eviction — and nothing before it is full.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	r := &chip.Results{}
	for _, fp := range []string{"a", "b"} {
		if out, _, _ := c.admit(fp, nil); out != admitNew {
			t.Fatalf("admit(%s) = %v, want new", fp, out)
		}
		c.complete(fp, r)
	}
	if out, _, _ := c.admit("a", nil); out != admitHit { // refresh a
		t.Fatalf("a should be cached")
	}
	if out, _, _ := c.admit("c", nil); out != admitNew {
		t.Fatalf("c should miss")
	}
	c.complete("c", r) // evicts b, the LRU entry
	if out, _, _ := c.admit("b", nil); out != admitNew {
		t.Fatalf("b should have been evicted, admit = %v", out)
	}
	c.release("b")
	if got := c.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := c.size(); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}

	// A cache sized for n results holds n distinct fingerprints, whatever
	// they hash to; the n+1st evicts exactly the oldest.
	const n = 64
	c = newResultCache(n)
	for i := 0; i <= n; i++ {
		if i == n && (c.evictions.Load() != 0 || c.size() != n) {
			t.Fatalf("%d entries in a cache of %d: size %d, %d evicted", n, n, c.size(), c.evictions.Load())
		}
		fp := fmt.Sprintf("fp-%d", i)
		c.admit(fp, nil)
		c.complete(fp, r)
	}
	if out, _, _ := c.admit("fp-0", nil); out != admitNew || c.evictions.Load() != 1 {
		t.Fatalf("entry %d: admit(fp-0) = %v with %d evictions, want the oldest gone and only it", n+1, out, c.evictions.Load())
	}
}

// TestCacheDedupCoalesces: while a fingerprint is in flight, identical
// admissions join it; completion frees the slot.
func TestCacheDedupCoalesces(t *testing.T) {
	c := newResultCache(8)
	owner := &job{id: "j-1"}
	if out, _, _ := c.admit("fp", owner); out != admitNew {
		t.Fatal("first admission must be new")
	}
	out, _, twin := c.admit("fp", &job{id: "j-2"})
	if out != admitJoin || twin != owner {
		t.Fatalf("second admission = %v/%v, want join onto j-1", out, twin)
	}
	c.complete("fp", &chip.Results{})
	if out, res, _ := c.admit("fp", nil); out != admitHit || res == nil {
		t.Fatalf("post-completion admission = %v, want cache hit", out)
	}
}

// TestSubmitBackpressure: a full queue must reject with ErrQueueFull and
// leave no stale in-flight registration behind.
func TestSubmitBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// No Start(): jobs stay queued.
	if _, err := s.Submit(smallSpec(1)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := s.Submit(smallSpec(2))
	if err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if got := s.Metrics().Value("serve/rejected"); got != 1 {
		t.Fatalf("serve/rejected = %d, want 1", got)
	}
	// The rejected fingerprint must be admissible again (no inflight leak).
	if _, _, twin := s.cache.admit(smallSpec(2).Fingerprint(), &job{}); twin != nil {
		t.Fatal("rejected submission left a stale in-flight registration")
	}
}

// TestSubmitValidation: nonsense specs are rejected before queueing — over
// HTTP as a 400 that burns no worker, not a 202 whose job dies in setup.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	spec := smallSpec(1)
	spec.MeasureOps = 0
	if _, err := s.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}

	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	done := s.Metrics().Value("serve/jobs_done")
	spec = smallSpec(1)
	spec.Variant.Opts = core.Options{Mechanism: core.MechFragmented, MaxCircuitsPerPort: 2, Timed: true}
	_, err := NewClient(hs.URL).Submit(context.Background(), spec)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("inconsistent variant over HTTP: err = %v, want a 400 StatusError", err)
	}
	if got := s.Metrics().Value("serve/jobs_done"); got != done || len(s.queue) != 0 {
		t.Fatalf("rejected spec was queued: serve/jobs_done %d -> %d, queue depth %d", done, got, len(s.queue))
	}
}

// TestJobTableBounded: the job table keeps every queued or running job and
// the newest terminalJobsKept finished ones; an older finished id is gone,
// in process and as a 404 over HTTP.
func TestJobTableBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	s.Start()
	long := smallSpec(40)
	long.MeasureOps = 5_000_000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(smallSpec(41)) // behind the only worker
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, _ := s.Job(running.ID); j.status(false).State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the long job never started")
		}
	}

	// Plant one result, then ask for it more often than the table is deep.
	hit := smallSpec(42)
	s.cache.admit(hit.Fingerprint(), nil)
	s.cache.complete(hit.Fingerprint(), &chip.Results{})
	const extra = 50
	var first, last JobStatus
	for i := 0; i < terminalJobsKept+extra; i++ {
		st, err := s.Submit(hit)
		if err != nil || !st.Cached {
			t.Fatalf("submission %d: cached=%v err=%v", i, st.Cached, err)
		}
		if i == 0 {
			first = st
		}
		last = st
	}

	s.jobsMu.Lock()
	terminal := 0
	for _, j := range s.jobs {
		if j.status(false).State.Terminal() {
			terminal++
		}
	}
	s.jobsMu.Unlock()
	if terminal != terminalJobsKept {
		t.Fatalf("%d finished records kept after %d cached submissions, want %d", terminal, terminalJobsKept+extra, terminalJobsKept)
	}
	if _, ok := s.Job(last.ID); !ok {
		t.Fatalf("newest job %s was evicted", last.ID)
	}
	for _, st := range []JobStatus{running, queued} {
		if j, ok := s.Job(st.ID); !ok || j.status(false).State.Terminal() {
			t.Fatalf("unfinished job %s was evicted or finished (found=%v)", st.ID, ok)
		}
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	_, err = NewClient(hs.URL).Job(context.Background(), first.ID)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("evicted job %s over HTTP: err = %v, want a 404 StatusError", first.ID, err)
	}

	// Cancel the long run instead of giving it the cleanup's grace period.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(expired)
}

// TestDedupReturnsSameJob: two concurrent submissions of one spec share a
// single job id and a single simulation.
func TestDedupReturnsSameJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	spec := smallSpec(3)
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Deduped || st2.ID != st1.ID {
		t.Fatalf("duplicate submission got job %q (deduped=%v), want join onto %q", st2.ID, st2.Deduped, st1.ID)
	}
	if got := s.Metrics().Value("serve/deduped"); got != 1 {
		t.Fatalf("serve/deduped = %d, want 1", got)
	}
}

// TestJournalRoundTrip: entries survive the file format, and reading
// consumes the journal.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	in := []journalEntry{
		{ID: "j-1", Spec: smallSpec(1)},
		{ID: "j-9", Spec: smallSpec(2)},
	}
	if err := writeJournal(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID != "j-1" || out[1].ID != "j-9" {
		t.Fatalf("round trip: %+v", out)
	}
	if out[1].Spec.Fingerprint() != in[1].Spec.Fingerprint() {
		t.Fatal("spec fingerprint changed across the journal")
	}
	// Consumed: a second read is empty.
	again, err := readJournal(path, t.Logf)
	if err != nil || len(again) != 0 {
		t.Fatalf("journal not consumed: %v, %v", again, err)
	}
	// Empty write removes the file.
	if err := writeJournal(path, in); err != nil {
		t.Fatal(err)
	}
	if err := writeJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := readJournal(path, t.Logf); got != nil {
		t.Fatalf("empty journal write should remove the file, read %v", got)
	}
}

// TestJournalTornFinalRecord: a crash mid-append leaves a truncated last
// line; replay must skip exactly that record with a warning and keep every
// intact one — losing the whole backlog to one torn write would turn a
// crash into a data loss.
func TestJournalTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	in := []journalEntry{
		{ID: "j-1", Spec: smallSpec(1)},
		{ID: "j-2", Spec: smallSpec(2)},
		{ID: "j-3", Spec: smallSpec(3)},
	}
	if err := writeJournal(path, in); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop the file mid-way through the last line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-1] // drop trailing newline
	cut := bytes.LastIndexByte(body, '\n') + 1 + 10
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []string
	warn := func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) }
	out, err := readJournal(path, warn)
	if err != nil {
		t.Fatalf("torn final record aborted replay: %v", err)
	}
	if len(out) != 2 || out[0].ID != "j-1" || out[1].ID != "j-2" {
		t.Fatalf("intact records lost: %+v", out)
	}
	if len(warned) != 1 || !strings.Contains(warned[0], "torn final record") {
		t.Fatalf("torn record skipped without a warning: %v", warned)
	}

	// A server built over a torn journal replays the intact backlog.
	if err := writeJournal(path, in); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Journal: path, Logf: warn})
	if got := s.Metrics().Value("serve/journal_replayed"); got != 2 {
		t.Fatalf("serve/journal_replayed = %d, want 2", got)
	}

	// Corruption that is NOT the final record is unexplainable by a torn
	// append and must abort.
	if err := writeJournal(path, in); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	lines := bytes.SplitN(raw, []byte("\n"), 2)
	garbled := append(append([]byte(`{"id": garbage`), '\n'), lines[1]...)
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(path, warn); err == nil {
		t.Fatal("corrupt interior record did not abort replay")
	}
}

// TestBackpressureWaitJitterAndBounds: backpressure sleeps grow
// exponentially from the server's hint, stay inside [w/2, 3w/2), cap at
// the bound, and actually jitter — identical waits across workers would
// recreate the lockstep stampede the jitter exists to break.
func TestBackpressureWaitJitterAndBounds(t *testing.T) {
	grown := func(attempt int) time.Duration {
		w := time.Second
		for i := 1; i < attempt && w < backpressureMaxWait; i++ {
			w *= 2
		}
		if w > backpressureMaxWait {
			w = backpressureMaxWait
		}
		return w
	}
	distinct := map[time.Duration]bool{}
	for attempt := 1; attempt <= 8; attempt++ {
		g := grown(attempt)
		for i := 0; i < 64; i++ {
			w := backpressureWait(time.Second, attempt)
			if w < g/2 || w >= g/2+g {
				t.Fatalf("attempt %d: wait %v outside [%v, %v)", attempt, w, g/2, g/2+g)
			}
			if attempt == 1 {
				distinct[w] = true
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatal("backpressure waits do not jitter")
	}
	// A zero/absent hint falls back to one second, never a zero sleep.
	if w := backpressureWait(0, 1); w < 500*time.Millisecond {
		t.Fatalf("zero hint produced %v", w)
	}
}

// TestRunBackpressureCappedByDeadline: a Run against a saturated server
// whose context deadline cannot fit the next backpressure sleep fails
// promptly with the backpressure error instead of sleeping through the
// caller's remaining budget.
func TestRunBackpressureCappedByDeadline(t *testing.T) {
	// Full queue and no workers: every submission answers 429.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	if _, err := s.Submit(smallSpec(31)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Run(ctx, smallSpec(32))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run succeeded against a saturated server")
	}
	if _, ok := IsBackpressure(errors.Unwrap(err)); !ok {
		t.Fatalf("error does not wrap the backpressure cause: %v", err)
	}
	// The server's hint is 1s; the deadline is 250ms. Run must give up as
	// soon as it sees the sleep cannot fit — well before the hint.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Run slept %v past a %v deadline", elapsed, 250*time.Millisecond)
	}
}

// TestPolicyRunRejected: the server is the executor; a policy with a Run
// override is a misconfiguration.
func TestPolicyRunRejected(t *testing.T) {
	_, err := New(Config{Policy: exp.Policy{
		Run: func(context.Context, chip.Spec) (*chip.Results, error) { return nil, nil },
	}})
	if err == nil {
		t.Fatal("New accepted a Policy.Run override")
	}
}
