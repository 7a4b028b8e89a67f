package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/sim"
)

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker-pool size (<= 0 resolves to
	// GOMAXPROCS through the same exp.WorkersOr every sweep uses).
	Workers int
	// QueueDepth bounds admitted-but-unstarted jobs; a full queue rejects
	// submissions with ErrQueueFull (HTTP 429 + Retry-After). <= 0: 256.
	QueueDepth int
	// CacheEntries bounds the result cache (<= 0: 512).
	CacheEntries int
	// RunTimeout is the per-run wall-clock cap (0 = none), applied through
	// the same exp.Policy.RunOne path every sweep cell takes.
	RunTimeout time.Duration
	// Journal, when non-empty, is where shutdown drains jobs that never
	// produced a result, and where New looks for jobs to replay.
	Journal string
	// Logf sinks the server's warnings — torn journal records, replay
	// anomalies (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Sentinel admission errors, mapped to HTTP statuses by the handlers.
var (
	ErrQueueFull   = errors.New("serve: job queue is full")
	ErrDraining    = errors.New("serve: server is shutting down")
	ErrInvalidSpec = errors.New("serve: invalid spec")
)

// terminalJobsKept bounds the finished-job records a server keeps. A job
// that is queued or running is always kept; once it is done, failed or
// canceled it stays addressable until this many newer jobs have finished,
// then its id answers 404. Without the bound a long-lived server grows by
// a record and an event log per request, cache hits included.
const terminalJobsKept = 4096

// Server is the simulation service: admission, dedup, cache, worker pool,
// progress streams, and graceful drain.
type Server struct {
	cfg     Config
	workers int
	cache   *resultCache
	queue   chan *job

	stop       chan struct{} // closed once: workers stop picking jobs
	runCtx     context.Context
	cancelRuns context.CancelFunc
	wg         sync.WaitGroup // simulation workers
	replayWG   sync.WaitGroup // journal-replay feeder
	started    atomic.Bool
	draining   atomic.Bool

	jobsMu   sync.Mutex
	jobs     map[string]*job
	finished []string // ids of terminal jobs still in jobs, oldest first
	nextID   atomic.Int64
	replay   []*job

	pendingMu sync.Mutex
	pending   []journalEntry // canceled in-flight runs awaiting the journal

	startAt time.Time
	reg     *sim.Registry

	submitted    atomic.Int64
	deduped      atomic.Int64
	rejected     atomic.Int64
	runs         atomic.Int64
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	replayed     atomic.Int64
	busy         atomic.Int64
}

// New builds a server and, when the config names a journal, loads and
// consumes it — the journaled jobs are enqueued for replay when Start
// brings the worker pool up.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		cfg:     cfg,
		workers: exp.WorkersOr(cfg.Workers),
		cache:   newResultCache(cfg.CacheEntries),
		stop:    make(chan struct{}),
		jobs:    map[string]*job{},
		startAt: time.Now(),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())

	if cfg.Journal != "" {
		entries, err := readJournal(cfg.Journal, cfg.Logf)
		if err != nil {
			return nil, err
		}
		// The replayed backlog must fit the queue alongside fresh load.
		cfg.QueueDepth += len(entries)
		now := time.Now()
		for _, e := range entries {
			fp := e.Spec.Fingerprint()
			j := newJob(e.ID, fp, e.Spec, now)
			if out, _, _ := s.cache.admit(fp, j); out != admitNew {
				continue // a twin is already replaying
			}
			s.jobs[e.ID] = j
			s.replay = append(s.replay, j)
			s.replayed.Add(1)
			// Resume the id counter past every replayed id.
			if n, err := strconv.ParseInt(strings.TrimPrefix(e.ID, "j-"), 10, 64); err == nil && n > s.nextID.Load() {
				s.nextID.Store(n)
			}
		}
	}
	s.queue = make(chan *job, cfg.QueueDepth)
	s.reg = s.describeMetrics()
	return s, nil
}

// describeMetrics registers the serve/ scope: counters and levels all read
// through atomics, so /metrics snapshots race cleanly with the workers.
func (s *Server) describeMetrics() *sim.Registry {
	reg := sim.NewRegistry()
	reg.Gauge("serve/submitted", s.submitted.Load)
	reg.Gauge("serve/deduped", s.deduped.Load)
	reg.Gauge("serve/rejected", s.rejected.Load)
	reg.Gauge("serve/runs", s.runs.Load)
	reg.Gauge("serve/jobs_done", s.jobsDone.Load)
	reg.Gauge("serve/jobs_failed", s.jobsFailed.Load)
	reg.Gauge("serve/jobs_canceled", s.jobsCanceled.Load)
	reg.Gauge("serve/journal_replayed", s.replayed.Load)
	reg.Gauge("serve/cache_hits", s.cache.hits.Load)
	reg.Gauge("serve/cache_misses", s.cache.misses.Load)
	reg.Gauge("serve/cache_evictions", s.cache.evictions.Load)
	reg.Gauge("serve/cache_size", s.cache.size)
	reg.Gauge("serve/queue_depth", func() int64 { return int64(len(s.queue)) })
	reg.Gauge("serve/workers", func() int64 { return int64(s.workers) })
	reg.Gauge("serve/workers_busy", s.busy.Load)
	reg.Gauge("serve/uptime_seconds", func() int64 { return int64(time.Since(s.startAt).Seconds()) })
	return reg
}

// Metrics snapshots every serve/ metric; At is the server's uptime in
// seconds. Keys() gives the stable sorted order /metrics renders in.
func (s *Server) Metrics() sim.Snapshot {
	return s.reg.Snapshot(int64(time.Since(s.startAt).Seconds()))
}

// Start brings up the worker pool and feeds any journal-replay backlog.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(s.replay) > 0 {
		backlog := s.replay
		s.replay = nil
		s.replayWG.Add(1)
		go func() {
			defer s.replayWG.Done()
			for i, j := range backlog {
				select {
				case s.queue <- j:
				case <-s.stop:
					// Shutdown raced the replay: push the rest straight
					// back to the journal.
					for _, rest := range backlog[i:] {
						s.cancelJob(rest)
					}
					return
				}
			}
		}()
	}
}

func (s *Server) newID() string { return fmt.Sprintf("j-%d", s.nextID.Add(1)) }

// Submit admits one spec. The outcome is decided atomically under the
// cache lock: a cached result completes the job immediately
// (Cached), an identical in-flight job absorbs the submission (Deduped),
// otherwise the job joins the bounded queue — or is rejected with
// ErrQueueFull, which callers should surface as backpressure, not failure.
func (s *Server) Submit(spec chip.Spec) (JobStatus, error) {
	st, r, err := s.submit(spec)
	if r != nil {
		st.Result = r.res
	}
	return st, err
}

// submit is Submit with a cache hit's result returned beside the status,
// so the HTTP handler can write its stored encoding.
func (s *Server) submit(spec chip.Spec) (JobStatus, *result, error) {
	if s.draining.Load() {
		return JobStatus{}, nil, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return JobStatus{}, nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	// Observers are server-side only, and every job runs on the default
	// engine: the engine switches are no part of the fingerprint.
	spec.OnSample, spec.DenseKernel, spec.Variant.Opts.NoPool = nil, false, false
	fp := spec.Fingerprint()
	now := time.Now()
	j := newJob(s.newID(), fp, spec, now)

	// The job is addressable before admit can hand its id to a twin
	// submission that joins it; one that joins or is refused itself is
	// dropped again, its id never having left this call.
	s.register(j)
	outcome, cached, twin := s.cache.admit(fp, j)
	switch outcome {
	case admitHit:
		return s.answerHit(j, cached), cached, nil

	case admitJoin:
		s.unregister(j)
		s.submitted.Add(1)
		s.deduped.Add(1)
		st, _ := twin.status()
		st.Deduped = true
		return st, nil, nil

	default:
		select {
		case s.queue <- j:
		default:
			s.cache.release(fp)
			s.unregister(j)
			s.rejected.Add(1)
			return JobStatus{}, nil, ErrQueueFull
		}
		s.submitted.Add(1)
		st, _ := j.status()
		return st, nil, nil
	}
}

// answerHit completes a registered job from the cached result r.
func (s *Server) answerHit(j *job, r *result) JobStatus {
	j.mu.Lock()
	j.cached = true
	j.result = r
	j.mu.Unlock()
	s.finish(j, StateDone)
	s.submitted.Add(1)
	st, _ := j.status()
	return st
}

// hitByBytes answers a submission body from the result cache without
// decoding it. A Client's body is {"spec":X} with X = json.Marshal(spec),
// and a fingerprint is the hash of those same canonical bytes, so when the
// body has exactly that framing and the cache holds the hash of X, X is
// the encoding of the spec whose result is cached — a spec validated when
// it was admitted. ok is false for every other body and every fingerprint
// not in the cache; the caller then decodes the body and admits it through
// submit, which also answers a draining server's 503.
func (s *Server) hitByBytes(body []byte) (JobStatus, *result, bool) {
	x, framed := bytes.CutPrefix(body, []byte(`{"spec":`))
	x, closed := bytes.CutSuffix(x, []byte(`}`))
	if !framed || !closed || s.draining.Load() {
		return JobStatus{}, nil, false
	}
	fp := chip.FingerprintOf(x)
	cached := s.cache.hit(fp)
	if cached == nil {
		return JobStatus{}, nil, false
	}
	j := newJob(s.newID(), fp, cached.res.Spec, time.Now())
	s.register(j)
	return s.answerHit(j, cached), cached, true
}

func (s *Server) register(j *job) {
	s.jobsMu.Lock()
	s.jobs[j.id] = j
	s.jobsMu.Unlock()
}

func (s *Server) unregister(j *job) {
	s.jobsMu.Lock()
	delete(s.jobs, j.id)
	s.jobsMu.Unlock()
}

// finish moves a job to its terminal state and queues its record behind
// the other finished ones, dropping the oldest beyond terminalJobsKept.
func (s *Server) finish(j *job, state JobState) {
	j.transition(state, Event{Type: string(state)}, time.Now())
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.finished = append(s.finished, j.id)
	if len(s.finished) > terminalJobsKept {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// CachedFingerprints lists every fingerprint in the result cache, sorted.
// This is the cluster-consistency probe: the chaos suites union it across
// nodes to assert the fleet holds exactly one copy of each result.
func (s *Server) CachedFingerprints() []string { return s.cache.fingerprints() }

// Job returns a tracked job by id.
func (s *Server) Job(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Checked alone first so a closed stop always wins over a ready
		// queue — shutdown must drain queued jobs to the journal, not
		// race workers for them.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job through the policy path shared with the CLI
// sweeps: timeout decoration and structured failures. The result is the
// run of exactly the spec the job is filed under. Every progress window the simulation records is appended to
// the job's event stream as it closes. The worker is counted idle and the
// job counted done, failed or cancelled before finish wakes its waiters,
// so a client that reads the metrics when its job ends sees it counted.
func (s *Server) runJob(j *job) {
	s.busy.Add(1)
	j.transition(StateRunning, Event{Type: "started"}, time.Now())

	spec := j.spec
	spec.OnSample = j.window
	s.runs.Add(1)
	res, rep := exp.Policy{Timeout: s.cfg.RunTimeout}.RunOne(s.runCtx, spec)
	s.busy.Add(-1)

	switch {
	case res != nil:
		// RunTimeout capped the run's wall clock, not its simulation: the
		// result is filed as the run of the spec that was submitted.
		res.Spec = j.spec
		r := &result{res: res}
		j.mu.Lock()
		j.result = r
		j.mu.Unlock()
		s.cache.complete(j.fingerprint, r)
		s.jobsDone.Add(1)
		s.finish(j, StateDone)

	case s.runCtx.Err() != nil:
		// Shutdown cancelled the run mid-flight: the job goes back to the
		// journal so a restarted server finishes it.
		s.cancelJob(j)

	default:
		j.mu.Lock()
		j.runErr = rep.Err
		j.mu.Unlock()
		s.cache.release(j.fingerprint)
		s.jobsFailed.Add(1)
		s.finish(j, StateFailed)
	}
}

// cancelJob marks a job cancelled and queues it for the journal.
func (s *Server) cancelJob(j *job) {
	s.cache.release(j.fingerprint)
	s.jobsCanceled.Add(1)
	s.finish(j, StateCanceled)
	s.pendingMu.Lock()
	s.pending = append(s.pending, journalEntry{ID: j.id, Spec: j.spec})
	s.pendingMu.Unlock()
}

// Draining reports whether shutdown has begun (healthz turns 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the service: intake closes (submissions get
// ErrDraining), workers stop picking jobs, queued jobs are journaled, and
// in-flight runs get until ctx expires to finish before being cancelled
// through the chip.RunCtx context plumbing — cancelled runs are journaled
// too. With a journal configured, everything drained is replayed by the
// next server that starts on the same path.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.replayWG.Wait()

	// Jobs still queued never started: straight to the journal.
drain:
	for {
		select {
		case j := <-s.queue:
			s.cancelJob(j)
		default:
			break drain
		}
	}

	// In-flight runs: finish within the grace period or get cancelled.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRuns()
		<-done
	}

	s.pendingMu.Lock()
	pending := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	if s.cfg.Journal != "" {
		return writeJournal(s.cfg.Journal, pending)
	}
	if len(pending) > 0 {
		return fmt.Errorf("serve: %d unfinished jobs lost (no journal configured)", len(pending))
	}
	return nil
}
