package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/serve"
	"reactivenoc/internal/sim"
)

// serveLoad is serve16: closed-loop clients against an in-process
// rcserved over real HTTP on the loopback interface.
type serveLoad struct{}

const (
	// serveClients closed-loop clients each send their next job only when
	// the previous one has returned; with the server's one worker that
	// keeps this process at the host's two CPUs.
	serveClients = 2
	// serveFreshOf10 of every ten jobs carry a never-seen seed (a cache
	// miss that simulates), at fixed places in the ten so that any stretch
	// of the list holds the same share; the rest repeat a seeded choice
	// among the last serveRecent distinct specs, which fit the server's
	// 512-entry cache.
	serveFreshOf10 = 3
	serveRecent    = 256
	// servePrewarm distinct jobs run through the server during set-up, so
	// the timed section starts with a warm cache and a full repeat pool.
	// They are the same jobs for a given seed: the workload's simulated
	// metrics are taken over them.
	servePrewarm = 128
	// serveVerifyEvery: every n-th job's served result is checked against
	// a local chip.RunCtx of the same spec.
	serveVerifyEvery = 20
)

// jobSource deals the seeded job list: each job is the seed of its spec.
type jobSource struct {
	mu       sync.Mutex
	rng      *sim.RNG
	base     uint64
	distinct []uint64
	dealt    int
}

func newJobSource(o Options) *jobSource {
	return &jobSource{rng: sim.NewRNG(o.Seed), base: o.Seed * 1_000_003}
}

func (j *jobSource) fresh() uint64 {
	s := j.base + uint64(len(j.distinct)) + 1
	j.distinct = append(j.distinct, s)
	return s
}

// next deals the next job's index and spec seed, or reports false once
// limit jobs have been dealt (limit < 0: no limit).
func (j *jobSource) next(limit int) (int, uint64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if limit >= 0 && j.dealt >= limit {
		return 0, 0, false
	}
	idx := j.dealt
	j.dealt++
	if idx < servePrewarm || idx*serveFreshOf10%10 < serveFreshOf10 {
		return idx, j.fresh(), true
	}
	pool := j.distinct
	if len(pool) > serveRecent {
		pool = pool[len(pool)-serveRecent:]
	}
	return idx, pool[j.rng.Intn(len(pool))], true
}

// service is one booted server with its HTTP front and a client.
type service struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	client *serve.Client
}

func bootService() (*service, error) {
	srv, err := serve.New(serve.Config{Workers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, fmt.Errorf("bench: serve16 boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: serve16 listen: %w", err)
	}
	srv.Start()
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = serve.NewClient("http://" + ln.Addr().String())
	return s, nil
}

// stop shuts the HTTP front and the server down and waits for both.
func (s *service) stop(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // serve.Client's connections
	}
	return err
}

// jobRecord is one completed job as a client saw it.
type jobRecord struct {
	idx       int
	seed      uint64
	ms        float64
	simCycles int64
	outcome   string // traced passes: hit, joined or miss
	polls     int
	result    *chip.Results // kept for prewarm and every serveVerifyEvery-th job
}

// runJob is how a client performs one job; the untraced pass uses
// serve.Client.Run, the traced pass its span-recording twin.
type runJob func(ctx context.Context, c *serve.Client, spec chip.Spec, rec *jobRecord) (*chip.Results, error)

func clientRun(ctx context.Context, c *serve.Client, spec chip.Spec, _ *jobRecord) (*chip.Results, error) {
	return c.Run(ctx, spec)
}

// drive runs serveClients closed-loop clients until limit jobs have been
// dealt (limit < 0: until seconds have passed), and returns every job that
// completed.
func (serveLoad) drive(ctx context.Context, o Options, p *Pass, svc *service, jobs *jobSource, run runJob, limit int, seconds float64) []jobRecord {
	start := time.Now()
	var mu sync.Mutex
	var all []jobRecord
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []jobRecord
			for ctx.Err() == nil && (limit >= 0 || time.Since(start).Seconds() < seconds) {
				idx, seed, ok := jobs.next(limit)
				if !ok {
					break
				}
				rec := jobRecord{idx: idx, seed: seed}
				t := time.Now()
				res, err := run(ctx, svc.client, serveSpec(o, seed), &rec)
				rec.ms = float64(time.Since(t)) / 1e6
				mu.Lock()
				p.check(err == nil, "job %d (seed %d): %v", idx, seed, err)
				if err == nil {
					p.check(res.Spec.Seed == seed, "job %d returned the result of seed %d, want %d", idx, res.Spec.Seed, seed)
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				rec.simCycles = res.SimCycles
				if idx < servePrewarm || idx%serveVerifyEvery == 0 {
					rec.result = res
				}
				mine = append(mine, rec)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// setup generates the job list, boots the service and runs the prewarm
// jobs, o.rounds() times; the last round's service is returned running.
func (l serveLoad) setup(ctx context.Context, o Options, p *Pass) (*service, *jobSource, []jobRecord, []float64, error) {
	var setups []float64
	for round := 0; ; round++ {
		t := time.Now()
		jobs := newJobSource(o)
		svc, err := bootService()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		warm := l.drive(ctx, o, p, svc, jobs, clientRun, servePrewarm, 0)
		// Deal order, not completion order: the simulated metrics are a
		// floating-point mean over these and must not depend on scheduling.
		sort.Slice(warm, func(a, b int) bool { return warm[a].idx < warm[b].idx })
		setups = append(setups, time.Since(t).Seconds())
		if round == o.rounds()-1 {
			return svc, jobs, warm, setups, nil
		}
		if err := svc.stop(ctx); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("bench: serve16 stop: %w", err)
		}
	}
}

// verify checks kept served results against local runs of the same spec.
func (serveLoad) verify(ctx context.Context, o Options, p *Pass, recs []jobRecord) {
	local := map[uint64]string{}
	for _, r := range recs {
		if r.result == nil || (r.idx < servePrewarm && r.idx%serveVerifyEvery != 0) {
			continue
		}
		want, ok := local[r.seed]
		if !ok {
			res, err := chip.RunCtx(ctx, serveSpec(o, r.seed))
			if err != nil {
				p.check(false, "local run of seed %d: %v", r.seed, err)
				continue
			}
			want = digest(res)
			local[r.seed] = want
		}
		p.check(digest(r.result) == want, "job %d (seed %d) served %q, local run %q", r.idx, r.seed, digest(r.result), want)
	}
}

// serverCounters scrapes /metrics.
func serverCounters(ctx context.Context, svc *service) (map[string]int64, error) {
	m, err := svc.client.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: serve16 /metrics: %w", err)
	}
	return m, nil
}

func (l serveLoad) untraced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass("serve16", o.Seed, false)
	svc, jobs, warm, setups, err := l.setup(ctx, o, p)
	if err != nil {
		return nil, err
	}
	p.setMedian("setup_s", setups)

	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	recs := l.drive(ctx, o, p, svc, jobs, clientRun, -1, o.Seconds)
	wall := time.Since(start).Seconds()
	alloc := totalAlloc() - alloc0

	m, err := serverCounters(ctx, svc)
	if err != nil {
		return nil, err
	}
	p.check(m["serve/rejected"] == 0, "server rejected %d submissions (429) that no client reported", m["serve/rejected"])
	p.check(m["serve/jobs_failed"] == 0, "server failed %d jobs", m["serve/jobs_failed"])
	if err := svc.stop(ctx); err != nil {
		return nil, fmt.Errorf("bench: serve16 stop: %w", err)
	}
	l.verify(ctx, o, p, append(warm, recs...))
	if len(recs) == 0 || len(warm) != servePrewarm {
		return p, nil
	}

	var ms []float64
	var simCycles int64
	for _, r := range recs {
		ms = append(ms, r.ms)
		simCycles += r.simCycles
	}
	// Job latency is bimodal (hits and misses), so its interquartile
	// spread says nothing about noise and none is recorded.
	p.set("op_ms_p50", median(ms))
	p.Samples["op_ms_p50"] = len(ms)
	p.set("sim_kcycles_per_s", float64(simCycles)/1e3/wall)
	p.set("alloc_mb_per_op", float64(alloc)/1e6/float64(len(recs)))
	var results []*chip.Results
	for _, r := range warm {
		results = append(results, r.result)
	}
	meanSim(results).into(p)
	return p, nil
}

// tracedJob is serve.Client.Run's protocol — submit, poll every 10 ms
// doubling to 250 ms, fetch — through the client's public calls, with a
// span around each step. rejected counts the 429s it waited out.
func tracedJob(log *SpanLog, rejected *atomic.Int64) runJob {
	return func(ctx context.Context, c *serve.Client, spec chip.Spec, rec *jobRecord) (*chip.Results, error) {
		job := log.begin("serve16", "job", 0)
		defer func() { log.endAttr(job, rec.outcome) }()

		sp := log.begin("serve16", "submit", job)
		st, err := c.Submit(ctx, spec)
		for err != nil {
			after, busy := serve.IsBackpressure(err)
			if !busy {
				log.end(sp)
				return nil, err
			}
			rejected.Add(1)
			select {
			case <-ctx.Done():
				log.end(sp)
				return nil, ctx.Err()
			case <-time.After(after):
			}
			st, err = c.Submit(ctx, spec)
		}
		log.end(sp)
		switch {
		case st.Cached:
			rec.outcome = "hit"
		case st.Deduped:
			rec.outcome = "joined"
		default:
			rec.outcome = "miss"
		}

		if !st.State.Terminal() {
			sp = log.begin("serve16", "wait", job)
			interval := 10 * time.Millisecond
			for {
				st, err = c.Job(ctx, st.ID)
				rec.polls++
				if err != nil || st.State.Terminal() {
					break
				}
				select {
				case <-ctx.Done():
					err = ctx.Err()
				case <-time.After(interval):
				}
				if err != nil {
					break
				}
				if interval < 250*time.Millisecond {
					interval *= 2
				}
			}
			log.end(sp)
			if err != nil {
				return nil, err
			}
		}
		if st.State == serve.StateDone && st.Result == nil {
			sp = log.begin("serve16", "fetch", job)
			st, err = c.Job(ctx, st.ID)
			log.end(sp)
			if err != nil {
				return nil, err
			}
		}
		if st.State != serve.StateDone || st.Result == nil {
			return nil, fmt.Errorf("bench: job %s ended %s without a result", st.ID, st.State)
		}
		return st.Result, nil
	}
}

func (l serveLoad) traced(ctx context.Context, o Options) (*Pass, error) {
	p := newPass("serve16", o.Seed, true)
	log := o.spanLog()
	svc, jobs, warm, _, err := l.setup(ctx, o, p)
	if err != nil {
		return nil, err
	}
	before, err := serverCounters(ctx, svc)
	if err != nil {
		return nil, err
	}
	var rejected atomic.Int64
	start := time.Now()
	recs := l.drive(ctx, o, p, svc, jobs, tracedJob(log, &rejected), -1, o.Seconds)
	p.set("serve.jobs_per_s", float64(len(recs))/time.Since(start).Seconds())
	after, err := serverCounters(ctx, svc)
	if err != nil {
		return nil, err
	}
	if err := svc.stop(ctx); err != nil {
		return nil, fmt.Errorf("bench: serve16 stop: %w", err)
	}
	l.verify(ctx, o, p, append(warm, recs...))
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	p.check(delta("serve/rejected") == float64(rejected.Load()), "server counted %v 429s, the clients saw %d", delta("serve/rejected"), rejected.Load())

	var all, hit, miss []float64
	var polls int
	for _, r := range recs {
		all = append(all, r.ms)
		switch r.outcome {
		case "hit":
			hit = append(hit, r.ms)
		case "miss":
			miss = append(miss, r.ms)
			polls += r.polls
		}
	}
	p.setMedian("serve.hit_ms_p50", hit)
	p.setMedian("serve.miss_ms_p50", miss)
	p.set("serve.op_ms_p99", quantile(all, 0.99))
	p.Samples["serve.op_ms_p99"] = len(all)
	if len(miss) > 0 {
		p.set("serve.polls_per_miss", float64(polls)/float64(len(miss)))
	}
	p.set("serve.cache_hit_pct", pct(delta("serve/cache_hits"), delta("serve/cache_hits")+delta("serve/cache_misses")))
	p.set("serve.joined_pct", pct(delta("serve/deduped"), delta("serve/submitted")))
	p.set("serve.rejected_429", float64(rejected.Load()))

	if err := runRigs(ctx, p, o); err != nil {
		return nil, err
	}
	return p, nil
}
