// Command rcserved runs the simulation service: an HTTP/JSON server that
// accepts chip.Spec submissions, simulates them on a bounded worker pool
// through the sweep harness's run path, memoizes results in an
// LRU keyed by spec fingerprint, and streams per-window progress over
// server-sent events.
//
// Shutdown is graceful: SIGTERM/SIGINT closes intake, lets in-flight runs
// finish within the grace period (then cancels them), and drains every job
// that never produced a result to the journal; the next rcserved started
// on the same -journal path replays them to completion.
//
// Several rcserved processes form a cluster with no configuration on the
// nodes: a node serves whatever it is sent. The client holds the list
// (rcsweep -remote a,b,c) and consistent-hashes each spec fingerprint to
// its owning node, so the fleet's result caches partition instead of
// duplicating, and the jobs of a node that dies mid-sweep are re-dispatched
// to the survivors by the client that saw the request fail.
//
// Usage:
//
//	rcserved                          # listen on :8134, GOMAXPROCS workers
//	rcserved -addr :9000 -workers 4   # explicit socket and pool size
//	rcserved -journal rcserved.journal
//	rcserved -cache 1024 -queue 512   # admission-control sizing
//
// A three-node local cluster (see README "Running a cluster"):
//
//	rcserved -addr :8131 -journal n1.journal
//	rcserved -addr :8132 -journal n2.journal
//	rcserved -addr :8133 -journal n3.journal
//	rcsweep -exp fig6 -chip 16 -remote http://127.0.0.1:8131,http://127.0.0.1:8132,http://127.0.0.1:8133
//
// Submit a run (see README "Running as a service" for a full example):
//
//	curl -s localhost:8134/v1/jobs -d @spec.json
//	curl -N localhost:8134/v1/jobs/j-1/events
//	curl -s localhost:8134/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reactivenoc/internal/exp"
	"reactivenoc/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8134", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "max queued jobs before submissions get 429 + Retry-After")
	cacheN := flag.Int("cache", 512, "result-cache capacity (entries, LRU)")
	journal := flag.String("journal", "", "journal path: unfinished jobs are drained here on shutdown and replayed on restart")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock cap (0 = none)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight runs before cancellation")
	flag.Parse()

	logger := log.New(os.Stderr, "rcserved: ", log.LstdFlags)

	srv, err := serve.New(serve.Config{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheN,
		RunTimeout: *runTimeout, Journal: *journal, Logf: logger.Printf,
	})
	if err != nil {
		logger.Printf("startup failed: %v", err)
		return 1
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (workers=%d, queue=%d, cache=%d, journal=%q)",
			*addr, exp.WorkersOr(*workers), *queue, *cacheN, *journal)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		logger.Printf("listener died: %v", err)
		return 1
	case got := <-sig:
		logger.Printf("%v: draining (grace %v)", got, *grace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
		code = 1
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	snap := srv.Metrics()
	logger.Printf("drained: %s", fmt.Sprintf(
		"runs=%d done=%d failed=%d canceled=%d cache_hits=%d",
		snap.Value("serve/runs"), snap.Value("serve/jobs_done"),
		snap.Value("serve/jobs_failed"), snap.Value("serve/jobs_canceled"),
		snap.Value("serve/cache_hits")))
	return code
}
