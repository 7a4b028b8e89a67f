// Command rcserved runs the simulation service: an HTTP/JSON server that
// accepts chip.Spec submissions, simulates them on a bounded worker pool
// with the sweep harness's retry/timeout policy, memoizes results in an
// LRU keyed by spec fingerprint, and streams per-window progress over
// server-sent events.
//
// Shutdown is graceful: SIGTERM/SIGINT closes intake, lets in-flight runs
// finish within the grace period (then cancels them), and drains every job
// that never produced a result to the journal; the next rcserved started
// on the same -journal path replays them to completion.
//
// Several rcserved processes form a cluster: one hosts the discovery
// registry (-registry), every node joins it (-join), and clients pointed
// at the registry consistent-hash each spec fingerprint to its owning
// node — so the fleet's result caches partition instead of duplicating,
// and a node that dies mid-sweep is expired by TTL and its jobs
// re-dispatched to the survivors.
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
//	rcserved -addr :8130 -registry -workers 1      # discovery
//	rcserved -addr :8131 -join http://127.0.0.1:8130 -journal n1.journal
//	rcserved -addr :8132 -join http://127.0.0.1:8130 -journal n2.journal
//	rcserved -addr :8133 -join http://127.0.0.1:8130 -journal n3.journal
//	rcsweep -exp fig6 -chip 16 -remote http://127.0.0.1:8130
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
	"strings"
	"syscall"
	"time"

	"reactivenoc/internal/cluster"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/serve"
)

func main() { os.Exit(run()) }

// advertiseFor derives the URL peers reach this process at when -advertise
// is not given: loopback plus the listen port, which is exactly right for
// the local-cluster and CI cases, and wrong (so: set -advertise) for
// multi-host fleets.
func advertiseFor(addr string) string {
	host, port, ok := strings.Cut(addr, ":")
	if !ok {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + host + ":" + port
}

func run() int {
	addr := flag.String("addr", ":8134", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "max queued jobs before submissions get 429 + Retry-After")
	cacheN := flag.Int("cache", 512, "result-cache capacity (entries, LRU)")
	journal := flag.String("journal", "", "journal path: unfinished jobs are drained here on shutdown and replayed on restart")
	retry := flag.Bool("retry", true, "retry failed runs once under the alternate seed")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock cap (0 = none)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight runs before cancellation")
	registry := flag.Bool("registry", false, "host the cluster discovery registry on this server")
	registryTTL := flag.Duration("registry-ttl", cluster.DefaultTTL, "registry heartbeat expiry window")
	join := flag.String("join", "", "cluster registry URL to register this node with")
	nodeID := flag.String("node-id", "", "stable cluster identity (default: the advertise address)")
	advertise := flag.String("advertise", "", "base URL peers and clients reach this node at (default: loopback + listen port)")
	flag.Parse()

	logger := log.New(os.Stderr, "rcserved: ", log.LstdFlags)

	pol := exp.Policy{Retry: *retry, Timeout: *runTimeout}
	srv, err := serve.New(serve.Config{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheN,
		Policy: pol, Journal: *journal, Logf: logger.Printf,
	})
	if err != nil {
		logger.Printf("startup failed: %v", err)
		return 1
	}
	srv.Start()

	handler := srv.Handler()
	var reg *cluster.Registry
	if *registry {
		reg = cluster.NewRegistry(cluster.RegistryConfig{TTL: *registryTTL, Logf: logger.Printf})
		reg.Start()
		// The discovery API and a combined /metrics (serve/ + cluster/
		// scopes) mount in front of the serving mux.
		outer := http.NewServeMux()
		reg.Routes(outer)
		outer.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			serve.WriteMetrics(w, srv.Metrics(), reg.Metrics())
		})
		outer.Handle("/", handler)
		handler = outer
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (workers=%d, queue=%d, cache=%d, journal=%q, registry=%v)",
			*addr, exp.WorkersOr(*workers), *queue, *cacheN, *journal, *registry)
		errCh <- httpSrv.ListenAndServe()
	}()

	var agent *cluster.Agent
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseFor(*addr)
		}
		id := *nodeID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(adv, "http://"), "https://")
		}
		agent = cluster.NewAgent(cluster.AgentConfig{
			Registry: *join,
			Self:     cluster.Node{ID: id, URL: adv},
			Logf:     logger.Printf,
		})
		// A failed initial registration is survivable: every heartbeat is
		// an upsert, so the node joins as soon as the registry answers.
		regCtx, regCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := agent.Register(regCtx); err != nil {
			logger.Printf("initial registration with %s failed (will keep trying): %v", *join, err)
		} else {
			logger.Printf("joined cluster at %s as %s (%s)", *join, id, adv)
		}
		regCancel()
		agent.Start()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		logger.Printf("listener died: %v", err)
		return 1
	case got := <-sig:
		logger.Printf("%v: draining (grace %v)", got, *grace)
	}

	// Leave the cluster first so clients stop routing new jobs here while
	// the drain runs — the explicit teardown, not the TTL one.
	if agent != nil {
		lctx, lcancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := agent.Leave(lctx); err != nil {
			logger.Printf("cluster leave: %v", err)
		}
		lcancel()
	}
	if reg != nil {
		reg.Stop()
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
