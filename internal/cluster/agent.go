package cluster

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivenoc/internal/serve"
)

// AgentConfig wires one rcserved node into a cluster.
type AgentConfig struct {
	// Registry is the discovery service's base URL.
	Registry string
	// Self is this node's identity and advertised base URL.
	Self Node
	// Interval is the heartbeat cadence (<= 0: DefaultTTL/3). The first
	// successful beat switches to a third of the registry's actual TTL,
	// so a misconfigured interval cannot silently exceed the expiry
	// window.
	Interval time.Duration
	// Logf sinks warnings (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Agent keeps one node registered: it beats on a timer, re-registers
// transparently after a registry restart (every beat is an upsert), and on
// Leave sends the explicit teardown. Registry outages are survivable by
// design — the node keeps serving, clients keep routing to it from their
// last good membership view, and the next successful beat re-joins it.
type Agent struct {
	cfg AgentConfig
	hc  *http.Client

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	interval atomic.Int64 // nanoseconds, adapted from the registry's TTL

	beats atomic.Int64
}

// NewAgent builds a stopped agent.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultTTL / 3
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	cfg.Registry = strings.TrimRight(cfg.Registry, "/")
	a := &Agent{
		cfg:  cfg,
		hc:   &http.Client{Timeout: 5 * time.Second},
		stop: make(chan struct{}),
	}
	a.interval.Store(int64(cfg.Interval))
	return a
}

// Beats reports how many heartbeats succeeded (for tests and logs).
func (a *Agent) Beats() int64 { return a.beats.Load() }

// beat sends one registration/heartbeat and adapts the cadence to the
// registry's TTL contract.
func (a *Agent) beat(ctx context.Context) error {
	var br beatResponse
	if err := serve.Call(ctx, a.hc, http.MethodPost, a.cfg.Registry+"/v1/nodes", a.cfg.Self, &br); err != nil {
		return fmt.Errorf("cluster: heartbeat: %w", err)
	}
	if iv := time.Duration(br.TTLMillis) * time.Millisecond / 3; iv > 0 {
		a.interval.Store(int64(iv))
	}
	a.beats.Add(1)
	return nil
}

// Register performs the initial registration synchronously, so the caller
// can log a hard failure before taking traffic. A failure here is not
// fatal to Start: the heartbeat loop keeps trying, and the first beat that
// lands registers the node.
func (a *Agent) Register(ctx context.Context) error {
	return a.beat(ctx)
}

// Start arms the heartbeat loop.
func (a *Agent) Start() {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			iv := time.Duration(a.interval.Load())
			select {
			case <-a.stop:
				return
			case <-time.After(iv):
			}
			ctx, cancel := context.WithTimeout(context.Background(), iv)
			if err := a.beat(ctx); err != nil {
				a.cfg.Logf("cluster: heartbeat to %s failed: %v", a.cfg.Registry, err)
			}
			cancel()
		}
	}()
}

// Stop halts heartbeats without deregistering — the crash path (tests use
// it to simulate SIGKILL): the registry only learns of the death when the
// TTL expires.
func (a *Agent) Stop() {
	a.stopped.Do(func() { close(a.stop) })
	a.wg.Wait()
}

// Leave stops heartbeats and deregisters explicitly, so a gracefully
// draining node falls out of routing immediately instead of after a TTL.
func (a *Agent) Leave(ctx context.Context) error {
	a.Stop()
	if err := serve.Call(ctx, a.hc, http.MethodDelete, a.cfg.Registry+"/v1/nodes/"+a.cfg.Self.ID, nil, nil); err != nil {
		return fmt.Errorf("cluster: leave: %w", err)
	}
	return nil
}
