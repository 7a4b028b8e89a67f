// Package serve turns the one-shot simulation harness into a long-lived
// HTTP/JSON service: rcserved accepts chip.Spec submissions, runs them on
// a bounded worker pool with the same exp.Policy retry/timeout semantics
// the CLI sweeps use, deduplicates and memoizes results through an LRU
// cache keyed by chip.Spec.Fingerprint, and streams per-window progress
// (Spec.SampleEvery metrics deltas) over server-sent events.
//
// Design-space exploration is profiling-run dominated: thousands of
// near-duplicate spec evaluations, which is exactly the workload admission
// control plus result caching wins at. The queue is bounded and applies
// backpressure (429 + Retry-After when full); shutdown is graceful —
// in-flight runs finish or are cancelled through the chip.RunCtx context
// plumbing, and jobs that never produced a result are drained to a journal
// that a restarted server replays.
//
// One wire layer carries all of it. Requests: open builds, sends and
// judges every request (2xx, 429/503 backpressure with Retry-After,
// *StatusError for the rest); call is open plus one sized body read and a
// JSON decode; Client.Submit/Job/Follow/Metrics sit on them. Responses:
// writeJSON (compact — pipe through `jq .` to read), writeError,
// writeMetrics, and writeStatus for a JobStatus, which writes a done job's
// Results as the bytes encoded once for them.
// The cluster package reaches nodes only through Client. Client.Wait
// learns that a job ended the way a browser would: it follows the job's
// event stream to the terminal event and fetches the record once. There is
// no polling path beside it; a stream that breaks is a node that broke,
// and is reported so.
//
// Endpoints:
//
//	POST /v1/jobs             submit a chip.Spec; 202 queued, 200 cached/deduped
//	GET  /v1/jobs/{id}        job status, including the Results when done
//	                          (404 once terminalJobsKept newer jobs have finished)
//	GET  /v1/jobs/{id}/events server-sent events: queued|started|window|done|failed|canceled
//	GET  /v1/cache            cached fingerprints, one per line, sorted
//	GET  /metrics             registry snapshot, text lines in sorted key order
//	GET  /healthz             liveness/readiness (503 while draining)
//	GET  /debug/pprof/        the standard profiling handlers
package serve
