package serve

import (
	"sync"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/sim"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is simulating the spec.
	StateRunning JobState = "running"
	// StateDone: results available (from a run or the cache).
	StateDone JobState = "done"
	// StateFailed: the run (and any retry) died; Error is structured.
	StateFailed JobState = "failed"
	// StateCanceled: shutdown drained the job before it produced a
	// result; it is journaled for replay on restart.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's progress stream, in SSE order. Seq is the
// position in the stream (dense from 0), so a reconnecting client can
// resume after the last event it saw.
type Event struct {
	Seq  int      `json:"seq"`
	Type string   `json:"type"` // queued|started|window|done|failed|canceled
	At   JobState `json:"state"`
	// Window carries the per-SampleEvery metrics delta for "window"
	// events, with At rebased to the measured-phase start.
	Window *sim.Snapshot `json:"window,omitempty"`
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Fingerprint string   `json:"fingerprint"`
	// Cached marks a submission served from the result cache without a
	// simulation; Deduped marks one coalesced onto an in-flight job.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	// Retried reports that the first attempt failed and the policy re-ran
	// the spec under the alternate seed.
	Retried bool `json:"retried,omitempty"`
	// Windows counts progress windows streamed so far.
	Windows int `json:"windows"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	// Error and RetryError are the structured run failures (failed jobs).
	Error      *chip.RunError `json:"error,omitempty"`
	RetryError *chip.RunError `json:"retry_error,omitempty"`
	// Result is attached when the job is done. It stays the last field:
	// writeStatus writes it after the others.
	Result *chip.Results `json:"result,omitempty"`
}

// job is the server-side state of one submission.
type job struct {
	id          string
	fingerprint string
	spec        chip.Spec

	mu        sync.Mutex
	state     JobState
	cached    bool
	retried   bool
	windows   int
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *result
	runErr    *chip.RunError
	retryErr  *chip.RunError

	events  []Event
	changed chan struct{} // closed and replaced on every event append
}

func newJob(id, fp string, spec chip.Spec, now time.Time) *job {
	j := &job{
		id: id, fingerprint: fp, spec: spec,
		state: StateQueued, submitted: now,
		changed: make(chan struct{}),
	}
	j.appendLocked(Event{Type: "queued"})
	return j
}

// appendLocked records an event and wakes every stream follower. Callers
// either hold j.mu or have exclusive access (construction).
func (j *job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.At = j.state
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// transition moves the job to state and appends the matching event.
func (j *job) transition(state JobState, ev Event, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	switch state {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCanceled:
		j.finished = now
	}
	j.appendLocked(ev)
}

// window streams one progress window.
func (j *job) window(w sim.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.windows++
	j.appendLocked(Event{Type: "window", Window: &w})
}

// eventsAfter returns the events past seq plus a channel that closes when
// more arrive.
func (j *job) eventsAfter(seq int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []Event
	if seq < len(j.events) {
		tail = append(tail, j.events[seq:]...)
	}
	return tail, j.changed
}

// status snapshots the wire view without its Results, and returns the
// job's result alongside (nil until the job is done). The HTTP handlers
// write the two through writeStatus; in-process callers set Result.
func (j *job) status() (JobStatus, *result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, State: j.state, Fingerprint: j.fingerprint,
		Cached: j.cached, Retried: j.retried, Windows: j.windows,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Error: j.runErr, RetryError: j.retryErr,
	}, j.result
}
