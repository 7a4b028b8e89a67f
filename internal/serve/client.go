package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"reactivenoc/internal/chip"
)

// specEnvelope is the submission body: the spec rides under one key so the
// wire format has room to grow (priorities, callbacks) without breaking
// old clients.
type specEnvelope struct {
	Spec chip.Spec `json:"spec"`
}

// Client talks to an rcserved instance. Its Run method has the same shape
// as chip.RunCtx, so it plugs straight into exp.Policy.Run and turns every
// existing sweep into a service client.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server base URL ("http://host:port").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// retryAfterError reports server backpressure (429/503) and how long the
// server asked us to back off.
type retryAfterError struct {
	status int
	after  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("serve: server busy (HTTP %d), retry after %v", e.status, e.after)
}

// IsBackpressure reports whether err is a 429/503 backpressure response
// and, if so, the server's Retry-After hint.
func IsBackpressure(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// StatusError is a non-backpressure HTTP failure from the server. Callers
// (the cluster client) use the code to tell a rejected request (4xx — the
// job's fault, don't re-dispatch) from a broken node (everything else).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg)
}

// open is the one request path of the service and its cluster. A non-nil
// body goes out as JSON; a 2xx answer comes back open, for the caller to
// read and close; 429/503 become the backpressure error carrying the
// server's Retry-After, and every other status a *StatusError with the
// server's {"error": …} message. Transport failures are returned as they
// are, which is how the cluster client recognises a broken node.
func open(ctx context.Context, hc *http.Client, method, url string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		after := time.Second
		if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
			after = time.Duration(n) * time.Second
		}
		return nil, &retryAfterError{status: resp.StatusCode, after: after}
	}
	var ae apiError
	_ = json.NewDecoder(resp.Body).Decode(&ae) // not our JSON: the status line speaks instead
	if ae.Error == "" {
		ae.Error = resp.Status
	}
	return nil, &StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s %s: %s", method, req.URL.Path, ae.Error)}
}

// Call sends one request through the service's request path and decodes a
// JSON answer into out (nil, or a 204: nothing is read). The cluster
// package makes every registry call with it, so a node and the registry
// report failures in one vocabulary: IsBackpressure and *StatusError.
func Call(ctx context.Context, hc *http.Client, method, url string, body, out any) error {
	resp, err := open(ctx, hc, method, url, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts one spec; backpressure surfaces as a retryable error that
// Run absorbs.
func (c *Client) Submit(ctx context.Context, spec chip.Spec) (JobStatus, error) {
	var st JobStatus
	err := Call(ctx, c.hc, http.MethodPost, c.base+"/v1/jobs", specEnvelope{Spec: spec}, &st)
	return st, err
}

// Job fetches a job's status, including the Results when done.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := Call(ctx, c.hc, http.MethodGet, c.base+"/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until a job reaches a terminal state: it follows the job's
// event stream to the terminal event, then fetches the record once. A
// stream that breaks is a broken node and is returned as the error, which
// is what the cluster client hands off on.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	if _, err := c.Follow(ctx, id, 0, nil); err != nil {
		return JobStatus{}, err
	}
	return c.Job(ctx, id)
}

// backpressureMaxWait bounds the exponential growth of backpressure
// sleeps; the jitter can stretch one sleep to at most 1.5x this.
const backpressureMaxWait = 15 * time.Second

// backpressureWait derives the attempt'th backpressure sleep from the
// server's Retry-After hint: bounded exponential growth with full jitter
// in [w/2, 3w/2), so N sweep workers rejected by the same recovering node
// spread their retries out instead of stampeding it in lockstep.
func backpressureWait(hint time.Duration, attempt int) time.Duration {
	w := hint
	if w <= 0 {
		w = time.Second
	}
	for i := 1; i < attempt && w < backpressureMaxWait; i++ {
		w *= 2
	}
	if w > backpressureMaxWait {
		w = backpressureMaxWait
	}
	return w/2 + time.Duration(rand.Int63n(int64(w)))
}

// Run submits the spec and blocks for its results — the remote equivalent
// of chip.RunCtx, honoring backpressure by waiting out Retry-After with
// jittered, bounded-exponential sleeps. The total wait is capped by the
// caller's context deadline: when the next sleep cannot fit before the
// deadline, Run gives up immediately with the backpressure error instead
// of burning the remaining budget asleep. A failed run comes back as the
// server's structured *chip.RunError, so exp's failure reports look the
// same whether the run was local or remote.
func (c *Client) Run(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
	var st JobStatus
	for attempt := 1; ; attempt++ {
		var err error
		st, err = c.Submit(ctx, spec)
		if err == nil {
			break
		}
		ra, ok := err.(*retryAfterError)
		if !ok {
			return nil, err
		}
		wait := backpressureWait(ra.after, attempt)
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
			return nil, fmt.Errorf("serve: backpressure outlasted the context deadline after %d attempts: %w", attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
	if st.Result == nil {
		// Only a cache hit is answered with its result. Everything else is
		// waited for: queued, running, or joined onto a twin that finished
		// a moment ago, whose stream ends at once.
		var err error
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	switch st.State {
	case StateDone:
		if st.Result == nil {
			return nil, fmt.Errorf("serve: job %s done but carries no result", st.ID)
		}
		return st.Result, nil
	case StateFailed:
		if st.Error != nil {
			return nil, st.Error
		}
		return nil, fmt.Errorf("serve: job %s failed without a structured error", st.ID)
	default:
		return nil, fmt.Errorf("serve: job %s was %s by server shutdown; resubmit after restart", st.ID, st.State)
	}
}

// Follow streams a job's events, starting at cursor after (the Seq of the
// first event wanted), invoking fn for each. It returns the next cursor —
// one past the last delivered Seq. A nil error means the stream reached a
// terminal event; any other outcome (the node died mid-stream, fn bailed)
// returns the cursor to resume from. Because a journal-replayed job
// re-runs deterministically under its original id, resuming with that
// cursor on the replacement node yields exactly the events the broken
// stream never delivered — no window is ever seen twice.
func (c *Client) Follow(ctx context.Context, id string, after int, fn func(Event) error) (int, error) {
	resp, err := open(ctx, c.hc, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", c.base, id, after), nil)
	if err != nil {
		return after, err
	}
	defer resp.Body.Close()
	next := after
	sc := bufio.NewScanner(resp.Body)
	// A window frame can outgrow the scanner's 64 KiB default; the buffer
	// starts empty and grows to the cap only for a frame that needs it.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return next, fmt.Errorf("serve: bad event frame: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return next, err
			}
		}
		next = ev.Seq + 1
		if ev.At.Terminal() {
			// The server ends the stream here; reading that end lets the
			// connection go back to the pool for the Job fetch that follows.
			_, _ = io.Copy(io.Discard, resp.Body)
			return next, nil
		}
	}
	if err := sc.Err(); err != nil {
		return next, err
	}
	return next, io.ErrUnexpectedEOF
}

// Metrics scrapes /metrics into a name→value map.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	resp, err := open(ctx, c.hc, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out, sc.Err()
}
