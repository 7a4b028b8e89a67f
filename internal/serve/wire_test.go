package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/sim"
)

// Bytes one cache hit allocates (TestHitAllocationBudget), as measured
// on linux/amd64 with go1.24, with half again for slack. Re-encoding the
// Results and decoding them with a growing json.Decoder took 26.0 KB and
// 59.9 KB; a Client.Run hit that decoded JSON took 34.7 KB, and one that
// decoded the spec on the server and each metric name on the client took
// 19.9 KB in process and 26.5 KB through Client.Run. The in-process hit
// has no Accept header, so it is still answered with JSON; Client.Run
// reads the binary form.
const (
	hitBudgetInProcess = 15_800 * 3 / 2
	hitBudgetClientRun = 22_300 * 3 / 2
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWireStatusVocabulary: every client call goes through one request
// path, so one status means one thing everywhere: 2xx succeeds, 429/503
// are backpressure carrying Retry-After, and anything else is a
// *StatusError with the code.
func TestWireStatusVocabulary(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		code       int
		retryAfter string
		want       string
	}{
		{http.StatusOK, "", "ok"},
		{http.StatusAccepted, "", "ok"},
		{http.StatusNoContent, "", "ok"},
		{http.StatusBadRequest, "", "status 400"},
		{http.StatusNotFound, "", "status 404"},
		{http.StatusTooManyRequests, "7", "busy 7s"},
		{http.StatusInternalServerError, "", "status 500"},
		{http.StatusServiceUnavailable, "", "busy 1s"},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			switch {
			case tc.code == http.StatusNoContent:
				w.WriteHeader(tc.code)
			case tc.code/100 == 2:
				writeJSON(w, tc.code, struct{}{})
			default:
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				writeError(w, tc.code, "boom")
			}
		}))
		node := NewClient(hs.URL)
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"Client.Submit", func() error { _, err := node.Submit(ctx, smallSpec(1)); return err }},
			{"Client.Job", func() error { _, err := node.Job(ctx, "j-1"); return err }},
			{"Client.Metrics", func() error { _, err := node.Metrics(ctx); return err }},
			{"Client.Follow", func() error {
				_, err := node.Follow(ctx, "j-1", 0, nil)
				if errors.Is(err, io.ErrUnexpectedEOF) {
					err = nil // the stub's 2xx answers carry no events
				}
				return err
			}},
		} {
			if got := classify(call.do()); got != tc.want {
				t.Errorf("HTTP %d through %s: %s, want %s", tc.code, call.name, got, tc.want)
			}
		}
		hs.Close()
	}
}

// classify names an error in the wire layer's vocabulary.
func classify(err error) string {
	var se *StatusError
	after, busy := IsBackpressure(err)
	switch {
	case err == nil:
		return "ok"
	case busy:
		return "busy " + after.String()
	case errors.As(err, &se):
		return fmt.Sprintf("status %d", se.Code)
	}
	return "other: " + err.Error()
}

// submitBody is a POST /v1/jobs body for spec.
func submitBody(t *testing.T, spec chip.Spec) []byte {
	t.Helper()
	b, err := json.Marshal(specEnvelope{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveHTTP runs one request through h in process.
func serveHTTP(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// decodeStatus reads a JobStatus body.
func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("HTTP %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	return st
}

// waitTerminal blocks until job id reaches a terminal state, without
// fetching it over HTTP.
func waitTerminal(t *testing.T, s *Server, id string) {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	for seq := 0; ; {
		events, changed := j.eventsAfter(seq)
		for _, ev := range events {
			if ev.At.Terminal() {
				return
			}
			seq = ev.Seq + 1
		}
		select {
		case <-changed:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished", id)
		}
	}
}

// encoderBody is what json.NewEncoder writes for job id's status with its
// Results attached: the bytes the service has always sent for it.
func encoderBody(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	st, r := j.status()
	if r == nil {
		t.Fatalf("job %s carries no result", id)
	}
	st.Result = r.res
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDoneStatusBodyMatchesEncoder pins the wire: a done job's GET and a
// cache hit's POST write exactly what json.NewEncoder writes for the same
// JobStatus, with a Content-Length that matches.
func TestDoneStatusBodyMatchesEncoder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	h := s.Handler()
	body := submitBody(t, smallSpec(7))
	miss := decodeStatus(t, serveHTTP(h, http.MethodPost, "/v1/jobs", body))
	waitTerminal(t, s, miss.ID)

	get := serveHTTP(h, http.MethodGet, "/v1/jobs/"+miss.ID, nil)
	hit := serveHTTP(h, http.MethodPost, "/v1/jobs", body)
	if st := decodeStatus(t, hit); !st.Cached {
		t.Fatalf("second submission was not a cache hit: %+v", st)
	}
	for _, tc := range []struct {
		name string
		rec  *httptest.ResponseRecorder
		id   string
	}{
		{"GET of the miss", get, miss.ID},
		{"POST of the hit", hit, decodeStatus(t, hit).ID},
	} {
		if tc.rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", tc.name, tc.rec.Code)
		}
		if want := encoderBody(t, s, tc.id); !bytes.Equal(tc.rec.Body.Bytes(), want) {
			t.Fatalf("%s body:\n got %s\nwant %s", tc.name, tc.rec.Body.Bytes(), want)
		}
		if cl := tc.rec.Header().Get("Content-Length"); cl != strconv.Itoa(tc.rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", tc.name, cl, tc.rec.Body.Len())
		}
	}
}

// TestConcurrentFirstFetchesShareOneEncoding: a finished job's encoding is
// left to its first fetch, and fetches racing to be first — the miss's own
// GETs and hits on its fingerprint — all write the same result bytes.
func TestConcurrentFirstFetchesShareOneEncoding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	h := s.Handler()
	body := submitBody(t, smallSpec(8))
	miss := decodeStatus(t, serveHTTP(h, http.MethodPost, "/v1/jobs", body))
	waitTerminal(t, s, miss.ID)
	j, _ := s.Job(miss.ID)
	_, r := j.status()
	if r.js != nil {
		t.Fatal("the worker encoded the result; that is the first fetch's job")
	}

	const n = 16
	results := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := serveHTTP(h, http.MethodGet, "/v1/jobs/"+miss.ID, nil)
			if i%2 == 1 {
				rec = serveHTTP(h, http.MethodPost, "/v1/jobs", body)
			}
			var out struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Errorf("fetch %d: HTTP %d: %v", i, rec.Code, err)
			}
			results[i] = out.Result
		}(i)
	}
	close(start)
	wg.Wait()
	want, err := json.Marshal(r.res)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %d wrote a different result:\n got %.200s\nwant %.200s", i, got, want)
		}
	}
}

// TestRecompletedFingerprintServesNewResult: when a fingerprint's entry is
// completed again, hits serve the new Results, never the bytes encoded for
// the old ones.
func TestRecompletedFingerprintServesNewResult(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	spec := smallSpec(9)
	body := submitBody(t, spec)
	fp := spec.Fingerprint()
	s.cache.admit(fp, nil)
	for _, cycles := range []sim.Cycle{100, 200} {
		s.cache.complete(fp, &result{res: &chip.Results{Cycles: cycles}})
		st := decodeStatus(t, serveHTTP(h, http.MethodPost, "/v1/jobs", body))
		if !st.Cached || st.Result == nil || st.Result.Cycles != cycles {
			t.Fatalf("hit after completing with %d cycles: cached=%v result=%+v", cycles, st.Cached, st.Result)
		}
	}
}

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHitAllocationBudget keeps a cache hit cheap: the server writes the
// result's stored bytes instead of encoding it again, and the client
// decodes one body read into a buffer sized from Content-Length. Bounds
// are the measured bytes per hit with half again for slack.
func TestHitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what net/http puts back, so the byte counts are not the program's")
	}
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)
	ctx := context.Background()
	spec := smallSpec(10)
	for i := 0; i < 2; i++ { // the miss, then a hit that encodes the result
		if _, err := cl.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	const n = 200
	h := s.Handler()
	body := submitBody(t, spec)
	inProcess := allocatedBy(func() {
		for i := 0; i < n; i++ {
			if rec := serveHTTP(h, http.MethodPost, "/v1/jobs", body); rec.Code != http.StatusOK {
				t.Fatalf("hit %d: HTTP %d", i, rec.Code)
			}
		}
	}) / n
	overHTTP := allocatedBy(func() {
		for i := 0; i < n; i++ {
			if _, err := cl.Run(ctx, spec); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	t.Logf("a hit allocates %d bytes in process, %d through Client.Run", inProcess, overHTTP)
	if inProcess > hitBudgetInProcess {
		t.Errorf("an in-process hit allocated %d bytes, want <= %d", inProcess, hitBudgetInProcess)
	}
	if overHTTP > hitBudgetClientRun {
		t.Errorf("a Client.Run hit allocated %d bytes, want <= %d", overHTTP, hitBudgetClientRun)
	}
}
