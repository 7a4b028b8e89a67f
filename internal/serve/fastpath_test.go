package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/verify/differ"
	"reactivenoc/internal/workload"
)

// captureBodies is a RoundTripper that keeps every request body and
// answers 500, so a Client's requests can be read without a server.
type captureBodies struct{ bodies [][]byte }

func (c *captureBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	b, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	c.bodies = append(c.bodies, b)
	return &http.Response{StatusCode: http.StatusInternalServerError, Body: io.NopCloser(strings.NewReader("{}")), Request: req}, nil
}

// TestClientEnvelopeHashesToFingerprint: the body a Client posts is
// {"spec":X}, and the truncated sha256 of X is the spec's Fingerprint, on
// every 16-core golden spec and a thousand differ.SpecFromSeed specs. This
// is what lets the server recognise a cache hit by its bytes.
func TestClientEnvelopeHashesToFingerprint(t *testing.T) {
	var specs []chip.Spec
	for wn, variants := range golden16 {
		w, ok := workload.ByName(wn)
		if !ok {
			t.Fatalf("unknown workload %s", wn)
		}
		for _, vn := range variants {
			v, ok := config.ByName(vn)
			if !ok {
				t.Fatalf("unknown variant %s", vn)
			}
			spec := chip.DefaultSpec(config.Chip16(), v, w)
			spec.WarmupOps, spec.MeasureOps, spec.Seed = 600, 2400, 7
			specs = append(specs, spec)
		}
	}
	for seed := uint64(0); seed < 1000; seed++ {
		specs = append(specs, differ.SpecFromSeed(seed))
	}
	capture := &captureBodies{}
	cl := NewClient("http://capture.invalid")
	cl.hc = &http.Client{Transport: capture}
	for i, spec := range specs {
		spec.OnSample = func(sim.Snapshot) {} // observers never travel
		if _, err := cl.Submit(context.Background(), spec); err == nil {
			t.Fatal("the capturing transport's 500 came back as success")
		}
		body := capture.bodies[i]
		x, framed := bytes.CutPrefix(body, []byte(`{"spec":`))
		x, closed := bytes.CutSuffix(x, []byte(`}`))
		if !framed || !closed {
			t.Fatalf("spec %d: body %.80s… is not {\"spec\":X}", i, body)
		}
		sum := sha256.Sum256(x)
		if got, want := "spec-"+hex.EncodeToString(sum[:16]), spec.Fingerprint(); got != want || chip.FingerprintOf(x) != want {
			t.Fatalf("spec %d (%s/%s): the envelope hashes to %s, its fingerprint is %s", i, spec.Workload.Name, spec.Variant.Name, got, want)
		}
	}
}

// cachedServer is a server without workers whose cache holds the result
// of spec, filed as a finished run would file it.
func cachedServer(t *testing.T, spec chip.Spec) *Server {
	t.Helper()
	s := newTestServer(t, Config{})
	res, err := chip.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp := spec.Fingerprint()
	s.cache.admit(fp, nil)
	s.cache.complete(fp, &result{res: res})
	return s
}

// post sends body to POST /v1/jobs, asking for the binary result form
// when binary is set.
func post(h http.Handler, body []byte, binary bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if binary {
		req.Header.Set("Accept", resultsMediaType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// answer is what a client can tell of a submission's reply: the code, the
// media type, the JobStatus bar its job id and clock readings, and the
// Results' bytes.
type answer struct {
	code        int
	contentType string
	status      JobStatus
	results     string
}

func answerOf(t *testing.T, rec *httptest.ResponseRecorder) answer {
	t.Helper()
	a := answer{code: rec.Code, contentType: rec.Header().Get("Content-Type")}
	head, results := rec.Body.Bytes(), []byte(nil)
	if a.contentType == resultsMediaType {
		head, results, _ = bytes.Cut(head, []byte("\n"))
	} else {
		var raw struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(head, &raw); err != nil {
			t.Fatalf("HTTP %d %q: %v", rec.Code, head, err)
		}
		results = raw.Result
	}
	if err := json.Unmarshal(head, &a.status); err != nil {
		t.Fatalf("HTTP %d %q: %v", rec.Code, head, err)
	}
	a.results = string(results)
	a.status.ID, a.status.Submitted, a.status.Finished, a.status.Result = "", time.Time{}, time.Time{}, nil
	return a
}

// TestHitByBytesAnswersAsDecoded: a submission answered from its bytes
// gets the status, headers and Results bytes the decoded path gives the
// same spec, in both result forms, and is counted as a submission and a
// cache hit; the job it leaves is addressable and done.
func TestHitByBytesAnswersAsDecoded(t *testing.T) {
	spec := smallSpec(21)
	s := cachedServer(t, spec)
	h := s.Handler()
	body := submitBody(t, spec)
	// Whitespace after the key is the same spec to the decoder, and not
	// the framing the byte path answers.
	spaced := bytes.Replace(body, []byte(`{"spec":`), []byte(`{"spec": `), 1)
	for _, binary := range []bool{false, true} {
		if _, _, ok := s.hitByBytes(body); !ok {
			t.Fatal("a Client's body for a cached spec was not answered by its bytes")
		}
		if _, _, ok := s.hitByBytes(spaced); ok {
			t.Fatal("a body with whitespace added was answered by its bytes")
		}
		hits, submitted := s.cache.hits.Load(), s.submitted.Load()
		fast, decoded := post(h, body, binary), post(h, spaced, binary)
		if got := s.cache.hits.Load() - hits; got != 2 {
			t.Fatalf("two hits counted %d cache hits", got)
		}
		if got := s.submitted.Load() - submitted; got != 2 {
			t.Fatalf("two hits counted %d submissions", got)
		}
		fa, da := answerOf(t, fast), answerOf(t, decoded)
		if fa.code != http.StatusOK || !fa.status.Cached || fa.status.State != StateDone || fa.results == "" {
			t.Fatalf("binary %v: the byte path answered HTTP %d %+v", binary, fa.code, fa.status)
		}
		if fa != da {
			t.Fatalf("binary %v: the byte path and the decoded path disagree (results equal: %v):\n bytes   %d %s %+v\n decoded %d %s %+v",
				binary, fa.results == da.results, fa.code, fa.contentType, fa.status, da.code, da.contentType, da.status)
		}
		st := decodeStatusAny(t, fast)
		if j, ok := s.Job(st.ID); !ok || jobState(j) != StateDone {
			t.Fatalf("the byte path's job %s is not addressable and done", st.ID)
		}
	}
}

// decodeStatusAny reads the JobStatus header of a reply in either form.
func decodeStatusAny(t *testing.T, rec *httptest.ResponseRecorder) JobStatus {
	t.Helper()
	head, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	var st JobStatus
	if err := json.Unmarshal(head, &st); err != nil {
		t.Fatalf("HTTP %d %q: %v", rec.Code, head, err)
	}
	return st
}

// TestHitByBytesFallsBack: a body that is not exactly a Client's framing
// of a cached spec's canonical encoding is never answered by its bytes;
// the decoded path answers it as it always has. A changed byte is another
// spec (a miss, queued), and whitespace, reordered fields and a trailing
// value are the cached spec again (a hit).
func TestHitByBytesFallsBack(t *testing.T) {
	spec := smallSpec(22)
	s := cachedServer(t, spec)
	h := s.Handler()
	body := submitBody(t, spec)
	x := body[len(`{"spec":`) : len(body)-1]
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(x, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // sorted keys, not Spec's field order
	if err != nil {
		t.Fatal(err)
	}
	seed := []byte(`"Seed":22`)
	if bytes.Count(body, seed) != 1 {
		t.Fatalf("cannot locate the seed in %s", body)
	}
	for _, tc := range []struct {
		name string
		body []byte
		code int
	}{
		{"one byte changed", bytes.Replace(body, seed, []byte(`"Seed":23`), 1), http.StatusAccepted},
		{"whitespace added", append(bytes.Clone(body), '\n'), http.StatusOK},
		{"fields reordered", append(append([]byte(`{"spec":`), reordered...), '}'), http.StatusOK},
		{"a trailing value", append(bytes.Clone(body), `{"spec":{}}`...), http.StatusOK},
		{"a trailing byte", append(bytes.Clone(body), '}'), http.StatusOK},
	} {
		if _, _, ok := s.hitByBytes(tc.body); ok {
			t.Fatalf("%s: answered by its bytes", tc.name)
		}
		rec := post(h, tc.body, false)
		st := decodeStatusAny(t, rec)
		if rec.Code != tc.code || (tc.code == http.StatusOK) != st.Cached {
			t.Fatalf("%s: HTTP %d %+v, want HTTP %d", tc.name, rec.Code, st, tc.code)
		}
	}
}

// TestHitByBytesHonoursDraining: once shutdown has begun, a cached spec's
// exact body is refused with 503 and Retry-After, as every submission is.
func TestHitByBytesHonoursDraining(t *testing.T) {
	spec := smallSpec(23)
	s := cachedServer(t, spec)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := post(s.Handler(), submitBody(t, spec), true)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "5" {
		t.Fatalf("a draining server answered a cached spec's body with HTTP %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}
