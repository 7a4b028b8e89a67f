package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"reactivenoc/internal/sim"
)

// maxSpecBody bounds a submission body; specs are a few hundred bytes of
// JSON, so a megabyte is already generous.
const maxSpecBody = 1 << 20

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON, writeError and writeMetrics are the response side of the wire
// layer, so every JSON body, {"error": …} and /metrics page in the service
// has one shape. JSON is compact — pipe it through `jq .` to read it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a failed write is the client hanging up
}

// writeStatus is the one writer of a JobStatus: st as job.status returns
// it, without its Results, and r, the job's result or nil. A status
// without a result goes through writeJSON. A done job's Results are
// written as the bytes encoded once for them (result.encoded or
// result.binary), so a cache hit encodes only the small header.
//
// By default the Results are spliced in as the trailing "result" field:
// the body equals json.NewEncoder(w).Encode(st) with st.Result set, byte
// for byte, since Result is JobStatus's last field and the header always
// has fields before it. A request whose Accept is resultsMediaType (every
// Client's) gets the header, a newline and the binary Results instead;
// compact JSON holds no raw newline, so the first one ends the header.
func writeStatus(w http.ResponseWriter, req *http.Request, code int, st JobStatus, r *result) {
	if r == nil {
		writeJSON(w, code, st)
		return
	}
	bin := resultsMediaType != "" && req.Header.Get("Accept") == resultsMediaType
	encode := r.encoded
	if bin {
		encode = r.binary
	}
	js, err := encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode result: "+err.Error())
		return
	}
	head, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode status: "+err.Error())
		return
	}
	if bin {
		w.Header().Set("Content-Type", resultsMediaType)
		w.Header().Set("Content-Length", strconv.Itoa(len(head)+1+len(js)))
		w.WriteHeader(code)
		_, _ = w.Write(append(head, '\n'))
		_, _ = w.Write(js)
		return
	}
	head = head[:len(head)-1] // reopen the object after its last field
	const key, tail = `,"result":`, "}\n"
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(key)+len(js)+len(tail)))
	w.WriteHeader(code)
	// A failed write is the client hanging up.
	_, _ = w.Write(head)
	_, _ = io.WriteString(w, key)
	_, _ = w.Write(js)
	_, _ = io.WriteString(w, tail)
}

type apiError struct {
	Error string `json:"error"`
}

// writeError answers code with the {"error": msg} body the client side
// turns back into a *StatusError.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// writeMetrics renders a snapshot as plain text, one "name value" line per
// metric in sorted key order, so scrapes diff cleanly.
func writeMetrics(w http.ResponseWriter, snap sim.Snapshot) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, k := range snap.Keys() {
		fmt.Fprintf(w, "%s %d\n", k, snap.Vals[k])
	}
}

// handleSubmit admits one POST /v1/jobs body. A body framed exactly as a
// Client sends it, {"spec":X} with X the spec's canonical encoding, is
// first looked up by its bytes (Server.hitByBytes); anything that is not a
// cache hit that way is decoded and admitted by submit, as it always was.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxSpecBody)
	buf, readErr := readBody(body, r.ContentLength)
	if readErr == nil {
		if st, res, ok := s.hitByBytes(buf); ok {
			writeStatus(w, r, http.StatusOK, st, res)
			return
		}
	}
	// The decoder sees the bytes read so far and then the read's own end,
	// which is the stream it would have read from the body. A field the
	// spec does not have fails closed: a spec written for an older Options
	// would otherwise run another design.
	var spec specEnvelope
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), endReader{readErr}))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	st, res, err := s.submit(spec.Spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: the queue is bounded by design and
		// the client should come back.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	case st.Cached || st.Deduped:
		writeStatus(w, r, http.StatusOK, st, res)
	default:
		writeStatus(w, r, http.StatusAccepted, st, res)
	}
}

// readBody reads a whole request body into one buffer, sized from its
// Content-Length when that is within the body limit, and returns what it
// read with the read's error (nil at EOF).
func readBody(body io.Reader, contentLength int64) ([]byte, error) {
	var buf bytes.Buffer
	if contentLength > 0 && contentLength <= maxSpecBody {
		buf.Grow(int(contentLength) + bytes.MinRead) // ReadFrom keeps MinRead free
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// endReader ends a stream with err, or with io.EOF when err is nil.
type endReader struct{ err error }

func (e endReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st, res := j.status()
	writeStatus(w, r, http.StatusOK, st, res)
}

// handleEvents streams a job's progress as server-sent events. The stream
// replays history from ?after=<seq> (default: the beginning), follows the
// live run, and closes after the terminal event — so `curl -N` on a job
// shows queued → started → one window per SampleEvery cycles → done.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	seq := 0
	if after := r.URL.Query().Get("after"); after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad after cursor")
			return
		}
		seq = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for {
		events, changed := j.eventsAfter(seq)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			seq = ev.Seq + 1
			if ev.At.Terminal() {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCache lists the cached fingerprints, one per line in sorted order.
// Plain text on purpose: the cluster chaos job asserts single-copy cache
// semantics with `curl node*/v1/cache | sort | uniq -d` and nothing else.
func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, fp := range s.CachedFingerprints() {
		fmt.Fprintln(w, fp)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeMetrics(w, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
