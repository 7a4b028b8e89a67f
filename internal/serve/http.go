package serve

import (
	"encoding/json"
	"errors"
	"fmt"
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

// WriteJSON, WriteError and WriteMetrics are the response side of the wire
// layer; the cluster registry answers through them too, so every JSON body,
// {"error": …} and /metrics page in the service has one shape. JSON is
// compact — pipe it through `jq .` to read it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a failed write is the client hanging up
}

type apiError struct {
	Error string `json:"error"`
}

// WriteError answers code with the {"error": msg} body the client side
// turns back into a *StatusError.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, apiError{Error: msg})
}

// WriteMetrics renders the snapshots as plain text, one "name value" line
// per metric in sorted key order, so scrapes diff cleanly and one parser
// reads a node, a registry, or both behind one mux.
func WriteMetrics(w http.ResponseWriter, snaps ...sim.Snapshot) {
	all := sim.Snapshot{Vals: map[string]int64{}}
	for _, s := range snaps {
		for k, v := range s.Vals {
			all.Vals[k] = v
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, k := range all.Keys() {
		fmt.Fprintf(w, "%s %d\n", k, all.Vals[k])
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec specEnvelope
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	st, err := s.Submit(spec.Spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: the queue is bounded by design and
		// the client should come back.
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
	case st.Cached || st.Deduped:
		WriteJSON(w, http.StatusOK, st)
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, j.status(true))
}

// handleEvents streams a job's progress as server-sent events. The stream
// replays history from ?after=<seq> (default: the beginning), follows the
// live run, and closes after the terminal event — so `curl -N` on a job
// shows queued → started → one window per SampleEvery cycles → done.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	seq := 0
	if after := r.URL.Query().Get("after"); after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad after cursor")
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
	WriteMetrics(w, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
