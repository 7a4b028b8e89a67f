package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"reactivenoc/internal/serve"
)

// TestWireStatusVocabulary: every client call in the service — a node's
// serve.Client and the cluster's registry calls alike — goes through one
// request path, so one status means one thing everywhere: 2xx succeeds,
// 429/503 are backpressure carrying Retry-After, and anything else is a
// *serve.StatusError with the code.
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
				serve.WriteJSON(w, tc.code, struct{}{})
			default:
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				serve.WriteError(w, tc.code, "boom")
			}
		}))
		node := serve.NewClient(hs.URL)
		agent := NewAgent(AgentConfig{Registry: hs.URL, Self: Node{ID: "n1", URL: "http://a:1"}})
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"serve.Client.Job", func() error { _, err := node.Job(ctx, "j-1"); return err }},
			{"serve.Client.Metrics", func() error { _, err := node.Metrics(ctx); return err }},
			{"serve.Client.Follow", func() error {
				_, err := node.Follow(ctx, "j-1", 0, nil)
				if errors.Is(err, io.ErrUnexpectedEOF) {
					err = nil // the stub's 2xx answers carry no events
				}
				return err
			}},
			{"cluster fetchMembership", func() error { _, err := fetchMembership(ctx, hs.Client(), hs.URL); return err }},
			{"cluster.Agent.Register", func() error { return agent.Register(ctx) }},
			{"cluster.Agent.Leave", func() error { return agent.Leave(ctx) }},
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
	var se *serve.StatusError
	after, busy := serve.IsBackpressure(err)
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
