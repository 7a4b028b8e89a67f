package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one traced interval. Op-level spans (rep, setup, warm-up,
// measured, harvest, sweep, cell, job and its parts) carry wall-clock
// bounds; a class span is the aggregate of one component class over one
// window of simulated cycles, where SelfNS is the host time spent inside
// that class's Tick calls and Ticks how many there were.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	// StartNS and EndNS are nanoseconds since the log was opened.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Cycle0 and Cycle1 bound a class span's window of simulated cycles.
	Cycle0 int64 `json:"cycle0,omitempty"`
	Cycle1 int64 `json:"cycle1,omitempty"`
	SelfNS int64 `json:"self_ns,omitempty"`
	Ticks  int64 `json:"ticks,omitempty"`
	// Attr carries a span's label: a sweep cell's variant/app, a job's
	// hit/miss/joined outcome.
	Attr string `json:"attr,omitempty"`
}

// SpanLog keeps spans in memory until the benchmark ends. It is safe for
// the sweep workers and serve clients that record concurrently.
type SpanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []Span
}

// NewSpanLog opens an empty log.
func NewSpanLog() *SpanLog { return &SpanLog{base: time.Now()} }

// now is the log's clock: nanoseconds since it was opened.
func (l *SpanLog) now() int64 { return int64(time.Since(l.base)) }

// add appends s and returns its ID.
func (l *SpanLog) add(s Span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// begin opens a wall-clock span; the caller closes it with end.
func (l *SpanLog) begin(workload, name string, parent int) int {
	return l.add(Span{Workload: workload, Name: name, Parent: parent, StartNS: l.now()})
}

// end closes span id and returns its duration in nanoseconds.
func (l *SpanLog) end(id int) int64 { return l.endAttr(id, "") }

// endAttr is end for a span whose label is only known when it closes.
func (l *SpanLog) endAttr(id int, attr string) int64 {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndNS = t
	if attr != "" {
		s.Attr = attr
	}
	return s.EndNS - s.StartNS
}

// snapshot copies the spans recorded after the first from.
func (l *SpanLog) snapshot(from int) []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans[from:]...)
}

// Len reports how many spans the log holds.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// WriteFile writes the spans as JSON lines.
func (l *SpanLog) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
