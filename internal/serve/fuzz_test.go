package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
)

// FuzzResultDecode feeds arbitrary bytes to the binary result decoder. It
// must never panic; what it accepts must survive a re-encode and decode;
// and it may not allocate more than its input allows: every slice element,
// map entry and string byte it made is paid for by at least one input byte
// (each count is capped by the bytes left, so a count written in the input
// cannot buy memory on its own).
func FuzzResultDecode(f *testing.F) {
	bin, err := encodeResults(sampleResults(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add(bin[:len(bin)/2])
	zero, _ := encodeResults(new(chip.Results))
	f.Add(zero)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResults(b)
		if err != nil {
			return
		}
		if w := weight(reflect.ValueOf(r).Elem()); w > len(b) {
			t.Fatalf("%d input bytes decoded to %d elements, entries and string bytes", len(b), w)
		}
		again, err := encodeResults(r)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := decodeResults(again)
		if err != nil {
			t.Fatalf("a re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatal("a re-encoding decodes to other Results")
		}
	})
}

// weight counts the slice elements, map entries and string bytes under v.
func weight(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return weight(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += weight(v.Field(i))
		}
		return n
	case reflect.Array, reflect.Slice:
		n := 0
		if v.Kind() == reflect.Slice {
			n = v.Len()
		}
		for i := 0; i < v.Len(); i++ {
			n += weight(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += weight(it.Key()) + weight(it.Value())
		}
		return n
	}
	return 0
}

// FuzzSubmit feeds arbitrary bodies to POST /v1/jobs through
// Server.Handler, on a server with no workers, a one-slot queue and one
// cached result, its queue empty and then holding another job. Every body
// must end in a 2xx carrying the admitted or joined job or the cached
// result, or a 4xx carrying the JSON error (a full queue's 429 among
// them), and leave the server whole: an admitted job is registered, queued
// and owns its fingerprint's in-flight slot; a cache hit is registered and
// done, and is the cached spec's; a joined or refused submission adds no
// job, queue entry or in-flight slot. The seeds hold the cached spec's
// exact body, which is answered by its bytes, and one-byte changes of it,
// which are not.
func FuzzSubmit(f *testing.F) {
	valid, err := json.Marshal(specEnvelope{Spec: smallSpec(1)})
	if err != nil {
		f.Fatal(err)
	}
	queued, _ := json.Marshal(specEnvelope{Spec: smallSpec(2)})
	cachedSpec := smallSpec(3)
	cached, _ := json.Marshal(specEnvelope{Spec: cachedSpec})
	for _, seed := range []string{string(valid), string(queued), `{}`, `{"spec":{}}`, `{"spec":null}`, `[]`, ``,
		`{"spec":{"Chip":{"Width":-1}}}`, strings.Replace(string(valid), `"MeasureOps":500`, `"MeasureOps":-5`, 1),
		string(cached), string(cached) + " ", " " + string(cached), string(cached[:len(cached)-1]),
		strings.Replace(string(cached), `"Seed":3`, `"Seed":4`, 1), strings.Replace(string(cached), `{"spec":`, `{"Spec":`, 1)} {
		f.Add([]byte(seed))
	}
	cachedResult := &result{res: &chip.Results{Spec: cachedSpec, Cycles: 1234}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, full := range []bool{false, true} {
			s, err := New(Config{QueueDepth: 1, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			s.cache.admit(cachedSpec.Fingerprint(), nil)
			s.cache.complete(cachedSpec.Fingerprint(), cachedResult)
			if full {
				if _, err := s.Submit(smallSpec(2)); err != nil {
					t.Fatal(err)
				}
			}
			jobs, inflight, queued := len(s.jobs), len(s.cache.inflight), len(s.queue)
			rec := serveHTTP(s.Handler(), http.MethodPost, "/v1/jobs", body)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("HTTP %d answered %q", rec.Code, ct)
			}
			switch rec.Code / 100 {
			case 2:
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("HTTP %d: %v", rec.Code, err)
				}
				j, ok := s.Job(st.ID)
				if st.Cached {
					if rec.Code != http.StatusOK || !ok || st.State != StateDone || st.Fingerprint != cachedSpec.Fingerprint() ||
						st.Result == nil || st.Result.Cycles != 1234 || len(s.jobs) != jobs+1 || len(s.queue) != queued || len(s.cache.inflight) != inflight {
						t.Fatalf("HTTP %d (full queue: %v) answered a hit %+v half: registered %v, %d jobs, queue %d, in-flight %v",
							rec.Code, full, st, ok, len(s.jobs), len(s.queue), s.cache.inflight)
					}
					continue
				}
				added := 1
				if st.Deduped {
					added = 0
				}
				if !ok || st.State != StateQueued || s.cache.inflight[st.Fingerprint] != j || len(s.queue) != 1 ||
					len(s.jobs) != jobs+added || len(s.cache.inflight) != inflight+added {
					t.Fatalf("HTTP %d (full queue: %v) admitted %+v half: registered %v, %d jobs, queue %d, in-flight %v",
						rec.Code, full, st, ok, len(s.jobs), len(s.queue), s.cache.inflight)
				}
			case 4:
				var ae apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Error == "" {
					t.Fatalf("HTTP %d body %q is not the JSON error (%v)", rec.Code, rec.Body.Bytes(), err)
				}
				if len(s.jobs) != jobs || len(s.queue) != queued || len(s.cache.inflight) != inflight {
					t.Fatalf("HTTP %d (%s, full queue: %v) left %d jobs, %d queued, %d in flight",
						rec.Code, ae.Error, full, len(s.jobs), len(s.queue), len(s.cache.inflight))
				}
			default:
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// FuzzJournal feeds arbitrary bytes to journal replay (New on a journal
// path). Every journal must end in a clean replay — the file consumed,
// every replayed job addressable by its id, queued and owning its
// fingerprint's in-flight slot — or a structured error that leaves the
// file as it was and admits nothing.
func FuzzJournal(f *testing.F) {
	var good bytes.Buffer
	enc := json.NewEncoder(&good)
	for i, seed := range []uint64{1, 2, 1} {
		_ = enc.Encode(journalEntry{ID: "j-" + strconv.Itoa(i+1), Spec: smallSpec(seed)})
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-20])                                     // torn final record
	f.Add(append([]byte("{garbage\n"), good.Bytes()...))                    // corrupt middle
	f.Add(bytes.Replace(good.Bytes(), []byte(`"j-2"`), []byte(`"j-1"`), 1)) // a reused id
	f.Add([]byte(`{"id":"","spec":{}}` + "\n"))                             // an empty id
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Journal: path, Logf: func(string, ...any) {}})
		if err != nil {
			if s != nil {
				t.Fatalf("a failed replay returned a server: %v", err)
			}
			if left, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(left, raw) {
				t.Fatalf("a failed replay (%v) consumed the journal: %v", err, rerr)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("a clean replay left the journal: %v", err)
		}
		if int(s.replayed.Load()) != len(s.replay) || len(s.jobs) != len(s.replay) {
			t.Fatalf("replayed %d, queued %d, registered %d", s.replayed.Load(), len(s.replay), len(s.jobs))
		}
		for _, j := range s.replay {
			if got, ok := s.Job(j.id); !ok || got != j || s.cache.inflight[j.fingerprint] != j || jobState(j) != StateQueued {
				t.Fatalf("replayed job %s is not addressable, queued and in flight", j.id)
			}
		}
	})
}
