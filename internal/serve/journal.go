package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"reactivenoc/internal/chip"
)

// journalEntry is one job that shutdown drained before it produced a
// result: the id is preserved so clients waiting on it keep working across
// the restart.
type journalEntry struct {
	ID   string    `json:"id"`
	Spec chip.Spec `json:"spec"`
}

// writeJournal atomically replaces path with the entries, one JSON object
// per line. An empty entry list removes the journal instead, so a clean
// shutdown leaves nothing to replay.
func writeJournal(path string, entries []journalEntry) error {
	if len(entries) == 0 {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readJournal loads and consumes the journal at path: entries are returned
// and the file is removed, so a replayed job cannot be replayed twice by a
// crash loop. A missing journal is an empty one.
//
// A truncated or otherwise unparseable *final* record is the signature of
// a crash mid-write (the process died between appending and fsync): it is
// skipped with a warning through warn, and every intact record before it
// still replays. Corruption anywhere else in the file cannot be explained
// by a torn write and aborts the load — replaying a journal whose middle
// is garbage risks silently dropping an unknown number of jobs.
func readJournal(path string, warn func(format string, args ...any)) ([]journalEntry, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(raw, []byte("\n"))
	// Find the last non-empty line: only that one may legitimately be torn.
	last := -1
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) > 0 {
			last = i
		}
	}
	var entries []journalEntry
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if i == last {
				warn("serve: journal %s: skipping torn final record (%d bytes): %v",
					filepath.Base(path), len(line), err)
				break
			}
			return nil, fmt.Errorf("serve: corrupt journal %s: record %d: %w", filepath.Base(path), i+1, err)
		}
		entries = append(entries, e)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	return entries, nil
}
