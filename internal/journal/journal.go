// Package journal is the crash-safe checkpoint log shared by the qssd
// batch front end and the analysis service: one JSON line per completed
// job, keyed by the net's canonical structural hash — the same key the
// engine's cache and quarantine use, so a renamed but structurally
// identical net still resumes against it. The format is append-only
// JSONL; a killed writer leaves at worst one torn final line, and every
// reader tolerates exactly that.
//
// Lifecycle: a Writer appends entries as jobs complete; Read folds
// journals into a hash-keyed map (later lines and later files win);
// Write rewrites a folded map as one line per hash; Merge is Read then
// Write, and Compact is Merge of one journal into itself. Write goes
// through a temporary file renamed over the destination, so a crash
// mid-rewrite never loses a journal.
//
// A journal is a byte log: an entry's report holds the bytes the
// engine's job marshalled, and every reader and rewriter moves them
// unchanged.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Entry is one journal line. Status is the engine's JobStatus vocabulary
// plus the qssd-level "skipped-resume"; Report is the engine's NetReport
// exactly as the job marshalled it (nil for refusals journalled before
// any analysis ran; a "report":null line reads as nil).
type Entry struct {
	Hash      string          `json:"hash"`
	Source    string          `json:"source"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Report    json.RawMessage `json:"report,omitempty"`
	// Net is the `.pn` source of the net, recorded only for reissueable
	// outcomes (timeout, panicked): a journal reader holding such an
	// entry — the multi-host coordinator's boot reissue pass — can
	// re-submit the work without access to the original corpus. Empty
	// for completed jobs, whose Report already says everything.
	Net string `json:"net,omitempty"`
}

// Writer appends entries to a journal file. Writes go straight to the
// file descriptor (no userspace buffering), so a completed record
// survives a process kill; only a write torn mid-line is lost, and Read
// tolerates that. Record is goroutine-safe: the batch engine serialises
// its completion callbacks, but the HTTP service journals from
// concurrent request handlers.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// Open opens (or creates) the journal for appending. If a previous
// writer was killed mid-line, the torn fragment is newline-terminated so
// new entries cannot concatenate onto it — it stays an isolated,
// skippable line.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return &Writer{f: f}, nil
}

// Record appends one entry. The first write error sticks and is reported
// by Close, so the caller's analysis loop never aborts mid-batch over a
// full disk. A nil Writer is a no-op, so callers can journal
// unconditionally.
func (w *Writer) Record(ent Entry) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	b, err := json.Marshal(ent)
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		w.err = err
	}
}

// Close closes the file and reports the first error seen.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cerr := w.f.Close()
	if w.err != nil {
		return w.err
	}
	return cerr
}

// Read folds journals into a hash-keyed map: files in argument order,
// lines in file order, later entries winning (a resumed run re-journals
// the nets it re-analyses). Unparsable lines are skipped: a journal is
// append-only, so the only malformed line a crash can produce is a torn
// final one.
func Read(paths ...string) (map[string]Entry, error) {
	entries, _, err := fold(paths)
	return entries, err
}

// fold is Read that also counts the lines seen, torn tails included.
func fold(paths []string) (entries map[string]Entry, lines int, err error) {
	entries = map[string]Entry{}
	for _, path := range paths {
		n, err := foldInto(entries, path)
		lines += n
		if err != nil {
			return nil, lines, fmt.Errorf("journal: reading %s: %w", path, err)
		}
	}
	return entries, lines, nil
}

// foldInto streams one journal's lines into entries and returns the
// number of lines seen.
func foldInto(entries map[string]Entry, path string) (lines int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, rerr := r.ReadBytes('\n')
		if len(line) > 0 {
			lines++
			var ent Entry
			if jerr := json.Unmarshal(line, &ent); jerr == nil && ent.Hash != "" {
				if string(ent.Report) == "null" {
					ent.Report = nil
				}
				entries[ent.Hash] = ent
			}
		}
		if rerr == io.EOF {
			return lines, nil
		}
		if rerr != nil {
			return lines, rerr
		}
	}
}

// Write writes entries to path, one line each sorted by hash, through a
// temporary file renamed over the destination. Sorting makes the output
// deterministic; the rename makes the rewrite atomic.
func Write(path string, entries map[string]Entry) error {
	hashes := make([]string, 0, len(entries))
	for h := range entries {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".rewrite-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for _, h := range hashes {
		b, err := json.Marshal(entries[h])
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(append(b, '\n')); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Compact rewrites the journal in place to one line per canonical hash,
// keeping the latest entry for each: Merge with the journal as its only
// input. Returns the line count before and the entry count after.
func Compact(path string) (before, after int, err error) {
	return Merge(path, []string{path})
}

// Merge folds several journals, typically one per service shard, into
// one compacted journal at out, as Read folds them: for a hash that
// (unexpectedly, since shards partition by hash prefix) appears in
// several inputs, the later input wins. A panicked or quarantined entry
// stays the latest for its hash until some input holds a successful
// re-analysis, so quarantines survive. Torn tail lines in any input are
// skipped. out may be one of the inputs; the rewrite is atomic. Returns
// the total input line count and the merged entry count.
func Merge(out string, inputs []string) (lines, entries int, err error) {
	if len(inputs) == 0 {
		return 0, 0, fmt.Errorf("journal: merge needs at least one input journal")
	}
	merged, lines, err := fold(inputs)
	if err != nil {
		return lines, 0, err
	}
	if err := Write(out, merged); err != nil {
		return lines, 0, err
	}
	return lines, len(merged), nil
}
