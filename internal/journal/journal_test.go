package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcpn/internal/engine"
)

// write builds a journal file from entries, one line each, optionally
// followed by a torn (newline-less, half-written) tail.
func write(t *testing.T, path string, torn string, entries ...Entry) {
	t.Helper()
	var buf bytes.Buffer
	for _, ent := range entries {
		b, err := json.Marshal(ent)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	buf.WriteString(torn)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWriterAppendsAndHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	write(t, path, `{"hash":"torn-mid`, Entry{Hash: "h1", Status: "ok"})

	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(Entry{Hash: "h2", Status: "ok"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn fragment must have been newline-terminated so the new
	// entry sits on its own line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3 (entry, torn, entry):\n%s", len(lines), raw)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["h1"].Status != "ok" || got["h2"].Status != "ok" {
		t.Fatalf("read back %+v", got)
	}
}

func TestReadLaterEntriesWin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	write(t, path, "",
		Entry{Hash: "h", Source: "old", Status: string(engine.StatusTimeout)},
		Entry{Hash: "h", Source: "new", Status: string(engine.StatusOK)},
	)
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if ent := got["h"]; ent.Source != "new" || ent.Status != string(engine.StatusOK) {
		t.Fatalf("later entry did not win: %+v", ent)
	}
}

// TestReadFoldsFilesInOrder checks Read folds several journals as Merge
// does, the later file winning, and names a file it cannot read.
func TestReadFoldsFilesInOrder(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	write(t, a, "", Entry{Hash: "h", Source: "a"}, Entry{Hash: "ha", Source: "a"})
	write(t, b, "", Entry{Hash: "h", Source: "b"})
	got, err := Read(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["h"].Source != "b" || got["ha"].Source != "a" {
		t.Fatalf("fold of two journals: %+v", got)
	}
	missing := filepath.Join(dir, "missing.jsonl")
	if _, err := Read(a, missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("reading a missing journal: %v", err)
	}
}

// TestReportBytesVerbatim checks a report's bytes cross Read and Compact
// unchanged, whatever their member order and escapes, and that a
// hand-written "report":null reads as no report and is omitted when the
// journal is rewritten.
func TestReportBytesVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	const report = `{"z":1,"a":[true,null,1.50],"s":"\u003c\u2028<\\"}`
	kept := `{"hash":"h1","source":"a","status":"ok","elapsed_ms":0,"report":` + report + "}\n"
	if err := os.WriteFile(path, []byte(kept+`{"hash":"h2","source":"b","status":"ok","elapsed_ms":0,"report":null}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got["h1"].Report) != report {
		t.Fatalf("report bytes changed on read:\n got %s\nwant %s", got["h1"].Report, report)
	}
	if got["h2"].Report != nil {
		t.Fatalf(`"report":null read as %q`, got["h2"].Report)
	}
	if _, _, err := Compact(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewriting escapes the bare '<' as Marshal does; nothing else moves.
	want := strings.Replace(kept, `<\\`, `\u003c\\`, 1) + `{"hash":"h2","source":"b","status":"ok","elapsed_ms":0}` + "\n"
	if string(raw) != want {
		t.Fatalf("compacted journal:\n got %s\nwant %s", raw, want)
	}
}

// TestMergeLaterInputWins pins the cross-journal conflict rule: when the
// same hash appears in several shard journals, the later input wins —
// the multi-file extension of Compact's later-lines-win.
func TestMergeLaterInputWins(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "shard-0.jsonl")
	b := filepath.Join(dir, "shard-1.jsonl")
	write(t, a, "",
		Entry{Hash: "h-conflict", Source: "shard0", Status: string(engine.StatusTimeout), Error: "engine: job deadline exceeded"},
		Entry{Hash: "h-a", Source: "shard0", Status: string(engine.StatusOK)},
	)
	write(t, b, "",
		Entry{Hash: "h-conflict", Source: "shard1", Status: string(engine.StatusOK)},
		Entry{Hash: "h-b", Source: "shard1", Status: string(engine.StatusOK)},
	)

	out := filepath.Join(dir, "merged.jsonl")
	lines, entries, err := Merge(out, []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 4 || entries != 3 {
		t.Fatalf("merge folded %d lines into %d entries, want 4 -> 3", lines, entries)
	}
	got, err := Read(out)
	if err != nil {
		t.Fatal(err)
	}
	ent := got["h-conflict"]
	if ent.Source != "shard1" || ent.Status != string(engine.StatusOK) || ent.Error != "" {
		t.Fatalf("conflicting hash: later input must win, got %+v", ent)
	}
	if _, ok := got["h-a"]; !ok {
		t.Error("merge lost shard-0-only entry")
	}
	if _, ok := got["h-b"]; !ok {
		t.Error("merge lost shard-1-only entry")
	}
}

// TestMergeTolerantOfTornTails checks a crash-torn final line in any
// shard journal is skipped, not fatal, and does not shadow healthy
// entries.
func TestMergeTolerantOfTornTails(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "shard-0.jsonl")
	b := filepath.Join(dir, "shard-1.jsonl")
	write(t, a, `{"hash":"h-torn","status":"o`, Entry{Hash: "h-a", Status: string(engine.StatusOK)})
	write(t, b, `{"hash":`, Entry{Hash: "h-b", Status: string(engine.StatusOK)})

	out := filepath.Join(dir, "merged.jsonl")
	lines, entries, err := Merge(out, []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 4 || entries != 2 {
		t.Fatalf("merge folded %d lines into %d entries, want 4 -> 2", lines, entries)
	}
	got, err := Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["h-torn"]; ok {
		t.Error("torn tail line leaked into the merge")
	}
	if len(got) != 2 {
		t.Fatalf("merged entries: %+v", got)
	}
}

// TestMergePreservesQuarantine checks a panic/quarantine record survives
// the merge when no input holds a later successful re-analysis — the
// property that lets a coordinator fold shard journals without
// resurrecting poisoned nets.
func TestMergePreservesQuarantine(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "shard-0.jsonl")
	b := filepath.Join(dir, "shard-1.jsonl")
	write(t, a, "",
		Entry{Hash: "h-poison", Source: "gen:9", Status: string(engine.StatusPanicked), Error: "engine: job panicked: synthetic"},
		Entry{Hash: "h-healed", Source: "gen:10", Status: string(engine.StatusPanicked), Error: "engine: job panicked: synthetic"},
	)
	write(t, b, "",
		Entry{Hash: "h-ok", Source: "gen:11", Status: string(engine.StatusOK)},
		// A later shard successfully re-analysed h-healed: that entry wins.
		Entry{Hash: "h-healed", Source: "gen:10", Status: string(engine.StatusOK)},
	)

	out := filepath.Join(dir, "merged.jsonl")
	if _, _, err := Merge(out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if ent := got["h-poison"]; ent.Status != string(engine.StatusPanicked) || ent.Error == "" {
		t.Fatalf("merge lost the quarantine record: %+v", ent)
	}
	if ent := got["h-healed"]; ent.Status != string(engine.StatusOK) {
		t.Fatalf("successful re-analysis must override the old panic: %+v", ent)
	}
}

// TestMergeOutputMatchesCompactCodec checks Merge writes the same
// hash-sorted one-line-per-entry format Compact does: merging a single
// journal is byte-identical to compacting it.
func TestMergeOutputMatchesCompactCodec(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "j.jsonl")
	entries := []Entry{
		{Hash: "zz", Status: string(engine.StatusOK)},
		{Hash: "aa", Status: string(engine.StatusOK)},
		{Hash: "zz", Status: string(engine.StatusTimeout), Error: "late"},
		{Hash: "mm", Status: string(engine.StatusPanicked), Error: "boom"},
	}
	write(t, src, "", entries...)
	merged := filepath.Join(dir, "merged.jsonl")
	if _, n, err := Merge(merged, []string{src}); err != nil || n != 3 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	if before, after, err := Compact(src); err != nil || before != 4 || after != 3 {
		t.Fatalf("compact: %d -> %d, err=%v", before, after, err)
	}
	a, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("merge and compact codecs diverge:\n%s\nvs\n%s", a, b)
	}
}

func TestMergeRequiresInputs(t *testing.T) {
	if _, _, err := Merge(filepath.Join(t.TempDir(), "out.jsonl"), nil); err == nil {
		t.Fatal("merge with no inputs must error")
	}
}

// TestMergeIntoExistingInput checks out may be one of the inputs (the
// coordinator folding shard journals over its own) without data loss.
func TestMergeIntoExistingInput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "main.jsonl")
	b := filepath.Join(dir, "shard-1.jsonl")
	write(t, a, "", Entry{Hash: "h-a", Status: string(engine.StatusOK)})
	write(t, b, "", Entry{Hash: "h-b", Status: string(engine.StatusOK)})
	if _, n, err := Merge(a, []string{a, b}); err != nil || n != 2 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	got, err := Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("in-place merge lost entries: %+v", got)
	}
}

// TestMergePropertyRandomized is the property-based check of Merge's
// precedence rules over seeded random journal populations:
//
//  1. quarantine records survive any merge order: a hash whose records
//     are all quarantine-class (panicked/quarantined) merges to a
//     quarantine-class record under EVERY input permutation, and no
//     hash ever merges to "ok" unless some input actually journalled a
//     successful analysis (merge cannot invent or forge a success);
//  2. any hash journalled anywhere appears in the merge (nothing is
//     dropped);
//  3. three-way folds are associative: Merge(A,B,C) is byte-identical
//     to Merge(Merge(A,B),C) and Merge(A,Merge(B,C)) — the coordinator
//     may fold backend journals in one pass or incrementally and land
//     on the same file.
func TestMergePropertyRandomized(t *testing.T) {
	statuses := []string{
		string(engine.StatusOK),
		string(engine.StatusTimeout),
		string(engine.StatusPanicked),
		string(engine.StatusQuarantined),
	}
	quarantineClass := func(s string) bool {
		return s == string(engine.StatusPanicked) || s == string(engine.StatusQuarantined)
	}

	// splitmix64: the same seeded generator the fault injector uses, so
	// the trial populations are reproducible without math/rand.
	rng := uint64(20260808)
	next := func(n int) int {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}

	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		// Random population: ~8 hashes, ~24 records spread over 3 journals.
		nHashes := 4 + next(6)
		journals := make([][]Entry, 3)
		type world struct{ sawOK, allQuarantine bool }
		byHash := map[string]*world{}
		for rec := 0; rec < 16+next(16); rec++ {
			h := fmt.Sprintf("hash-%02d", next(nHashes))
			st := statuses[next(len(statuses))]
			j := next(3)
			journals[j] = append(journals[j], Entry{
				Hash: h, Source: fmt.Sprintf("trial%d", trial), Status: st,
			})
			w := byHash[h]
			if w == nil {
				w = &world{allQuarantine: true}
				byHash[h] = w
			}
			w.sawOK = w.sawOK || st == string(engine.StatusOK)
			w.allQuarantine = w.allQuarantine && quarantineClass(st)
		}
		paths := make([]string, 3)
		for i, ents := range journals {
			paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
			write(t, paths[i], "", ents...)
		}

		// Property 1+2 under every permutation of the three inputs.
		for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			in := []string{paths[perm[0]], paths[perm[1]], paths[perm[2]]}
			out := filepath.Join(dir, "merged.jsonl")
			if _, _, err := Merge(out, in); err != nil {
				t.Fatal(err)
			}
			got, err := Read(out)
			if err != nil {
				t.Fatal(err)
			}
			for h, w := range byHash {
				ent, ok := got[h]
				if !ok {
					t.Fatalf("trial %d perm %v: merge dropped %s", trial, perm, h)
				}
				if w.allQuarantine && !quarantineClass(ent.Status) {
					t.Fatalf("trial %d perm %v: poisoned %s un-poisoned to %q",
						trial, perm, h, ent.Status)
				}
				if !w.sawOK && ent.Status == string(engine.StatusOK) {
					t.Fatalf("trial %d perm %v: merge invented a success for %s",
						trial, perm, h)
				}
			}
		}

		// Property 3: associativity, byte-for-byte.
		oneShot := filepath.Join(dir, "one-shot.jsonl")
		if _, _, err := Merge(oneShot, paths); err != nil {
			t.Fatal(err)
		}
		leftAB := filepath.Join(dir, "left-ab.jsonl")
		leftAll := filepath.Join(dir, "left-all.jsonl")
		if _, _, err := Merge(leftAB, paths[:2]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Merge(leftAll, []string{leftAB, paths[2]}); err != nil {
			t.Fatal(err)
		}
		rightBC := filepath.Join(dir, "right-bc.jsonl")
		rightAll := filepath.Join(dir, "right-all.jsonl")
		if _, _, err := Merge(rightBC, paths[1:]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Merge(rightAll, []string{paths[0], rightBC}); err != nil {
			t.Fatal(err)
		}
		one, _ := os.ReadFile(oneShot)
		left, _ := os.ReadFile(leftAll)
		right, _ := os.ReadFile(rightAll)
		if !bytes.Equal(one, left) || !bytes.Equal(one, right) {
			t.Fatalf("trial %d: three-way fold is not associative:\none-shot:\n%s\nleft:\n%s\nright:\n%s",
				trial, one, left, right)
		}
	}
}
