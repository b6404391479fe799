package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fcpn/internal/engine"
	jnl "fcpn/internal/journal"
	"fcpn/internal/netgen"
)

// genHash is the canonical hash of the net `-gen` builds for a seed.
func genHash(seed uint64) string {
	return netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()).CanonicalHash()
}

func TestQssdJournalWritesEveryJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	rep := runJSON(t, "-gen", "5", "-gen-seed", "20", "-journal", journal)
	if rep.StatusCounts["ok"] != 5 {
		t.Fatalf("status counts: %+v", rep.StatusCounts)
	}
	entries, err := jnl.Read(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("journal has %d entries, want 5", len(entries))
	}
	for seed := uint64(20); seed < 25; seed++ {
		ent, ok := entries[genHash(seed)]
		if !ok {
			t.Fatalf("journal missing entry for seed %d", seed)
		}
		rep, ok := decodeReport(ent.Report)
		if ent.Status != "ok" || !ok || rep == nil || !rep.Schedulable {
			t.Fatalf("bad journal entry for seed %d: %+v", seed, ent)
		}
	}
}

// TestQssdResumeSkipsCompleted simulates a crash after part of the
// corpus: a first run journals 3 of 6 nets, the resumed run must
// re-analyse exactly the other 3 and rehydrate the journalled reports
// byte-identically.
func TestQssdResumeSkipsCompleted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	first := runJSON(t, "-gen", "3", "-gen-seed", "30", "-journal", journal)
	if first.StatusCounts["ok"] != 3 {
		t.Fatalf("first run: %+v", first.StatusCounts)
	}

	// Simulate the kill having torn the final line mid-write: the reader
	// must shrug it off.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"hash":"torn-entr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep := runJSON(t, "-gen", "6", "-gen-seed", "30", "-journal", journal, "-resume")
	if rep.StatusCounts[statusSkippedResume] != 3 || rep.StatusCounts["ok"] != 3 {
		t.Fatalf("resumed run: %+v", rep.StatusCounts)
	}
	if rep.Jobs != 3 {
		t.Errorf("resumed run submitted %d jobs, want 3", rep.Jobs)
	}
	byHash := map[string]netResult{}
	for _, r := range rep.Results {
		byHash[r.Report.Hash] = r
	}
	for seed := uint64(30); seed < 36; seed++ {
		r, ok := byHash[genHash(seed)]
		if !ok {
			t.Fatalf("resumed report missing seed %d", seed)
		}
		wantStatus := "ok"
		if seed < 33 {
			wantStatus = statusSkippedResume
		}
		if r.Status != wantStatus {
			t.Errorf("seed %d: status %q, want %q", seed, r.Status, wantStatus)
		}
		if r.Report == nil || !r.Report.Schedulable {
			t.Errorf("seed %d: missing/bad rehydrated report", seed)
		}
	}

	// Rehydrated reports must match what a fresh analysis produces.
	fresh := runJSON(t, "-gen", "1", "-gen-seed", "30")
	a, _ := json.Marshal(fresh.Results[0].Report)
	b, _ := json.Marshal(byHash[genHash(30)].Report)
	if !bytes.Equal(a, b) {
		t.Errorf("rehydrated report differs from fresh analysis:\n%s\nvs\n%s", b, a)
	}

	// After the resumed run the journal covers the whole corpus: a second
	// resume re-analyses nothing.
	again := runJSON(t, "-gen", "6", "-gen-seed", "30", "-journal", journal, "-resume")
	if again.StatusCounts[statusSkippedResume] != 6 || again.Jobs != 0 {
		t.Fatalf("second resume: %+v jobs=%d", again.StatusCounts, again.Jobs)
	}
}

// TestQssdResumeQuarantinesJournalledPanics checks a net journalled as
// panicked is refused on resume (quarantined), not re-run.
func TestQssdResumeQuarantinesJournalledPanics(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	ent, err := json.Marshal(jnl.Entry{
		Hash:   genHash(40),
		Source: "gen:40",
		Status: string(engine.StatusPanicked),
		Error:  "engine: job panicked: synthetic for test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, append(ent, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	rep := runJSON(t, "-gen", "2", "-gen-seed", "40", "-journal", journal, "-resume")
	if rep.StatusCounts[string(engine.StatusQuarantined)] != 1 || rep.StatusCounts["ok"] != 1 {
		t.Fatalf("status counts: %+v", rep.StatusCounts)
	}
	for _, r := range rep.Results {
		if r.Source == "gen:40" {
			if r.Status != string(engine.StatusQuarantined) || r.Error == "" {
				t.Fatalf("journalled panic net: %+v", r)
			}
		}
	}
	// The quarantine refusal is itself journalled, so the next resume
	// still refuses it.
	entries, err := jnl.Read(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := entries[genHash(40)].Status; got != string(engine.StatusQuarantined) {
		t.Fatalf("journal now records %q for the poisoned net", got)
	}
}

func TestQssdResumeRequiresJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-resume", "-gen", "1"}, &buf); err == nil {
		t.Fatal("-resume without -journal must error")
	}
}

// TestQssdCompactJournal runs the same corpus twice (doubling every
// hash's line count), tears a final line, and plants a quarantine record
// for an unrelated net; -compact must fold the file to one line per hash,
// keep the quarantine record, and leave -resume behaviour unchanged.
func TestQssdCompactJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	runJSON(t, "-gen", "3", "-gen-seed", "50", "-journal", journal)
	runJSON(t, "-gen", "3", "-gen-seed", "50", "-journal", journal)

	quarantined, err := json.Marshal(jnl.Entry{
		Hash:   genHash(60),
		Source: "gen:60",
		Status: string(engine.StatusPanicked),
		Error:  "engine: job panicked: synthetic for test",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(quarantined, []byte("\n{\"hash\":\"torn")...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before, err := jnl.Read(journal)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-journal", journal, "-compact"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("8 lines -> 4 entries")) {
		t.Fatalf("compact summary: %q", buf.String())
	}

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("compacted journal has %d lines, want 4:\n%s", len(lines), raw)
	}
	var prevHash string
	for _, line := range lines {
		var ent jnl.Entry
		if err := json.Unmarshal(line, &ent); err != nil {
			t.Fatalf("compacted line %q: %v", line, err)
		}
		if ent.Hash <= prevHash {
			t.Fatalf("compacted journal not sorted by hash: %q after %q", ent.Hash, prevHash)
		}
		prevHash = ent.Hash
	}

	after, err := jnl.Read(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction changed the entry set: %d -> %d", len(before), len(after))
	}
	for h, want := range before {
		got, ok := after[h]
		if !ok {
			t.Fatalf("compaction dropped hash %s", h)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("compaction changed entry %s:\n%s\nvs\n%s", h, a, b)
		}
	}
	if after[genHash(60)].Status != string(engine.StatusPanicked) {
		t.Fatal("compaction lost the quarantine record")
	}

	// The compacted journal still resumes: seeds 50-52 skipped, 60
	// refused, 53 analysed fresh.
	rep := runJSON(t, "-gen", "4", "-gen-seed", "50", "-journal", journal, "-resume")
	if rep.StatusCounts[statusSkippedResume] != 3 || rep.StatusCounts["ok"] != 1 {
		t.Fatalf("resume after compaction: %+v", rep.StatusCounts)
	}
}

func TestQssdCompactRequiresJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-compact"}, &buf); err == nil {
		t.Fatal("-compact without -journal must error")
	}
}

// TestQssdJournalRoundTripsTiming pins the tentpole's journal contract:
// with -mk/-margin the journalled reports carry the timing verdict and
// margins, -compact preserves them, and a -resume rehydrates them
// byte-identically to a fresh analysis.
func TestQssdJournalRoundTripsTiming(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	first := runJSON(t, "-gen", "2", "-gen-seed", "80", "-mk", "9,10", "-margin", "-journal", journal)
	if first.StatusCounts["ok"] != 2 {
		t.Fatalf("first run: %+v", first.StatusCounts)
	}
	for _, r := range first.Results {
		tr := r.Report.Timing
		if tr == nil || tr.Verdict == nil || len(tr.Margins) != 2 {
			t.Fatalf("net %s: report missing timing verdict/margins: %+v", r.Source, tr)
		}
	}

	var buf bytes.Buffer
	if err := run([]string{"-journal", journal, "-compact"}, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := jnl.Read(journal)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(80); seed < 82; seed++ {
		rep, ok := decodeReport(entries[genHash(seed)].Report)
		if !ok || rep == nil || rep.Timing == nil || rep.Timing.Verdict == nil {
			t.Fatalf("compacted journal lost timing for seed %d: %+v", seed, rep)
		}
	}

	resumed := runJSON(t, "-gen", "2", "-gen-seed", "80", "-mk", "9,10", "-margin", "-journal", journal, "-resume")
	if resumed.StatusCounts[statusSkippedResume] != 2 || resumed.Jobs != 0 {
		t.Fatalf("resume after compaction: %+v jobs=%d", resumed.StatusCounts, resumed.Jobs)
	}
	fresh := runJSON(t, "-gen", "2", "-gen-seed", "80", "-mk", "9,10", "-margin")
	byHash := map[string][]byte{}
	for _, r := range resumed.Results {
		b, _ := json.Marshal(r.Report.Timing)
		byHash[r.Report.Hash] = b
	}
	for _, r := range fresh.Results {
		want, _ := json.Marshal(r.Report.Timing)
		if got := byHash[r.Report.Hash]; !bytes.Equal(got, want) {
			t.Errorf("rehydrated timing differs from fresh analysis for %s:\n%s\nvs\n%s",
				r.Source, got, want)
		}
	}
}

func TestQssdMarginRequiresMK(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-margin", "-gen", "1"}, &buf); err == nil {
		t.Fatal("-margin without -mk must error")
	}
}
