package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	jnl "fcpn/internal/journal"
)

// syncBuf is a goroutine-safe Writer: runServe writes its address line
// from the serving goroutine while the test polls for it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServe boots "qssd serve" on an ephemeral port with a test-owned
// signal channel and returns the base URL, a stop function (signals and
// waits for graceful exit) and the output buffer.
func startServe(t *testing.T, extra ...string) (string, func() string, *syncBuf) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	oldSignals := serveSignals
	serveSignals = func() (<-chan os.Signal, func()) { return sig, func() {} }
	t.Cleanup(func() { serveSignals = oldSignals })

	out := &syncBuf{}
	errc := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	go func() { errc <- run(args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "qssd: serving on ") {
				base = strings.Fields(line)[3]
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("serve exited early: %v (output %q)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	stop := func() string {
		sig <- os.Interrupt
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("serve shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not shut down")
		}
		return out.String()
	}
	return base, stop, out
}

// TestQssdServeClientRoundTrip is the CLI smoke of the tentpole: boot
// the service, drive a corpus through it with the HTTP client mode, and
// check the batch report splits cold misses from warm hits.
func TestQssdServeClientRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base, stop, _ := startServe(t, "-shards", "2", "-journal-dir", dir)

	outPath := filepath.Join(dir, "report.json")
	var buf bytes.Buffer
	err := run([]string{"-server", base, "-gen", "4", "-gen-seed", "90", "-repeat", "2", "-workers", "2", "-o", outPath}, &buf)
	if err != nil {
		t.Fatalf("client run: %v", err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep batchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ServerURL != base {
		t.Errorf("server_url = %q, want %q", rep.ServerURL, base)
	}
	if rep.StatusCounts["ok"] != 4 || rep.Jobs != 8 {
		t.Fatalf("status counts %+v jobs %d", rep.StatusCounts, rep.Jobs)
	}
	if rep.ColdCache["miss"] != 4 {
		t.Errorf("cold cache = %+v, want 4 misses", rep.ColdCache)
	}
	if rep.WarmCache["hit"] != 4 {
		t.Errorf("warm cache = %+v, want 4 hits", rep.WarmCache)
	}
	if rep.RequestsPerSec <= 0 {
		t.Errorf("requests_per_sec = %v", rep.RequestsPerSec)
	}
	if len(rep.ServerStats) == 0 {
		t.Error("server_stats missing")
	}
	for _, r := range rep.Results {
		if r.Report == nil || !r.Report.Schedulable || r.Cache != "miss" {
			t.Fatalf("client result %+v lacks a cold-miss schedulable report", r.Source)
		}
	}

	output := stop()
	if !strings.Contains(output, "drained and flushed") {
		t.Errorf("shutdown output: %q", output)
	}
	// The service journalled the corpus; folding the shard journals must
	// recover all four analyses.
	shardFiles, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shardFiles) != 2 {
		t.Fatalf("shard journals: %v %v", shardFiles, err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	var mbuf bytes.Buffer
	if err := run(append([]string{"-merge", "-journal", merged}, shardFiles...), &mbuf); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !strings.Contains(mbuf.String(), "merged 2 journals:") {
		t.Errorf("merge summary: %q", mbuf.String())
	}
	entries, err := jnl.Read(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("merged journal has %d entries, want 4", len(entries))
	}
	// And the merged journal resumes a local batch run: nothing re-runs.
	resumed := runJSON(t, "-gen", "4", "-gen-seed", "90", "-journal", merged, "-resume")
	if resumed.StatusCounts[statusSkippedResume] != 4 || resumed.Jobs != 0 {
		t.Fatalf("resume from merged service journal: %+v jobs=%d", resumed.StatusCounts, resumed.Jobs)
	}
}

func TestQssdServeFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"serve", "-shards", "0"},
		{"serve", "-workers", "-1"},
		{"serve", "-submit-window", "-2"},
		{"serve", "-job-timeout", "-1s"},
		{"serve", "stray.pn"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%v: want error", args)
		}
	}
}

func TestQssdBatchFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-workers", "-1", "-gen", "1"},
		{"-submit-window", "-3", "-gen", "1"},
		{"-job-timeout", "-5s", "-gen", "1"},
		{"-repeat", "0", "-gen", "1"},
		{"-repeat", "-2", "-gen", "1"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%v: want error", args)
		}
	}
}

func TestQssdMergeFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-merge"}, &buf); err == nil {
		t.Error("-merge without -journal must error")
	}
	if err := run([]string{"-merge", "-journal", filepath.Join(t.TempDir(), "out.jsonl")}, &buf); err == nil {
		t.Error("-merge without inputs must error")
	}
}

// TestQssdMergeFoldsJournals exercises the merge mode on journals from
// two separate batch runs with an overlapping net: later input wins and
// the result is compact (one sorted line per hash).
func TestQssdMergeFoldsJournals(t *testing.T) {
	dir := t.TempDir()
	j1 := filepath.Join(dir, "a.jsonl")
	j2 := filepath.Join(dir, "b.jsonl")
	runJSON(t, "-gen", "3", "-gen-seed", "100", "-journal", j1)
	runJSON(t, "-gen", "3", "-gen-seed", "102", "-journal", j2) // seed 102 overlaps

	out := filepath.Join(dir, "out.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-merge", "-journal", out, j1, j2}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "merged 2 journals: 6 lines -> 5 entries") {
		t.Fatalf("merge summary: %q", buf.String())
	}
	entries, err := jnl.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("merged entries = %d, want 5", len(entries))
	}
	for seed := uint64(100); seed < 105; seed++ {
		if _, ok := entries[genHash(seed)]; !ok {
			t.Errorf("merged journal missing seed %d", seed)
		}
	}
}
