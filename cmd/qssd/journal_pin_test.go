package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"fcpn/internal/coord"
	"fcpn/internal/engine"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// elapsedField is a journal line's one timing field.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[-+.0-9eE]+`)

// journalDigest is the line count of the journal files and the SHA-256
// of their lines with each line's elapsed_ms set to 0 and the lines
// sorted: what a journal records, independent of timings and of
// completion order.
func journalDigest(t *testing.T, paths ...string) string {
	t.Helper()
	var lines []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" {
				continue
			}
			if loc := elapsedField.FindStringIndex(line); loc != nil {
				line = line[:loc[0]] + `"elapsed_ms":0` + line[loc[1]:]
			}
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%d lines, sha256 %s", len(lines), hex.EncodeToString(sum[:]))
}

// pinNets returns the sources of n generated pipelines from seed on,
// with pairwise distinct canonical hashes.
func pinNets(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for ; len(out) < n; seed++ {
		net := netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		if h := net.CanonicalHash(); !seen[h] {
			seen[h] = true
			out = append(out, petri.Format(net))
		}
	}
	return out
}

func pinHash(t *testing.T, src string) string {
	t.Helper()
	n, err := petri.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n.CanonicalHash()
}

// pinPost posts a net and returns the status code.
func pinPost(t *testing.T, base, src string) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// faultHook times out the job of slow (it waits for its deadline) and
// panics in the job of poison.
func faultHook(slow, poison string) func(context.Context, string) error {
	return func(ctx context.Context, hash string) error {
		switch hash {
		case slow:
			<-ctx.Done()
			return context.Cause(ctx)
		case poison:
			panic("pinned poison")
		}
		return nil
	}
}

// TestJournalBytesPinned pins the bytes of the journals each writer
// leaves: the batch front end's journal, its -compact and -merge
// rewrites, a service's shard journals with a timeout and a panic among
// them, and a coordinator's journal after a boot fold, a reissue and
// live traffic. The digests ignore elapsed_ms and line order.
func TestJournalBytesPinned(t *testing.T) {
	dir := t.TempDir()
	got := map[string]string{}

	batch := filepath.Join(dir, "batch.jsonl")
	runJSON(t, "-gen", "40", "-gen-seed", "5", "-workers", "1", "-mk", "9,10", "-margin", "-journal", batch)
	got["batch"] = journalDigest(t, batch)

	raw, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	compacted := filepath.Join(dir, "compacted.jsonl")
	if err := os.WriteFile(compacted, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-journal", compacted, "-compact"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got["compact"] = journalDigest(t, compacted)

	second := filepath.Join(dir, "second.jsonl")
	runJSON(t, "-gen", "10", "-gen-seed", "40", "-workers", "1", "-journal", second)
	merged := filepath.Join(dir, "merged.jsonl")
	if err := run([]string{"-merge", "-journal", merged, batch, second}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got["merge"] = journalDigest(t, merged)

	// A two-shard service: ten distinct nets, one timeout, one panic.
	nets := pinNets(t, 200, 12)
	serveDir := filepath.Join(dir, "serve")
	srv, err := server.New(server.Config{
		Shards:     2,
		JournalDir: serveDir,
		Engine: engine.Config{Workers: 1, JobTimeout: time.Second,
			FaultHook: faultHook(pinHash(t, nets[10]), pinHash(t, nets[11]))},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	for i, src := range nets {
		want := http.StatusOK
		switch i {
		case 10:
			want = http.StatusGatewayTimeout
		case 11:
			want = http.StatusInternalServerError
		}
		if code := pinPost(t, hs.URL, src); code != want {
			t.Fatalf("service net %d: status %d, want %d", i, code, want)
		}
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got["serve"] = journalDigest(t, filepath.Join(serveDir, "shard-0.jsonl"), filepath.Join(serveDir, "shard-1.jsonl"))

	// A coordinator folds a backend journal (three reports and a timeout
	// that carries its net), reissues the timeout to a healthy backend,
	// then relays five nets it has not seen.
	nets = pinNets(t, 300, 9)
	backendDir := filepath.Join(dir, "backend")
	bs, err := server.New(server.Config{
		JournalDir: backendDir,
		Engine:     engine.Config{Workers: 1, JobTimeout: time.Second, FaultHook: faultHook(pinHash(t, nets[3]), "")},
	})
	if err != nil {
		t.Fatal(err)
	}
	bh := httptest.NewServer(bs.Handler())
	for i, src := range nets[:4] {
		want := http.StatusOK
		if i == 3 {
			want = http.StatusGatewayTimeout
		}
		if code := pinPost(t, bh.URL, src); code != want {
			t.Fatalf("backend net %d: status %d, want %d", i, code, want)
		}
	}
	bh.Close()
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}

	live, err := server.New(server.Config{Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	lh := httptest.NewServer(live.Handler())
	defer lh.Close()
	coordJournal := filepath.Join(dir, "coord.jsonl")
	c, err := coord.New(coord.Config{
		Backends:        []string{lh.URL},
		Journal:         coordJournal,
		BackendJournals: []string{filepath.Join(backendDir, "shard-0.jsonl")},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := httptest.NewServer(c.Handler())
	deadline := time.Now().Add(30 * time.Second)
	for c.StatsReport().Requests.Reissues < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the journalled timeout was never reissued")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, src := range nets[4:] {
		if code := pinPost(t, ch.URL, src); code != http.StatusOK {
			t.Fatalf("coordinated net %d: status %d", i, code)
		}
	}
	ch.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got["coord"] = journalDigest(t, coordJournal)

	want := map[string]string{
		"batch":   "40 lines, sha256 01dfe93fc805293ea895eeeeef2b632b121e03442e10ed369e60514b1de78643",
		"compact": "39 lines, sha256 8bb7f6e511f2e73eb1d784bd271b25a0c97bf12181d653d3261742207bce729a",
		"merge":   "44 lines, sha256 354cd88c1f3e42ac72e64b3441403931cdf6cd7f44569707baf4d7aedfc270a0",
		"serve":   "12 lines, sha256 d52eb2042dfd7f50bbbd287a52ada53184be2701f240fbe35d772df1f5a195e9",
		"coord":   "10 lines, sha256 f34d1cc5049c2bd19323d8ed110e4edf0ab8b63fa5942a3afb0fd31ce0c29e8e",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s journal digest %s, want %s", name, got[name], w)
		}
	}
}
