package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/figures"
	"fcpn/internal/journal"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// newTestServer boots a service and an httptest front end; both are torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post submits .pn source to /v1/analyze and decodes the envelope.
func post(t *testing.T, base, src string) (int, AnalyzeResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("bad envelope: %v", err)
	}
	return resp.StatusCode, env
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// permuteSource reorders a .pn net's declarations — transitions before
// places, each block reversed — without touching names or arcs. The
// parsed net is isomorphic to the original (identical canonical hash)
// but its internal place/transition indices are permuted, which is
// exactly the "same structure, different submission" case the
// content-addressed service must collapse.
func permuteSource(t *testing.T, src string) string {
	t.Helper()
	var header, places, trans, rest []string
	for _, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "net "):
			header = append(header, line)
		case strings.HasPrefix(line, "place "):
			places = append(places, line)
		case strings.HasPrefix(line, "trans "):
			trans = append(trans, line)
		default:
			rest = append(rest, line)
		}
	}
	for i, j := 0, len(places)-1; i < j; i, j = i+1, j-1 {
		places[i], places[j] = places[j], places[i]
	}
	for i, j := 0, len(trans)-1; i < j; i, j = i+1, j-1 {
		trans[i], trans[j] = trans[j], trans[i]
	}
	var out []string
	out = append(out, header...)
	out = append(out, trans...)
	out = append(out, places...)
	out = append(out, rest...)
	return strings.Join(out, "\n") + "\n"
}

func TestServiceAnalyzeLookupAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2}})
	n := figures.Figure5()
	src := petri.Format(n)

	code, cold := post(t, ts.URL, src)
	if code != http.StatusOK || cold.Status != "ok" || cold.Cache != "miss" {
		t.Fatalf("cold POST: code=%d env=%+v", code, cold)
	}
	if want := n.CanonicalHash(); cold.Hash != want {
		t.Fatalf("hash = %s, want %s", cold.Hash, want)
	}
	var rep engine.NetReport
	if err := json.Unmarshal(cold.Report, &rep); err != nil || !rep.Schedulable {
		t.Fatalf("cold report not schedulable: err=%v rep=%+v", err, rep)
	}

	code, warm := post(t, ts.URL, src)
	if code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm POST: code=%d env=%+v", code, warm)
	}
	if !bytes.Equal(cold.Report, warm.Report) {
		t.Fatalf("warm report differs from cold:\n%s\nvs\n%s", warm.Report, cold.Report)
	}

	// Content-addressed lookup.
	code, body := get(t, ts.URL+"/v1/report/"+cold.Hash)
	if code != http.StatusOK {
		t.Fatalf("report lookup: %d %s", code, body)
	}
	var looked AnalyzeResponse
	if err := json.Unmarshal(body, &looked); err != nil || !bytes.Equal(looked.Report, cold.Report) {
		t.Fatalf("lookup report differs: err=%v", err)
	}
	if code, _ := get(t, ts.URL+"/v1/report/no-such-hash"); code != http.StatusNotFound {
		t.Fatalf("unknown hash: code=%d, want 404", code)
	}

	// Malformed source.
	if code, env := post(t, ts.URL, "this is not a net"); code != http.StatusBadRequest || env.Error == "" {
		t.Fatalf("bad source: code=%d env=%+v", code, env)
	}

	// Stats reflect the traffic, including engine snapshot and trace.
	code, body = get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st StatsReport
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.Requests.Analyze != 3 || st.Requests.AnalyzeHits != 1 ||
		st.Requests.AnalyzeMisses != 1 || st.Requests.ParseErrors != 1 ||
		st.Requests.ReportLookups != 2 || st.Requests.ReportMisses != 1 {
		t.Fatalf("request counters: %+v", st.Requests)
	}
	if st.Totals.Jobs != 1 || st.PerShard[0].Reports != 1 {
		t.Fatalf("totals/per-shard: %+v %+v", st.Totals, st.PerShard)
	}
	if st.PerShard[0].Engine.Trace == nil || len(st.PerShard[0].Engine.Trace.Phases) == 0 {
		t.Fatal("per-shard engine snapshot missing trace phase totals")
	}

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz not ok")
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz not ok")
	}
}

// TestServiceIsomorphicByteIdentity is the acceptance criterion: two
// front doors, one truth. Isomorphic nets — same names, permuted
// declaration order — submitted as separate requests across a sharded
// server return byte-identical NetReport JSON modulo the cache marker,
// cold and warm, and a fresh server analysing the permuted form cold
// agrees byte-for-byte with the original server's cold run.
func TestServiceIsomorphicByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4, Engine: engine.Config{Workers: 2}})
	twin, twinTS := newTestServer(t, Config{Shards: 4, Engine: engine.Config{Workers: 1}})

	sources := map[string]string{
		"figure2": petri.Format(figures.Figure2()),
		"figure5": petri.Format(figures.Figure5()),
		"figure7": petri.Format(figures.Figure7()),
	}
	usedShards := map[int]bool{}
	for name, src := range sources {
		perm := permuteSource(t, src)
		if perm == src {
			t.Fatalf("%s: permutation is a no-op", name)
		}
		code, cold := post(t, ts.URL, src)
		if code != http.StatusOK || cold.Cache != "miss" {
			t.Fatalf("%s cold: code=%d env=%+v", name, code, cold)
		}
		code, warm := post(t, ts.URL, perm)
		if code != http.StatusOK {
			t.Fatalf("%s permuted: code=%d", name, code)
		}
		if warm.Hash != cold.Hash {
			t.Fatalf("%s: permuted net hashes differently: %s vs %s", name, warm.Hash, cold.Hash)
		}
		if warm.Cache != "hit" {
			t.Fatalf("%s: permuted resubmission missed the store: %+v", name, warm)
		}
		if !bytes.Equal(cold.Report, warm.Report) {
			t.Fatalf("%s: permuted report differs from original:\n%s\nvs\n%s", name, warm.Report, cold.Report)
		}
		usedShards[cold.Shard] = true

		// Cold-vs-cold across servers: the twin analyses the permuted
		// form first (no store to hit) and must produce the same bytes.
		code, twinCold := post(t, twinTS.URL, perm)
		if code != http.StatusOK || twinCold.Cache != "miss" {
			t.Fatalf("%s twin cold: code=%d env=%+v", name, code, twinCold)
		}
		if !bytes.Equal(twinCold.Report, cold.Report) {
			t.Fatalf("%s: twin server cold report differs:\n%s\nvs\n%s", name, twinCold.Report, cold.Report)
		}
	}
	if len(usedShards) < 2 {
		t.Errorf("corpus exercised only shards %v; want at least 2 of 4", usedShards)
	}
	_ = twin
}

// TestServiceAdmissionControl saturates a one-worker, one-slot shard and
// checks the service answers 429 + Retry-After instead of queueing, then
// recovers once the slot frees.
func TestServiceAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	release := make(chan struct{})
	var blocked bool
	var hooked atomic.Bool
	_, ts := newTestServer(t, Config{Engine: engine.Config{
		Workers:      1,
		SubmitWindow: 1,
		FaultHook: func(ctx context.Context, hash string) error {
			// Block exactly the first job so the window stays full while
			// the test probes; later jobs run free. The send waits for the
			// test's receive: on a loaded host the job can reach the engine
			// before the test goroutine reaches its select.
			if hooked.CompareAndSwap(false, true) {
				block <- struct{}{}
				<-release
			}
			return nil
		},
	}})

	slow := petri.Format(figures.Figure5())
	fast := petri.Format(figures.Figure2())

	done := make(chan AnalyzeResponse, 1)
	go func() {
		_, env := post(t, ts.URL, slow)
		done <- env
	}()
	select {
	case <-block:
		blocked = true
	case <-time.After(5 * time.Second):
		t.Fatal("first job never reached the engine")
	}

	code, env := post(t, ts.URL, fast)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated window: code=%d env=%+v, want 429", code, env)
	}
	if env.RetryAfterSec < 1 || env.Error == "" {
		t.Fatalf("429 envelope missing retry hint: %+v", env)
	}

	close(release)
	first := <-done
	if first.Status != "ok" || first.Cache != "miss" {
		t.Fatalf("blocked job did not complete: %+v", first)
	}
	if code, env := post(t, ts.URL, fast); code != http.StatusOK || env.Status != "ok" {
		t.Fatalf("post-drain POST: code=%d env=%+v", code, env)
	}
	if !blocked {
		t.Fatal("fault hook never blocked")
	}
}

// TestServiceQuarantine checks a panicking net is answered 500, its hash
// is quarantined, and resubmission is refused with 422 and the reason.
func TestServiceQuarantine(t *testing.T) {
	poison := figures.Figure5().CanonicalHash()
	_, ts := newTestServer(t, Config{Engine: engine.Config{
		Workers: 1,
		FaultHook: func(ctx context.Context, hash string) error {
			if hash == poison {
				panic("synthetic fault for test")
			}
			return nil
		},
	}})
	src := petri.Format(figures.Figure5())

	code, env := post(t, ts.URL, src)
	if code != http.StatusInternalServerError || env.Status != string(engine.StatusPanicked) {
		t.Fatalf("poisoned POST: code=%d env=%+v", code, env)
	}
	code, env = post(t, ts.URL, src)
	if code != http.StatusUnprocessableEntity || env.Status != string(engine.StatusQuarantined) || env.Error == "" {
		t.Fatalf("resubmission: code=%d env=%+v, want 422 with reason", code, env)
	}
	// Healthy nets keep flowing.
	if code, env := post(t, ts.URL, petri.Format(figures.Figure2())); code != http.StatusOK || env.Status != "ok" {
		t.Fatalf("healthy net after quarantine: code=%d env=%+v", code, env)
	}
}

// TestServiceJournalWarmBoot checks the journal lifecycle: a restarted
// server serves journalled reports from its store without re-analysis,
// byte-identically, and journalled panics stay quarantined across the
// restart.
func TestServiceJournalWarmBoot(t *testing.T) {
	dir := t.TempDir()
	poison := figures.Figure2().CanonicalHash()
	hook := func(ctx context.Context, hash string) error {
		if hash == poison {
			panic("synthetic fault for test")
		}
		return nil
	}

	a, err := New(Config{Shards: 2, JournalDir: dir, Engine: engine.Config{Workers: 1, FaultHook: hook}})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	src := petri.Format(figures.Figure5())
	code, cold := post(t, tsA.URL, src)
	if code != http.StatusOK {
		t.Fatalf("cold POST: %d", code)
	}
	if code, _ := post(t, tsA.URL, petri.Format(figures.Figure2())); code != http.StatusInternalServerError {
		t.Fatalf("poisoned POST: %d", code)
	}
	tsA.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot, no fault hook: the journal is the only memory.
	b, err := New(Config{Shards: 2, JournalDir: dir, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer func() {
		tsB.Close()
		b.Close()
	}()

	code, body := get(t, tsB.URL+"/v1/report/"+cold.Hash)
	if code != http.StatusOK {
		t.Fatalf("replayed report lookup: %d %s", code, body)
	}
	var looked AnalyzeResponse
	if err := json.Unmarshal(body, &looked); err != nil || !bytes.Equal(looked.Report, cold.Report) {
		t.Fatalf("replayed report differs from original cold report: err=%v\n%s\nvs\n%s", err, looked.Report, cold.Report)
	}
	code, env := post(t, tsB.URL, src)
	if code != http.StatusOK || env.Cache != "hit" || !bytes.Equal(env.Report, cold.Report) {
		t.Fatalf("warm-boot POST must hit the replayed store: code=%d cache=%s", code, env.Cache)
	}
	code, env = post(t, tsB.URL, petri.Format(figures.Figure2()))
	if code != http.StatusUnprocessableEntity || env.Status != string(engine.StatusQuarantined) {
		t.Fatalf("journalled panic must stay quarantined across boots: code=%d env=%+v", code, env)
	}
	if st := b.StatsReport(); st.Totals.Jobs != 0 {
		t.Fatalf("warm boot ran %d engine jobs; everything should come from the journal", st.Totals.Jobs)
	}
}

// TestServiceDrain checks the shutdown sequence: Drain turns /readyz 503
// and refuses new analyses while /healthz stays 200, and Close flushes
// journals that a subsequent merge can read.
func TestServiceDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Shards: 2, JournalDir: dir, Engine: engine.Config{Workers: 1}})
	if code, _ := post(t, ts.URL, petri.Format(figures.Figure5())); code != http.StatusOK {
		t.Fatal("pre-drain POST failed")
	}
	s.Drain()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("draining server must fail readiness")
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("draining server must stay healthy (alive)")
	}
	if code, _ := post(t, ts.URL, petri.Format(figures.Figure2())); code != http.StatusServiceUnavailable {
		t.Fatal("draining server must refuse new analyses")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The flushed shard journals merge into one resumable journal.
	merged := dir + "/merged.jsonl"
	if _, n, err := journal.Merge(merged, []string{
		dir + "/shard-0.jsonl", dir + "/shard-1.jsonl",
	}); err != nil || n != 1 {
		t.Fatalf("merging flushed journals: n=%d err=%v", n, err)
	}
	entries, err := journal.Read(merged)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := entries[figures.Figure5().CanonicalHash()]
	if !ok || ent.Status != string(engine.StatusOK) || ent.Report == nil {
		t.Fatalf("merged journal missing the completed job: %+v", ent)
	}
}

// TestServiceJournalsReplyBytes posts distinct nets concurrently to a
// journaling service: each miss's one encoding of its report is the
// journalled report and the reply's, byte for byte.
func TestServiceJournalsReplyBytes(t *testing.T) {
	dir := t.TempDir()
	// A wide submit window keeps admission control out of the picture.
	s, ts := newTestServer(t, Config{Shards: 2, JournalDir: dir, Engine: engine.Config{Workers: 2, SubmitWindow: 64}})
	var srcs []string
	for seed := uint64(60); len(srcs) < 8; seed++ {
		srcs = append(srcs, petri.Format(netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())))
	}
	replies := make([]AnalyzeResponse, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("net %d: status %d, decode error %v", i, resp.StatusCode, err)
			}
		}()
	}
	wg.Wait()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := journal.Read(fmtShardJournal(dir, 0), fmtShardJournal(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		ent, ok := entries[r.Hash]
		if !ok || ent.Status != string(engine.StatusOK) || !bytes.Equal(ent.Report, r.Report) {
			t.Errorf("net %d: journalled %+v, replied %s", i, ent, r.Report)
		}
	}
}

// TestServiceShardRouting pins the router: a hash routes to the shard
// named by its hex prefix, deterministically, for any shard count.
func TestServiceShardRouting(t *testing.T) {
	s, err := New(Config{Shards: 4, Engine: engine.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, hash := range []string{
		"00000000aaaa", "00000001bbbb", "00000002cccc", "00000003dddd", "00000004eeee",
	} {
		if got := s.shardFor(hash).id; got != i%4 {
			t.Errorf("shardFor(%s) = %d, want %d", hash, got, i%4)
		}
	}
	if a, b := s.shardFor("zz-not-hex"), s.shardFor("zz-not-hex"); a != b {
		t.Error("non-hex hash must still route deterministically")
	}
}

func TestServiceBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64, Engine: engine.Config{Workers: 1}})
	var sb strings.Builder
	sb.WriteString("net big\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, "place p%d\n", i)
	}
	big := sb.String()
	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("oversized body: code=%d %s, want 413", resp.StatusCode, b)
	}
}

// TestServiceConcurrentIdenticalPosts floods one net through many
// concurrent requests: every accepted response carries identical report
// bytes, and rejected ones are clean 429s.
func TestServiceConcurrentIdenticalPosts(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2, SubmitWindow: 2}})
	src := petri.Format(figures.Figure5())
	const N = 16
	type outcome struct {
		code int
		env  AnalyzeResponse
	}
	results := make(chan outcome, N)
	for i := 0; i < N; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(src))
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			defer resp.Body.Close()
			var env AnalyzeResponse
			json.NewDecoder(resp.Body).Decode(&env)
			results <- outcome{code: resp.StatusCode, env: env}
		}()
	}
	var okReports [][]byte
	var rejected int
	for i := 0; i < N; i++ {
		o := <-results
		switch o.code {
		case http.StatusOK:
			okReports = append(okReports, o.env.Report)
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected response: %+v", o)
		}
	}
	if len(okReports) == 0 {
		t.Fatal("no request succeeded")
	}
	for i, r := range okReports[1:] {
		if !bytes.Equal(r, okReports[0]) {
			t.Fatalf("response %d differs under concurrency", i+1)
		}
	}
	t.Logf("%d ok, %d rejected by admission control", len(okReports), rejected)
}

// TestServiceDrainUnderLoad races a batch of concurrent analyses
// against Drain: every request must finish as either a 200 with a
// complete, parseable report or a clean 503 refusal envelope — never a
// torn body, never a hung handler. This is the backend half of the
// coordinator's rolling-restart story: a drain mid-batch shows up
// upstream as retryable 503s, not corruption.
func TestServiceDrainUnderLoad(t *testing.T) {
	// A wide submit window keeps admission control out of the picture:
	// the only refusal in play is the drain's 503.
	s, ts := newTestServer(t, Config{Shards: 2, Engine: engine.Config{Workers: 2, SubmitWindow: 64}})

	srcs := []string{
		petri.Format(figures.Figure2()),
		petri.Format(figures.Figure5()),
		petri.Format(figures.Figure7()),
	}
	for seed := uint64(40); len(srcs) < 24; seed++ {
		srcs = append(srcs, petri.Format(netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())))
	}

	hc := &http.Client{Timeout: 30 * time.Second}
	var finished atomic.Int64
	var wg sync.WaitGroup
	type outcome struct {
		code int
		body []byte
		err  error
	}
	results := make(chan outcome, len(srcs))
	for _, src := range srcs {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			defer finished.Add(1)
			resp, err := hc.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(src))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				results <- outcome{code: resp.StatusCode, err: rerr}
				return
			}
			results <- outcome{code: resp.StatusCode, body: body}
		}(src)
	}
	// Drain mid-batch: some requests have already completed, the rest
	// race the flag.
	for finished.Load() < int64(len(srcs))/4 {
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	wg.Wait()
	close(results)

	var completed, refused int
	for o := range results {
		if o.err != nil {
			t.Fatalf("request neither completed nor cleanly refused: %v", o.err)
		}
		if !json.Valid(o.body) {
			t.Fatalf("torn response body (code %d): %q", o.code, o.body)
		}
		var env AnalyzeResponse
		if err := json.Unmarshal(o.body, &env); err != nil {
			t.Fatalf("unparsable envelope (code %d): %q", o.code, o.body)
		}
		switch o.code {
		case http.StatusOK:
			if env.Status != "ok" || len(env.Report) == 0 || !json.Valid(env.Report) {
				t.Fatalf("accepted request without a full report: %+v", env)
			}
			completed++
		case http.StatusServiceUnavailable:
			if env.Error == "" {
				t.Fatalf("503 without an error message: %q", o.body)
			}
			refused++
		default:
			t.Fatalf("unexpected status %d: %q", o.code, o.body)
		}
	}
	if completed == 0 {
		t.Fatal("drain raced ahead of every request; nothing completed")
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("drained server must fail readiness")
	}
	t.Logf("drain under load: %d completed, %d cleanly refused", completed, refused)
}

func fmtShardJournal(dir string, i int) string {
	return fmt.Sprintf("%s/shard-%d.jsonl", dir, i)
}
