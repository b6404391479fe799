package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// TestReportLookupRefusesMalformedHash: a {hash} that is not 64
// lowercase hex digits is an unknown report at both doors, and the
// coordinator refuses it before any upstream request. An escaped path
// such as ..%2F..%2Fhealthz must never reach another backend route.
func TestReportLookupRefusesMalformedHash(t *testing.T) {
	bs, b := bootBackend(t, server.Config{Shards: 2})
	c, front := bootCoord(t, fastConfig(b.URL))
	hexHash := strings.Repeat("ab", 32)
	cases := []struct{ seg, hash string }{ // path segment, decoded {hash}
		{"..%2F..%2Fhealthz", "../../healthz"},
		{"..%2F..%2Fv1%2Fstats", "../../v1/stats"},
		{"no-such-hash", "no-such-hash"},
		{strings.ToUpper(hexHash), strings.ToUpper(hexHash)},
		{hexHash[:63], hexHash[:63]},
		{hexHash + "0", hexHash + "0"},
		{hexHash[:62] + "%2F" + hexHash[:1], hexHash[:62] + "/" + hexHash[:1]},
	}
	for _, tc := range cases {
		seg, hash := tc.seg, tc.hash
		upstream := c.StatsReport().Backends[0].Requests
		got := roundTrip(t, http.MethodGet, front.URL+"/v1/report/"+seg, nil, false)
		want := encodeRef(AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{
			Hash: hash, Status: "error", Error: "unknown report hash"}})
		if got.code != http.StatusNotFound || !bytes.Equal(got.body, want) {
			t.Errorf("coordinator %s: %d %s, want 404 %s", seg, got.code, got.body, want)
		}
		if n := c.StatsReport().Backends[0].Requests; n != upstream {
			t.Errorf("coordinator %s: %d upstream requests, want none", seg, n-upstream)
		}

		got = roundTrip(t, http.MethodGet, b.URL+"/v1/report/"+seg, nil, false)
		want = encodeRef(server.AnalyzeResponse{Hash: hash, Shard: server.PrefixIndex(hash, 2),
			Status: "error", Error: "unknown report hash"})
		if got.code != http.StatusNotFound || !bytes.Equal(got.body, want) {
			t.Errorf("backend %s: %d %s, want 404 %s", seg, got.code, got.body, want)
		}
	}
	if st := bs.StatsReport().Requests; st.ReportMisses != int64(len(cases)) {
		t.Errorf("backend counted %d report misses, want %d", st.ReportMisses, len(cases))
	}
}

// TestReportLookupHonoursRetryAfter: a report lookup runs the analyze
// path's upstream loop, so a 503 with Retry-After is retried after at
// least the hinted wait, under a coord/retry span, and the answer is
// relayed with its backend and without an attempt count.
func TestReportLookupHonoursRetryAfter(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	envelope := server.AnalyzeResponse{Hash: hash, Cache: "hit", Status: "ok", Report: json.RawMessage(`{"name":"stub"}`)}
	var lookups atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		if lookups.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			server.WriteJSON(w, http.StatusServiceUnavailable, server.AnalyzeResponse{Status: "error", Error: "server is draining"})
			return
		}
		server.WriteJSON(w, http.StatusOK, envelope)
	}))
	defer stub.Close()
	c, front := bootCoord(t, fastConfig(stub.URL))

	t0 := time.Now()
	got := roundTrip(t, http.MethodGet, front.URL+"/v1/report/"+hash, nil, false)
	if d := time.Since(t0); d < time.Second {
		t.Errorf("lookup retried after %v, inside the 1 s Retry-After", d)
	}
	if want := encodeRef(AnalyzeResponse{AnalyzeResponse: envelope, Backend: stub.URL}); got.code != http.StatusOK || !bytes.Equal(got.body, want) {
		t.Fatalf("lookup after a retry: %d %s, want 200 %s", got.code, got.body, want)
	}
	rep := c.StatsReport()
	if p, ok := rep.Trace.Phase("coord/retry"); rep.Requests.Retries != 1 || !ok || p.Count != 1 {
		t.Fatalf("retries %d, coord/retry span %+v", rep.Requests.Retries, p)
	}
}

// requestCounts reads the two memo counters of a backend and a
// coordinator.
func requestCounts(bs *server.Server, c *Coordinator) (backendHits, backendParses, coordHits, coordParses int64) {
	b := bs.StatsReport().Requests
	r := c.StatsReport().Requests
	return b.MemoHits, b.Parses, r.MemoHits, r.Parses
}

// TestBodyMemoSkipsParse: an exact resubmission, through the backend
// and through the coordinator, runs neither petri.Parse nor the
// canonical form; a body that fails to parse is parsed every time.
func TestBodyMemoSkipsParse(t *testing.T) {
	bs, b := bootBackend(t, server.Config{})
	c, front := bootCoord(t, fastConfig(b.URL))
	src := petri.Format(figures.Figure5())
	counts := func() [4]int64 {
		bh, bp, ch, cp := requestCounts(bs, c)
		return [4]int64{bh, bp, ch, cp}
	}

	code, first := postCoord(t, front.URL, src)
	if code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("first POST: %d %+v", code, first)
	}
	if got := counts(); got != [4]int64{0, 1, 0, 1} {
		t.Fatalf("after a first submission: memo hits/parses (backend, coordinator) = %v, want [0 1 0 1]", got)
	}
	code, again := postCoord(t, front.URL, src)
	if code != http.StatusOK || again.Cache != "hit" || !bytes.Equal(again.Report, first.Report) {
		t.Fatalf("resubmission: %d %+v", code, again)
	}
	if got := counts(); got != [4]int64{1, 1, 1, 1} {
		t.Fatalf("after an exact resubmission: memo hits/parses = %v, want [1 1 1 1]", got)
	}
	if code, _ := postCoord(t, b.URL, src); code != http.StatusOK {
		t.Fatalf("direct resubmission: %d", code)
	}
	if got := counts(); got != [4]int64{2, 1, 1, 1} {
		t.Fatalf("after a direct resubmission: memo hits/parses = %v, want [2 1 1 1]", got)
	}
	if jobs := bs.StatsReport().Totals.Jobs; jobs != 1 {
		t.Fatalf("engine ran %d jobs, want 1", jobs)
	}

	// A twin is new bytes: parsed once at each door, then remembered.
	twin := shuffleArcs(src)
	postCoord(t, front.URL, twin)
	postCoord(t, front.URL, twin)
	if got := counts(); got != [4]int64{3, 2, 2, 2} {
		t.Fatalf("after a twin twice: memo hits/parses = %v, want [3 2 2 2]", got)
	}

	// Bodies that fail to parse are never remembered.
	for i := 0; i < 2; i++ {
		if code, _ := postCoord(t, front.URL, "this is not a net"); code != http.StatusBadRequest {
			t.Fatalf("coordinator parse error: %d", code)
		}
		if code, _ := postCoord(t, b.URL, "this is not a net"); code != http.StatusBadRequest {
			t.Fatalf("backend parse error: %d", code)
		}
	}
	if got := counts(); got != [4]int64{3, 4, 2, 4} {
		t.Fatalf("after failing bodies: memo hits/parses = %v, want [3 4 2 4]", got)
	}
}

// TestBodyMemoKeepsQuarantine: a memo hit on a quarantined hash is still
// refused with 422 and the recorded reason, at both doors.
func TestBodyMemoKeepsQuarantine(t *testing.T) {
	src := petri.Format(figures.Figure7())
	poison := figures.Figure7().CanonicalHash()
	bs, b := bootBackend(t, server.Config{Engine: engine.Config{
		Workers: 1,
		FaultHook: func(ctx context.Context, hash string) error {
			if hash == poison {
				panic("memo poison")
			}
			return nil
		},
	}})
	c, front := bootCoord(t, fastConfig(b.URL))
	if code, env := postCoord(t, front.URL, src); code != http.StatusInternalServerError {
		t.Fatalf("poisoned POST: %d %+v", code, env)
	}
	reason := engine.ErrJobPanicked.Error() + ": memo poison"
	code, env := postCoord(t, front.URL, src)
	if code != http.StatusUnprocessableEntity || env.Status != string(engine.StatusQuarantined) || env.Error != reason {
		t.Fatalf("memo hit on a quarantined hash: %d %+v, want 422 %q", code, env, reason)
	}
	if bh, bp, ch, cp := requestCounts(bs, c); bh != 1 || bp != 1 || ch != 1 || cp != 1 {
		t.Fatalf("memo hits/parses = %d %d %d %d, want 1 1 1 1", bh, bp, ch, cp)
	}
}

// TestBodyMemoReparsesUnstored: a memo hit whose hash has no stored
// report (its first run failed) parses the body again and is analysed.
func TestBodyMemoReparsesUnstored(t *testing.T) {
	src := petri.Format(figures.Figure5())
	target := figures.Figure5().CanonicalHash()
	var failed atomic.Bool
	bs, b := bootBackend(t, server.Config{Engine: engine.Config{
		Workers: 1,
		FaultHook: func(ctx context.Context, hash string) error {
			if hash == target && failed.CompareAndSwap(false, true) {
				return errors.New("first run fails")
			}
			return nil
		},
	}})
	c, front := bootCoord(t, fastConfig(b.URL))
	if code, env := postCoord(t, front.URL, src); code != http.StatusInternalServerError || env.Status != string(engine.StatusError) {
		t.Fatalf("failing first run: %d %+v", code, env)
	}
	code, env := postCoord(t, front.URL, src)
	if code != http.StatusOK || env.Cache != "miss" || env.Status != "ok" {
		t.Fatalf("memo hit without a stored report: %d %+v, want a 200 miss", code, env)
	}
	if bh, bp, ch, cp := requestCounts(bs, c); bh != 1 || bp != 2 || ch != 1 || cp != 1 {
		t.Fatalf("memo hits/parses = %d %d %d %d, want 1 2 1 1", bh, bp, ch, cp)
	}
	if jobs := bs.StatsReport().Totals.Jobs; jobs != 2 {
		t.Fatalf("engine ran %d jobs, want 2", jobs)
	}
}

// TestBodyMemoConcurrent races identical and distinct bodies through
// both doors: every answer is a 200 and every hash has one report.
func TestBodyMemoConcurrent(t *testing.T) {
	_, b := bootBackend(t, server.Config{Shards: 2, Engine: engine.Config{Workers: 2, SubmitWindow: 64}})
	_, front := bootCoord(t, fastConfig(b.URL))
	srcs := testCorpus(t, 6)
	for i := range srcs[:3] {
		srcs = append(srcs, shuffleArcs(srcs[i]))
	}
	var mu sync.Mutex
	reports := map[string][]byte{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(srcs); i++ {
				base := front.URL
				if (g+i)%2 == 0 {
					base = b.URL
				}
				src := srcs[0] // the identical body every goroutine sends
				if i%2 == 1 {
					src = srcs[(g+i)%len(srcs)]
				}
				resp, err := http.Post(base+"/v1/analyze", "text/plain", strings.NewReader(src))
				if err != nil {
					t.Error(err)
					return
				}
				var env AnalyzeResponse
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || env.Status != "ok" {
					t.Errorf("POST: %d %v %+v", resp.StatusCode, err, env)
					return
				}
				mu.Lock()
				if prev, ok := reports[env.Hash]; ok && !bytes.Equal(prev, env.Report) {
					t.Errorf("hash %s answered with two reports", env.Hash)
				}
				reports[env.Hash] = env.Report
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(reports) != 6 {
		t.Fatalf("%d distinct hashes, want 6", len(reports))
	}
}

// TestCoordNonObjectBodyIsGarbled: a 200 whose body is valid JSON but
// not an object is garbling. It counts against the breaker and the
// request fails over, and a bare-object body still splices to valid
// JSON.
func TestCoordNonObjectBodyIsGarbled(t *testing.T) {
	src := petri.Format(figures.Figure5())
	owner := server.PrefixIndex(figures.Figure5().CanonicalHash(), 2)
	_, live := bootBackend(t, server.Config{})
	for _, body := range []string{`["not","an","object"]`, `"ok"`, `42`, `null`} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
		}))
		backends := make([]string, 2)
		backends[owner], backends[1-owner] = stub.URL, live.URL
		cfg := fastConfig(backends...)
		cfg.ProbeInterval = time.Hour // only requests move the breakers
		c, front := bootCoord(t, cfg)
		code, env := postCoord(t, front.URL, src)
		if code != http.StatusOK || env.Status != "ok" || env.Backend != live.URL || !env.Failover {
			t.Errorf("owner answering %s: %d %+v, want a 200 failover to the live backend", body, code, env)
		}
		if f := c.StatsReport().Backends[owner].Failures; f != int64(cfg.BreakerThreshold) {
			t.Errorf("owner answering %s: %d breaker failures, want %d", body, f, cfg.BreakerThreshold)
		}
		stub.Close()
	}
	for _, body := range []string{"{}\n", " { } "} {
		out := splice([]byte(body), backendField("http://b"), false, false, 1)
		var env AnalyzeResponse
		if err := json.Unmarshal(out, &env); err != nil || env.Backend != "http://b" || env.Attempts != 1 {
			t.Errorf("splice(%q) = %q: %v", body, out, err)
		}
	}
}

// FuzzEnvelopeSplice: a backend envelope with the routing fields
// spliced in, the backend member built by backendField as New builds
// it, equals the reference encoding of the coordinator's envelope, for
// any field strings, numbers and compact report.
func FuzzEnvelopeSplice(f *testing.F) {
	f.Add("4f2a", "hit", 1, "ok", "", 0, []byte(`{"name":"fig5","schedulable":true}`), "http://127.0.0.1:8080", false, false, 1)
	f.Add("", "", 0, "error", "shard 0 submit window (1) is full", 1, []byte(nil), "", true, true, 4)
	f.Add("q\"\\", "miss", -3, "timeout", "\x00\x1f\u2028\u2029<>&\xff", 120, []byte(`{"a":"<<>"}`), "http://x/\"<&>\u2028", true, false, 0)
	f.Add("h", "hit", 7, "ok", "\b\f\n\r\t", -1, []byte(`{}`), `http://q"b\c<&>`, false, true, -2)
	f.Fuzz(func(t *testing.T, hash, cache string, shard int, status, msg string, retry int, report []byte,
		backend string, failover, hedged bool, attempts int) {
		var rep json.RawMessage
		if len(report) > 0 {
			var buf bytes.Buffer
			if json.Compact(&buf, report) != nil || buf.Bytes()[0] != '{' {
				t.Skip("not a JSON object")
			}
			rep = buf.Bytes()
		}
		env := server.AnalyzeResponse{
			Hash: hash, Cache: cache, Shard: shard, Status: status, Error: msg,
			RetryAfterSec: retry, Report: rep,
		}
		got := splice(encodeRef(env), backendField(backend), failover, hedged, attempts)
		want := encodeRef(AnalyzeResponse{
			AnalyzeResponse: env, Backend: backend,
			Failover: failover, Hedged: hedged, Attempts: attempts,
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("splice differs from the reference encoding\n got %q\nwant %q", got, want)
		}
	})
}
