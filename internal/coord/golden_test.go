package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// encodeRef is the reference construction of every envelope: the
// encoding/json encoder with HTML escaping off, over the wire types.
func encodeRef(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// shuffleArcs reverses a .pn document's arc lines: an isomorphic twin
// with the same canonical hash and different bytes.
func shuffleArcs(src string) string {
	var head, arcs []string
	for _, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
		if strings.HasPrefix(line, "arc ") {
			arcs = append(arcs, line)
		} else {
			head = append(head, line)
		}
	}
	for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
		arcs[i], arcs[j] = arcs[j], arcs[i]
	}
	return strings.Join(append(head, arcs...), "\n") + "\n"
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	code       int
	retryAfter string
	body       []byte
}

// roundTrip sends one request. A chunked body hides its length, so the
// handler's declared-length check cannot see it.
func roundTrip(t *testing.T, method, url string, body []byte, chunked bool) reply {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd}
		}
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: raw}
}

// TestResponseBytesPinned drives a backend and a coordinator through
// every status the two handlers emit and compares each body, byte for
// byte, with the reference encoding of the envelope the handlers are
// specified to answer. Report bytes come from a separate engine, error
// strings from the engine's and the handlers' documented messages.
func TestResponseBytesPinned(t *testing.T) {
	const (
		backendLimit = 4096
		coordLimit   = 8192
	)
	fig5 := petri.Format(figures.Figure5())
	fig2 := petri.Format(figures.Figure2())
	poison1 := petri.Format(figures.Figure7())
	hashOf := func(src string) string {
		n, err := petri.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return n.CanonicalHash()
	}
	// Generated nets for the fault cases, all with distinct structures.
	seen := map[string]bool{hashOf(fig5): true, hashOf(fig2): true, hashOf(poison1): true}
	seed := uint64(100)
	fresh := func(shard int) string {
		for ; ; seed++ {
			src := petri.Format(netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
			h := hashOf(src)
			if seen[h] || (shard >= 0 && server.PrefixIndex(h, 2) != shard) {
				continue
			}
			seen[h] = true
			return src
		}
	}
	poison2, slow, blocker := fresh(-1), fresh(-1), fresh(-1)
	crowded := fresh(server.PrefixIndex(hashOf(blocker), 2))

	const panicMsg = "golden poison"
	poisoned := map[string]bool{hashOf(poison1): true, hashOf(poison2): true}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func(ctx context.Context, hash string) error {
		switch {
		case poisoned[hash]:
			panic(panicMsg)
		case hash == hashOf(slow):
			<-ctx.Done()
			return context.Cause(ctx)
		case hash == hashOf(blocker):
			entered <- struct{}{}
			<-release
		}
		return nil
	}
	_, b := bootBackend(t, server.Config{
		Shards:       2,
		MaxBodyBytes: backendLimit,
		Engine:       engine.Config{Workers: 1, SubmitWindow: 1, JobTimeout: time.Second, FaultHook: hook},
	})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the backend's cleanup drains its engine

	// Probes never fire during the test, so breaker states move only with
	// the requests below.
	quiet := func(threshold, attempts int, backends ...string) Config {
		return Config{
			Backends:         backends,
			ProbeInterval:    time.Hour,
			BreakerThreshold: threshold,
			RetryAttempts:    attempts,
			RetryBase:        time.Millisecond,
			RetryMax:         2 * time.Millisecond,
			RetryBudget:      3 * time.Second,
			MaxBodyBytes:     coordLimit,
			Seed:             1,
		}
	}
	_, c := bootCoord(t, quiet(100, 1, b.URL))

	refEng := engine.New(engine.Config{Workers: 1})
	defer refEng.Close()
	report := func(src string) json.RawMessage {
		n, _ := petri.ParseString(src)
		rep, err := refEng.Analyze(n)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	minimal := func(src string) json.RawMessage {
		n, _ := petri.ParseString(src)
		raw, err := json.Marshal(&engine.NetReport{
			Name: n.Name(), Hash: n.CanonicalHash(),
			Places: n.NumPlaces(), Transitions: n.NumTransitions(), Arcs: len(n.Arcs()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	env := func(src, cache, status, errMsg string, rep json.RawMessage) server.AnalyzeResponse {
		h := hashOf(src)
		return server.AnalyzeResponse{
			Hash: h, Cache: cache, Shard: server.PrefixIndex(h, 2),
			Status: status, Error: errMsg, Report: rep,
		}
	}
	routed := func(e server.AnalyzeResponse, backend string, attempts int) AnalyzeResponse {
		return AnalyzeResponse{AnalyzeResponse: e, Backend: backend, Attempts: attempts}
	}
	check := func(name string, got reply, code int, want any) {
		t.Helper()
		if got.code != code {
			t.Errorf("%s: status %d, want %d; body %s", name, got.code, code, got.body)
			return
		}
		if ref := encodeRef(want); !bytes.Equal(got.body, ref) {
			t.Errorf("%s: body differs from the reference encoding\n got %q\nwant %q", name, got.body, ref)
		}
	}
	post := func(base, src string) reply {
		return roundTrip(t, http.MethodPost, base+"/v1/analyze", []byte(src), false)
	}
	get := func(base, path string) reply {
		return roundTrip(t, http.MethodGet, base+path, nil, false)
	}

	r5, r2 := report(fig5), report(fig2)

	// Analyze: miss, hit and arc-shuffled twin, direct and coordinated.
	check("backend miss", post(b.URL, fig5), 200, env(fig5, "miss", "ok", "", r5))
	check("backend hit", post(b.URL, fig5), 200, env(fig5, "hit", "ok", "", r5))
	check("backend twin", post(b.URL, shuffleArcs(fig5)), 200, env(fig5, "hit", "ok", "", r5))
	check("coord hit", post(c.URL, fig5), 200, routed(env(fig5, "hit", "ok", "", r5), b.URL, 1))
	check("coord miss", post(c.URL, fig2), 200, routed(env(fig2, "miss", "ok", "", r2), b.URL, 1))
	check("coord repeat", post(c.URL, fig2), 200, routed(env(fig2, "hit", "ok", "", r2), b.URL, 1))
	check("coord twin", post(c.URL, shuffleArcs(fig2)), 200, routed(env(fig2, "hit", "ok", "", r2), b.URL, 1))

	// 400 parse errors, refused at whichever door sees them first.
	const garbage = "this is not a net"
	_, perr := petri.ParseString(garbage)
	parse400 := server.AnalyzeResponse{Status: "error", Error: "parse: " + perr.Error()}
	check("backend parse error", post(b.URL, garbage), 400, parse400)
	check("coord parse error", post(c.URL, garbage), 400, AnalyzeResponse{AnalyzeResponse: parse400})

	// 413: declared past each door's limit, and undeclared (chunked) past
	// it. big parses at the coordinator, so only the backend refuses it.
	var sb strings.Builder
	sb.WriteString("net big\n")
	for i := 0; sb.Len() <= backendLimit+512; i++ {
		fmt.Fprintf(&sb, "place p%03d\n", i)
	}
	big := sb.String()
	huge := strings.Repeat(big, 2)
	check("backend declared 413", post(b.URL, big), 413,
		server.AnalyzeResponse{Status: "error", Error: fmt.Sprintf("body exceeds %d byte limit", backendLimit)})
	check("coord forwards backend 413", post(c.URL, big), 413,
		AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{Status: "error",
			Error: fmt.Sprintf("body exceeds %d byte limit", backendLimit)}, Backend: b.URL, Attempts: 1})
	check("coord declared 413", post(c.URL, huge), 413,
		AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{Status: "error",
			Error: fmt.Sprintf("body exceeds %d byte limit", coordLimit)}})
	check("backend chunked 413", roundTrip(t, http.MethodPost, b.URL+"/v1/analyze", []byte(big), true), 413,
		server.AnalyzeResponse{Status: "error", Error: "parse: petri: read: http: request body too large"})
	check("coord chunked 413", roundTrip(t, http.MethodPost, c.URL+"/v1/analyze", []byte(huge), true), 413,
		AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "http: request body too large"}})

	// 500 for a panicking analysis, then 422 for its quarantined hash.
	panicked := engine.ErrJobPanicked.Error() + ": " + panicMsg
	check("backend 500", post(b.URL, poison1), 500, env(poison1, "miss", "panicked", panicked, minimal(poison1)))
	check("backend 422", post(b.URL, poison1), 422, env(poison1, "", "quarantined", panicked, nil))
	check("coord 422", post(c.URL, poison1), 422, routed(env(poison1, "", "quarantined", panicked, nil), b.URL, 1))
	check("coord 500", post(c.URL, poison2), 500, routed(env(poison2, "miss", "panicked", panicked, minimal(poison2)), b.URL, 1))

	// 504 when the per-request deadline fires.
	timedOut := engine.ErrJobTimeout.Error()
	check("backend 504", post(b.URL, slow), 504, env(slow, "miss", "timeout", timedOut, minimal(slow)))
	check("coord 504", post(c.URL, slow), 504, routed(env(slow, "miss", "timeout", timedOut, minimal(slow)), b.URL, 1))

	// 429 while the shard's one-slot window is held by a blocked job.
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(b.URL+"/v1/analyze", "text/plain", strings.NewReader(blocker))
		if err != nil {
			done <- reply{}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		done <- reply{code: resp.StatusCode, body: raw}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocking job never reached the engine")
	}
	shard := server.PrefixIndex(hashOf(crowded), 2)
	full := server.AnalyzeResponse{
		Hash: hashOf(crowded), Shard: shard, Status: "error",
		Error:         fmt.Sprintf("shard %d submit window (1) is full", shard),
		RetryAfterSec: 1,
	}
	got := post(b.URL, crowded)
	check("backend 429", got, 429, full)
	if got.retryAfter != "1" {
		t.Errorf("backend 429 Retry-After = %q, want 1", got.retryAfter)
	}
	got = post(c.URL, crowded)
	check("coord 429", got, 429, routed(full, b.URL, 1))
	if got.retryAfter != "1" {
		t.Errorf("coord 429 Retry-After = %q, want 1", got.retryAfter)
	}
	unblock()
	<-done // held past its deadline, so its outcome depends on timing

	// Report lookups: a stored hash and a well-formed unknown one.
	h5 := hashOf(fig5)
	unknown := strings.Repeat("0", 64)
	check("backend report hit", get(b.URL, "/v1/report/"+h5), 200, env(fig5, "hit", "ok", "", r5))
	check("coord report hit", get(c.URL, "/v1/report/"+h5), 200,
		AnalyzeResponse{AnalyzeResponse: env(fig5, "hit", "ok", "", r5), Backend: b.URL})
	check("backend report 404", get(b.URL, "/v1/report/"+unknown), 404, server.AnalyzeResponse{
		Hash: unknown, Shard: server.PrefixIndex(unknown, 2), Status: "error", Error: "unknown report hash"})
	check("coord report 404", get(c.URL, "/v1/report/"+unknown), 404, AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: unknown, Status: "error", Error: "unknown report hash"}})

	// Failover: the hash's owner is down, so the second attempt goes to
	// the other host.
	ring := make([]string, 2)
	ring[server.PrefixIndex(h5, 2)] = deadURL(t)
	ring[1-server.PrefixIndex(h5, 2)] = b.URL
	_, f := bootCoord(t, quiet(1, 2, ring...))
	want := routed(env(fig5, "hit", "ok", "", r5), b.URL, 2)
	want.Failover = true
	check("coord failover", post(f.URL, fig5), 200, want)

	// Draining doors refuse with 503.
	es, e := bootBackend(t, server.Config{})
	gc, g := bootCoord(t, quiet(100, 1, e.URL))
	es.Drain()
	gc.Drain()
	check("backend draining", post(e.URL, fig5), 503, server.AnalyzeResponse{Status: "error", Error: "server is draining"})
	check("coord draining", post(g.URL, fig5), 503,
		AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "coordinator is draining"}})

	// With the backend gone: stale answers marked degraded for a report
	// the coordinator has served, an honest 502 for one it has not.
	dc, d := bootCoord(t, quiet(1, 2, b.URL))
	check("coord warm", post(d.URL, fig5), 200, routed(env(fig5, "hit", "ok", "", r5), b.URL, 1))
	waitStats(t, dc, "stale cache filled", func(r StatsReport) bool { return r.CachedReports == 1 })
	b.Close()
	stale := AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: h5, Cache: "hit", Status: "ok", Report: r5},
		Degraded:        true,
	}
	check("coord degraded report", get(d.URL, "/v1/report/"+h5), 200, stale)
	check("coord degraded analyze", post(d.URL, fig5), 200, stale)
	check("coord 502", post(d.URL, fig2), 502, AnalyzeResponse{AnalyzeResponse: server.AnalyzeResponse{
		Hash: hashOf(fig2), Status: "error", Error: "all backends failed: no live backend"}})
}
