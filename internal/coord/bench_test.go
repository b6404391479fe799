package coord

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fcpn/internal/engine"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// serveStack starts one backend and a coordinator in front of it and
// returns a func that POSTs a net's source through the coordinator and
// expects a 200.
func serveStack(b *testing.B) func(src string) {
	srv, err := server.New(server.Config{Engine: engine.Config{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	bts := httptest.NewServer(srv.Handler())
	b.Cleanup(bts.Close)
	c, err := New(Config{Backends: []string{bts.URL}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	cts := httptest.NewServer(c.Handler())
	b.Cleanup(cts.Close)

	hc := cts.Client()
	return func(src string) {
		resp, err := hc.Post(cts.URL+"/v1/analyze", "text/plain", strings.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeHit is one HTTP round trip of the serve path's common
// case: a POST of an already stored net through a coordinator to its
// one backend. The allocation count covers the client, the coordinator
// and the backend, which share the process.
func BenchmarkServeHit(b *testing.B) {
	post := serveStack(b)
	src := petri.Format(figures.Figure5())
	post(src) // the miss that stores the report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(src)
	}
}

// BenchmarkServeMiss is one HTTP round trip of a never-seen net: every
// POST carries a distinct structure, which both doors parse and hash and
// the backend's engine analyses. The nets are drawn like the serve
// workload's (generated pipelines with at most 1024 allocations) before
// the timer starts.
func BenchmarkServeMiss(b *testing.B) {
	srcs := make([]string, 0, b.N)
	seen := map[string]bool{}
	for s := uint64(1); len(srcs) < b.N; s++ {
		n := netgen.RandomSchedulablePipeline(s, netgen.DefaultConfig())
		allocs := 1
		for _, c := range n.FreeChoiceSets() {
			allocs *= len(c.Transitions)
		}
		if h := n.CanonicalHash(); allocs <= 1024 && !seen[h] {
			seen[h] = true
			srcs = append(srcs, petri.Format(n))
		}
	}
	post := serveStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for _, src := range srcs {
		post(src)
	}
}
