package fault

// The HTTP fault proxy extends the fault model from the synthesised
// system's inputs (injectors) and the analysis engine's jobs
// (EngineInjector) to the *network between hosts*: it sits in front of
// a qssd backend and garbles a seeded fraction of the traffic the way
// a sick host or a flaky link would — dropped connections, TCP resets,
// delays, 5xx substitutions, torn response bodies. The coordinator
// (internal/coord) is the component under test: every injected fault is
// one it must absorb without changing an answer.

import (
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ProxyBehavior is the seeded fault mix of an HTTP proxy. Percentages
// are cumulative bands over one per-request draw, so at most one fault
// fires per request; their sum must stay ≤ 100 (the remainder passes
// through clean).
type ProxyBehavior struct {
	// DropPct closes the client connection without any response bytes
	// (the backend process died mid-request).
	DropPct int
	// ResetPct closes the client connection with a TCP RST (linger 0),
	// the classic "connection reset by peer".
	ResetPct int
	// Err5xxPct substitutes a 502 with a non-JSON body for whatever the
	// backend would have said (a confused intermediary).
	Err5xxPct int
	// TornPct forwards the request but truncates the response body
	// halfway and kills the connection — the torn-JSON case every
	// reader must treat as transient.
	TornPct int
	// DelayPct holds the request for Delay before forwarding (a stalled
	// host; pairs with the coordinator's hedging threshold).
	DelayPct int
	Delay    time.Duration
}

func (b ProxyBehavior) active() bool {
	return b.DropPct+b.ResetPct+b.Err5xxPct+b.TornPct+b.DelayPct > 0
}

// Proxy is a seeded HTTP fault injector fronting one backend base URL.
// Fault decisions draw from a splitmix64 stream in request-arrival
// order, so a serial request sequence reproduces the same fault
// sequence for the same seed. Behaviour can be swapped at runtime
// (SetBehavior/Clear), which is how the chaos soak garbles a healthy
// backend mid-batch.
type Proxy struct {
	backend string
	hc      *http.Client

	mu       sync.Mutex
	rng      *Rand
	behavior ProxyBehavior
	injected map[string]int64
}

// NewProxy builds a passthrough proxy for the backend base URL (e.g.
// "http://127.0.0.1:8080"). Faults start disabled.
func NewProxy(backend string, seed uint64) *Proxy {
	return &Proxy{
		backend:  strings.TrimRight(backend, "/"),
		hc:       &http.Client{Timeout: 2 * time.Minute},
		rng:      NewRand(seed),
		injected: map[string]int64{},
	}
}

// SetBehavior swaps the fault mix in. The seeded draw stream continues
// where it was, so enabling faults mid-run keeps determinism relative
// to the request order.
func (p *Proxy) SetBehavior(b ProxyBehavior) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.behavior = b
}

// Injected snapshots the per-kind injected-fault tallies
// ("drop"/"reset"/"5xx"/"torn"/"delay").
func (p *Proxy) Injected() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

// decide draws one fault for this request ("" = pass through clean).
func (p *Proxy) decide() (kind string, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.behavior
	if !b.active() {
		return "", 0
	}
	draw := p.rng.Pct()
	bands := []struct {
		kind string
		pct  int
	}{
		{"drop", b.DropPct}, {"reset", b.ResetPct}, {"5xx", b.Err5xxPct},
		{"torn", b.TornPct}, {"delay", b.DelayPct},
	}
	acc := 0
	for _, band := range bands {
		acc += band.pct
		if draw < acc {
			p.injected[band.kind]++
			return band.kind, b.Delay
		}
	}
	return "", 0
}

// abort kills the client connection. With reset it goes out as a TCP
// RST; otherwise as a bare FIN with no (or a truncated) response.
func abort(w http.ResponseWriter, reset bool) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// Not hijackable (e.g. HTTP/2): the panic aborts the handler and
		// the server resets the stream, which is the same client-visible
		// fault class.
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if reset {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
	}
	conn.Close()
}

// ServeHTTP implements http.Handler: decide a fault, then forward.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, delay := p.decide()
	switch kind {
	case "drop":
		abort(w, false)
		return
	case "reset":
		abort(w, true)
		return
	case "5xx":
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, "injected fault: bad gateway\n")
		return
	case "delay":
		time.Sleep(delay)
	}

	url := p.backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, "proxy: "+err.Error(), http.StatusBadGateway)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		http.Error(w, "proxy: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, "proxy: "+err.Error(), http.StatusBadGateway)
		return
	}

	if kind == "torn" {
		// Advertise the full length, send half, kill the connection: the
		// client sees a well-formed header and a truncated body.
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(resp.StatusCode)
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		abort(w, false)
		return
	}

	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}
