// Package coord is the fault-tolerant multi-host front door of the
// analysis service: an HTTP coordinator that routes POST /v1/analyze
// and GET /v1/report/{hash} to N backend `qssd serve` hosts by the same
// canonical-hash-prefix function the in-process shards use
// (server.PrefixIndex), and absorbs real infrastructure faults without
// ever changing an answer.
//
// The safety argument is content addressing: reports are byte-identical
// across isomorphic requests and across hosts (PR 7/8), so every retry,
// hedge, failover and reissue is idempotent — the coordinator can be as
// aggressive as it likes about *where* and *how often* work runs,
// because *what* comes back is pinned by the canonical hash. The same
// containment discipline compositional synthesis demands: certify the
// pieces, compose without re-proving the whole.
//
// Mechanisms, in request order:
//
//   - a body memo (server.BodyMemo) maps request bytes to their
//     canonical hash, so a resubmitted body is neither parsed nor hashed
//     again;
//   - per-backend health probing (/readyz) drives a three-state circuit
//     breaker: closed → open after K consecutive failures → half-open
//     probe → closed on success;
//   - routing prefers the hash's owner; an open breaker deterministically
//     reassigns the prefix range to the next healthy host in ring order
//     (a failover, counted);
//   - bounded, seeded-jittered exponential-backoff retries honour
//     Retry-After and retry only transient faults (connection
//     refused/reset, 429, 502, 503-draining, 504) — terminal refusals
//     (400, 413, 422-quarantine) proxy through untouched;
//   - a hedged second request fires to the failover host when the
//     primary exceeds a latency threshold, first-complete-wins;
//   - the coordinator keeps its own journal, folds backend journals into
//     it on boot, re-submits journalled timeout/panic records (which
//     carry the net source) to a healthy host, and serves stale journal
//     reports with an explicit degraded marker when every owner of a
//     prefix is down — never a blind 502 while an answer exists;
//   - a backend's envelope is forwarded as the bytes it sent, with the
//     routing fields appended; it is decoded only where a field is
//     needed: the first 200 of a hash, which fills the
//     deflate-compressed stale cache and journals the report bytes once,
//     and a timeout or panic, which the journal keeps while the cache
//     lacks the hash's report.
//
// See docs/SERVICE.md ("The multi-host coordinator") for the topology
// and the failure-mode table.
package coord

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/journal"
	"fcpn/internal/petri"
	"fcpn/internal/server"
	"fcpn/internal/trace"
)

// Config tunes the coordinator. Only Backends is required.
type Config struct {
	// Backends are the base URLs of the qssd serve hosts work routes
	// across by canonical-hash prefix (index = server.PrefixIndex).
	Backends []string
	// ProbeInterval is the /readyz probe cadence per backend while its
	// breaker is closed (default 250ms). Open breakers probe with
	// exponential backoff from this base.
	ProbeInterval time.Duration
	// BreakerThreshold is K: consecutive failures (requests or probes)
	// before a backend's breaker opens (default 3).
	BreakerThreshold int
	// RetryAttempts bounds how many times one request is tried across
	// hosts before degrading (default 4).
	RetryAttempts int
	// RetryBase/RetryMax bound the seeded-jittered exponential backoff
	// between attempts (defaults 25ms/2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryBudget is the total wall-clock budget of one request's retry
	// loop (default 1 minute).
	RetryBudget time.Duration
	// HedgeAfter fires a second copy of an analyze request at the
	// failover host when the primary has not answered within it;
	// first-complete-wins. 0 disables hedging.
	HedgeAfter time.Duration
	// Journal is the coordinator's own append-only journal path. On
	// boot, BackendJournals (plus any previous coordinator journal) are
	// folded into it.
	Journal string
	// BackendJournals are backend journal files (e.g. each host's
	// shard-*.jsonl) folded into the coordinator's view on boot: ok
	// records warm the stale-serving cache, timeout/panic records that
	// carry net source are reissued to a healthy host.
	BackendJournals []string
	// Seed drives the retry/hedge jitter stream (0 = fixed default).
	Seed uint64
	// MaxBodyBytes bounds POST /v1/analyze bodies (≤ 0 → 1 MiB).
	MaxBodyBytes int64
}

// Breaker states.
const (
	stClosed int32 = iota
	stOpen
	stHalfOpen
)

func stateName(s int32) string {
	switch s {
	case stOpen:
		return "open"
	case stHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// backend is one routed host plus its breaker and counters.
type backend struct {
	url   string
	field []byte       // `"backend":<url>`, the member splice appends
	state atomic.Int32 // stClosed | stOpen | stHalfOpen
	fails atomic.Int32 // consecutive transient failures

	requests   atomic.Int64
	failures   atomic.Int64
	probes     atomic.Int64
	probeFails atomic.Int64
}

func (b *backend) healthy() bool { return b.state.Load() == stClosed }

// recordFailure counts one transient fault against the breaker; at K
// consecutive the breaker opens and the prefix range fails over.
func (b *backend) recordFailure(k int) {
	b.failures.Add(1)
	if int(b.fails.Add(1)) >= k {
		b.state.Store(stOpen)
	}
}

// recordSuccess closes the breaker from any state: a real request is
// at least as good a probe as /readyz.
func (b *backend) recordSuccess() {
	b.fails.Store(0)
	b.state.Store(stClosed)
}

// Coordinator is the multi-host front door. Create with New, mount
// Handler, Close on the way out.
type Coordinator struct {
	cfg      Config
	hc       *http.Client
	backends []*backend
	bo       *Backoff
	tr       *trace.Tracer
	mux      *http.ServeMux
	start    time.Time

	jw   *journal.Writer
	memo server.BodyMemo

	mu      sync.RWMutex
	cache   map[string][]byte // hash → deflated stale-servable report bytes
	entries int               // journal entries folded at boot

	draining  atomic.Bool
	probeStop context.CancelFunc
	wg        sync.WaitGroup

	// Counters (see CounterStats for meanings).
	cAnalyze, cLookups, cRetries, cHedges, cHedgeWins atomic.Int64
	cFailovers, cReissues, cDegraded, cUnavailable    atomic.Int64
	cParseErrors, cMemoHits, cParses                  atomic.Int64
}

// New builds the coordinator: journals folded and reissue queued,
// breakers closed, probe loops running. Returns an error for an empty
// backend list or journal I/O failures.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("coord: at least one backend URL is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	c := &Coordinator{
		cfg:   cfg,
		hc:    &http.Client{Timeout: 2 * time.Minute},
		bo:    NewBackoff(cfg.RetryBase, cfg.RetryMax, cfg.Seed),
		tr:    trace.New(),
		start: time.Now(),
		cache: map[string][]byte{},
	}
	for _, u := range cfg.Backends {
		u = strings.TrimRight(u, "/")
		c.backends = append(c.backends, &backend{url: u, field: backendField(u)})
	}

	pending, err := c.foldJournals()
	if err != nil {
		return nil, err
	}
	if cfg.Journal != "" {
		if c.jw, err = journal.Open(cfg.Journal); err != nil {
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.handleAnalyze)
	mux.HandleFunc("GET /v1/report/{hash}", c.handleReport)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux = mux

	ctx, cancel := context.WithCancel(context.Background())
	c.probeStop = cancel
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.probeLoop(ctx, b)
	}
	if len(pending) > 0 {
		c.wg.Add(1)
		go c.reissueLoop(ctx, pending)
	}
	return c, nil
}

// foldJournals folds the backend journals and then any previous
// coordinator journal, so the coordinator's view wins ties, writes the
// fold to the coordinator's journal file when it has one, loads the
// folded reports into the stale-serving cache, and returns the
// reissueable records: journalled timeouts/panics that carry their net
// source.
func (c *Coordinator) foldJournals() ([]journal.Entry, error) {
	var inputs []string
	for _, p := range append(slices.Clip(c.cfg.BackendJournals), c.cfg.Journal) {
		if _, err := os.Stat(p); err == nil {
			inputs = append(inputs, p)
		}
	}
	entries, err := journal.Read(inputs...)
	if err != nil {
		return nil, fmt.Errorf("coord: folding journals: %w", err)
	}
	if c.cfg.Journal != "" {
		if err := journal.Write(c.cfg.Journal, entries); err != nil {
			return nil, fmt.Errorf("coord: writing the folded journal: %w", err)
		}
	}

	var pending []journal.Entry
	for hash, ent := range entries {
		switch ent.Status {
		case string(engine.StatusOK):
			if ent.Report != nil {
				c.cache[hash] = deflate(ent.Report)
			}
		case string(engine.StatusTimeout), string(engine.StatusPanicked):
			if ent.Net != "" {
				pending = append(pending, ent)
			}
		}
	}
	c.entries = len(entries)
	return pending, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Drain flips readiness to 503 and refuses new analyses; in-flight
// proxying finishes.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// Close drains, stops the probe and reissue loops, and flushes the
// coordinator journal.
func (c *Coordinator) Close() error {
	c.Drain()
	c.probeStop()
	c.wg.Wait()
	return c.jw.Close()
}

// ---- routing ---------------------------------------------------------

// owner is the hash's home backend index: the same prefix function the
// in-process shards use, so one partition map covers the whole fleet.
func (c *Coordinator) owner(hash string) int {
	return server.PrefixIndex(hash, len(c.backends))
}

// pick chooses the backend for a hash: the owner if its breaker is
// closed, else — deterministically — the next closed backend in ring
// order (a failover). With no closed backend it settles for a
// half-open one (the probe may have just revived it); with none at all
// it returns nil and the caller degrades.
func (c *Coordinator) pick(ownerIdx int, exclude *backend) (*backend, bool) {
	n := len(c.backends)
	for _, wantState := range []int32{stClosed, stHalfOpen} {
		for i := 0; i < n; i++ {
			b := c.backends[(ownerIdx+i)%n]
			if b == exclude {
				continue
			}
			if b.state.Load() == wantState {
				return b, b != c.backends[ownerIdx]
			}
		}
	}
	return nil, false
}

// ---- probe loop ------------------------------------------------------

// probeLoop drives one backend's breaker: steady /readyz probes while
// closed; once open, exponential-backoff cooldowns, then a half-open
// probe that either closes the breaker or re-opens it with a longer
// cooldown. The cadence is context-aware backoff all the way down —
// the same primitive the qssd client's WaitReady uses.
func (c *Coordinator) probeLoop(ctx context.Context, b *backend) {
	defer c.wg.Done()
	bo := NewBackoff(c.cfg.ProbeInterval, 16*c.cfg.ProbeInterval, c.cfg.Seed^uint64(len(b.url)))
	openStreak := 0
	for {
		var wait time.Duration
		if b.state.Load() == stOpen {
			wait = bo.Delay(openStreak) // cooldown grows while the host stays down
		} else {
			wait = bo.Delay(0) // steady jittered cadence while closed
		}
		if err := SleepCtx(ctx, wait); err != nil {
			return
		}
		if b.state.Load() == stOpen {
			b.state.Store(stHalfOpen) // announce the trial probe
		}
		b.probes.Add(1)
		ok, _ := ProbeReady(ctx, c.hc, b.url)
		if ok {
			b.recordSuccess()
			openStreak = 0
			continue
		}
		b.probeFails.Add(1)
		if ctx.Err() != nil {
			return
		}
		if b.state.Load() == stHalfOpen {
			b.state.Store(stOpen) // trial failed: back to open, longer cooldown
			openStreak++
		} else {
			b.recordFailure(c.cfg.BreakerThreshold)
		}
	}
}

// ---- request path ----------------------------------------------------

// AnalyzeResponse is the coordinator's envelope: the backend's envelope
// plus where the answer came from and how it got there.
type AnalyzeResponse struct {
	server.AnalyzeResponse
	// Backend is the base URL that produced the answer.
	Backend string `json:"backend,omitempty"`
	// Failover marks an answer produced by a non-owner host.
	Failover bool `json:"failover,omitempty"`
	// Hedged marks an answer won by the hedged second request.
	Hedged bool `json:"hedged,omitempty"`
	// Degraded marks a stale answer served from the merged journal
	// cache because every owner of the prefix is down.
	Degraded bool `json:"degraded,omitempty"`
	// Attempts is how many backend exchanges this request consumed.
	Attempts int `json:"attempts,omitempty"`
}

// exchange is one backend HTTP exchange's outcome.
type exchange struct {
	b          *backend
	code       int
	body       []byte // the backend's envelope, a JSON object, as sent
	retryAfter time.Duration
	err        error // transport or torn-body error
}

// send performs one exchange with a backend and classifies it into the
// breaker by its HTTP status. A torn body, or one that is not a valid
// JSON object, is a transient fault: the backend (or the path to it) is
// garbling, so the breaker hears about it.
func (c *Coordinator) send(ctx context.Context, b *backend, method, path string, body []byte) exchange {
	b.requests.Add(1)
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return exchange{b: b, err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.hc.Do(req)
	if err != nil {
		if Transient(err) {
			b.recordFailure(c.cfg.BreakerThreshold)
		}
		return exchange{b: b, err: err}
	}
	defer resp.Body.Close()
	raw, err := server.ReadAll(resp.Body, resp.ContentLength, c.cfg.MaxBodyBytes)
	if err != nil {
		b.recordFailure(c.cfg.BreakerThreshold)
		return exchange{b: b, err: fmt.Errorf("torn response from %s: %w", b.url, err)}
	}
	if !jsonObject(raw) {
		// A non-JSON body on a 5xx is an intermediary speaking (e.g. the
		// chaos proxy's 502); classify by status. On a 2xx it is garbling.
		if ClassifyStatus(resp.StatusCode) == ClassTransient {
			b.recordFailure(c.cfg.BreakerThreshold)
			return exchange{b: b, code: resp.StatusCode, retryAfter: RetryAfter(resp),
				err: fmt.Errorf("%s from %s: %s", resp.Status, b.url, firstLine(raw))}
		}
		b.recordFailure(c.cfg.BreakerThreshold)
		return exchange{b: b, err: fmt.Errorf("garbled %s body from %s", resp.Status, b.url)}
	}
	switch ClassifyStatus(resp.StatusCode) {
	case ClassTransient:
		b.recordFailure(c.cfg.BreakerThreshold)
	default:
		b.recordSuccess()
	}
	return exchange{b: b, code: resp.StatusCode, body: raw, retryAfter: RetryAfter(resp)}
}

// jsonObject reports whether b is one valid JSON object.
func jsonObject(b []byte) bool {
	return json.Valid(b) && bytes.TrimLeft(b, " \t\r\n")[0] == '{'
}

// splice is the coordinator's reply to a forwarded exchange: the
// backend's object with the routing members appended before its closing
// brace. backend is the backend's `"backend":<url>` member (backendField).
// For a backend body that is the handlers' encoding of a
// server.AnalyzeResponse, the result is byte for byte the encoding of
// AnalyzeResponse{AnalyzeResponse: that envelope, Backend: url,
// Failover: failover, Hedged: hedged, Attempts: attempts}.
func splice(body, backend []byte, failover, hedged bool, attempts int) []byte {
	body = bytes.TrimRight(body, " \t\r\n")
	obj := body[:len(body)-1] // without the closing brace
	out := make([]byte, 0, len(body)+len(backend)+64)
	out = append(out, obj...)
	fields := bytes.TrimRight(obj, " \t\r\n")
	sep := fields[len(fields)-1] != '{' // a member precedes ours
	comma := func() {
		if sep {
			out = append(out, ',')
		}
		sep = true
	}
	if len(backend) > 0 {
		comma()
		out = append(out, backend...)
	}
	if failover {
		comma()
		out = append(out, `"failover":true`...)
	}
	if hedged {
		comma()
		out = append(out, `"hedged":true`...)
	}
	if attempts != 0 {
		comma()
		out = append(out, `"attempts":`...)
		out = strconv.AppendInt(out, int64(attempts), 10)
	}
	return append(out, '}', '\n')
}

// backendField is the `"backend":<url>` member of a coordinator reply,
// as the handlers' encoder writes AnalyzeResponse.Backend; empty for an
// empty url, which the reply omits. New builds it once per backend.
func backendField(url string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.Encode(struct {
		Backend string `json:"backend,omitempty"`
	}{url})
	return bytes.Clone(buf.Bytes()[1 : buf.Len()-2]) // without {, }\n
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// transient reports whether the exchange should be retried.
func (ex exchange) transient() bool {
	if ex.err != nil {
		return Transient(ex.err)
	}
	return ClassifyStatus(ex.code) == ClassTransient
}

// sendHedged races the primary against a hedged copy on the failover
// host once the primary exceeds the latency threshold.
// First-complete-wins among non-transient outcomes; the loser is
// cancelled.
func (c *Coordinator) sendHedged(ctx context.Context, primary *backend, ownerIdx int, method, path string, body []byte) (exchange, bool) {
	if c.cfg.HedgeAfter <= 0 {
		return c.send(ctx, primary, method, path, body), false
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan exchange, 2)
	go func() { results <- c.send(hctx, primary, method, path, body) }()

	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	select {
	case ex := <-results:
		return ex, false
	case <-timer.C:
	}
	alt, _ := c.pick(ownerIdx, primary)
	if alt == nil {
		return <-results, false
	}
	c.cHedges.Add(1)
	sp := c.tr.StartDetail("coord/hedge")
	go func() { results <- c.send(hctx, alt, method, path, body) }()
	first := <-results
	if !first.transient() {
		sp.End()
		// Let the loser's goroutine finish against the cancelled context;
		// the buffered channel keeps it leak-free.
		return first, first.b == alt
	}
	second := <-results
	sp.End()
	if !second.transient() {
		return second, second.b == alt
	}
	return first, false
}

// upstream drives one request through routing, bounded retries with
// backoff (honouring Retry-After) and failover, hedging analyze requests
// (POST) only: a hedged report lookup sent to a non-owner could win the
// race with a 404. It returns the winning exchange plus routing metadata;
// a nil exchange body with err set means the fleet is exhausted and the
// caller should degrade.
func (c *Coordinator) upstream(ctx context.Context, hash, method, path string, body []byte) (ex exchange, failover, hedged bool, attempts int) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RetryBudget)
	defer cancel()
	ownerIdx := c.owner(hash)
	var last exchange
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		target, fo := c.pick(ownerIdx, nil)
		if target == nil {
			break // no live backend: degrade now rather than burn the budget
		}
		if fo {
			c.cFailovers.Add(1)
			c.tr.Add("coord/failover", 1)
			failover = true
		}
		var ex exchange
		var hedgeWon bool
		if method == http.MethodPost {
			ex, hedgeWon = c.sendHedged(ctx, target, ownerIdx, method, path, body)
		} else {
			ex = c.send(ctx, target, method, path, body)
		}
		attempts++
		if hedgeWon {
			c.cHedgeWins.Add(1)
			hedged = true
			failover = true
		}
		if !ex.transient() {
			return ex, failover, hedged, attempts
		}
		last = ex
		c.cRetries.Add(1)
		sp := c.tr.StartDetail("coord/retry")
		var sleep time.Duration
		if ex.retryAfter > 0 {
			sleep = c.bo.Honour(ex.retryAfter)
		} else {
			sleep = c.bo.Delay(attempt)
		}
		err := SleepCtx(ctx, sleep)
		sp.End()
		if err != nil {
			break // budget exhausted mid-backoff
		}
	}
	if last.b == nil {
		last.err = errors.New("no live backend")
	}
	return last, failover, hedged, attempts
}

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	c.cAnalyze.Add(1)
	if c.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "coordinator is draining"},
		})
		return
	}
	maxBody := c.cfg.MaxBodyBytes
	if r.ContentLength > maxBody {
		c.cParseErrors.Add(1)
		server.WriteJSON(w, http.StatusRequestEntityTooLarge, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error",
				Error: fmt.Sprintf("body exceeds %d byte limit", maxBody)},
		})
		return
	}
	body, err := server.ReadBody(w, r, maxBody)
	if err != nil {
		c.cParseErrors.Add(1)
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		server.WriteJSON(w, code, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: err.Error()},
		})
		return
	}
	// Terminal-by-construction requests are refused here: no backend
	// would answer differently, so none should pay for the parse. A body
	// seen before skips the parse and the canonical form.
	sum := sha256.Sum256(body)
	key, hit := c.memo.Lookup(sum)
	if hit {
		c.cMemoHits.Add(1)
	} else {
		c.cParses.Add(1)
		if key, _, err = c.memo.Resolve(sum, body); err != nil {
			if errors.Is(err, server.ErrCanonicalPanic) {
				server.WriteJSON(w, http.StatusInternalServerError, AnalyzeResponse{
					AnalyzeResponse: server.AnalyzeResponse{Status: string(engine.StatusPanicked), Error: err.Error()},
				})
				return
			}
			c.cParseErrors.Add(1)
			server.WriteJSON(w, http.StatusBadRequest, AnalyzeResponse{
				AnalyzeResponse: server.AnalyzeResponse{Status: "error", Error: "parse: " + err.Error()},
			})
			return
		}
	}

	sp := c.tr.Start("coord/route")
	ex, failover, hedged, attempts := c.upstream(r.Context(), key.Hash, http.MethodPost, "/v1/analyze", body)
	sp.End()

	if ex.body == nil { // fleet exhausted: degrade or refuse
		c.serveDegraded(w, key.Hash, ex.err)
		return
	}
	c.journalFailure(key.Hash, key.Name, ex.code, ex.body, body)
	if ex.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(ex.retryAfter/time.Second)))
	}
	server.WriteEnvelope(w, ex.code, splice(ex.body, ex.b.field, failover, hedged, attempts))
	if ex.code == http.StatusOK && !c.cached(key.Hash) {
		// A writer that cannot flush sends the reply when the handler
		// returns; either way the cache fill does not delay it long.
		_ = http.NewResponseController(w).Flush()
		c.remember(key.Hash, key.Name, ex.body)
	}
}

// journalFailure records a reissueable outcome, a timeout (504) or a
// panic (one kind of 500), in the coordinator journal with its net
// source, exactly like the backends' own journals. A hash the stale
// cache holds is skipped: its report is known, so a reissue is useless,
// and a failure line after the report would win the boot fold and drop
// the report from the cache.
func (c *Coordinator) journalFailure(hash, name string, code int, body, src []byte) {
	if c.jw == nil || (code != http.StatusGatewayTimeout && code != http.StatusInternalServerError) {
		return // refusals (parse, quarantine, window) are not ours to journal
	}
	var env server.AnalyzeResponse
	if json.Unmarshal(body, &env) != nil ||
		(env.Status != string(engine.StatusTimeout) && env.Status != string(engine.StatusPanicked)) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cache[hash]; !ok {
		c.jw.Record(journal.Entry{Hash: hash, Source: "coord:" + name, Status: env.Status, Error: env.Error, Net: string(src)})
	}
}

// staleLevel is the stale cache's deflate level: an entry is written
// once per hash and read only to serve a degraded answer, so speed wins.
const staleLevel = flate.BestSpeed

var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, staleLevel) // fails only for an invalid level
	return fw
}}

// deflate compresses a report for the stale cache, into a slice of
// exactly the compressed size.
func deflate(raw []byte) []byte {
	var buf bytes.Buffer
	fw := deflaters.Get().(*flate.Writer)
	fw.Reset(&buf)
	fw.Write(raw)
	fw.Close()
	fw.Reset(io.Discard)
	deflaters.Put(fw)
	return bytes.Clone(buf.Bytes())
}

// cached reports whether the stale cache holds a hash.
func (c *Coordinator) cached(hash string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.cache[hash]
	return ok
}

// remember fills the stale cache from a hash's first 200 and journals
// that report as the backend sent it: content addressing makes every
// later answer identical, so the journal grows with distinct nets, not
// with traffic. It reports whether the body carried a report.
func (c *Coordinator) remember(hash, name string, body []byte) bool {
	var env server.AnalyzeResponse
	if json.Unmarshal(body, &env) != nil || env.Status != string(engine.StatusOK) || len(env.Report) == 0 {
		return false
	}
	z := deflate(env.Report)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cache[hash]; !ok {
		c.cache[hash] = z
		c.jw.Record(journal.Entry{Hash: hash, Source: "coord:" + name, Status: env.Status, Report: env.Report})
	}
	return true
}

// stale inflates a hash's cached report.
func (c *Coordinator) stale(hash string) (json.RawMessage, bool) {
	c.mu.RLock()
	z, ok := c.cache[hash]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(z)))
	return raw, err == nil
}

// serveDegraded answers from the merged journal cache when no backend
// can: a stale, explicitly marked report beats a blind 502. With no
// cached answer the 502 is honest.
func (c *Coordinator) serveDegraded(w http.ResponseWriter, hash string, cause error) {
	if raw, ok := c.stale(hash); ok {
		c.cDegraded.Add(1)
		server.WriteJSON(w, http.StatusOK, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{
				Hash: hash, Cache: "hit", Status: string(engine.StatusOK), Report: raw,
			},
			Degraded: true,
		})
		return
	}
	c.cUnavailable.Add(1)
	msg := "no live backend"
	if cause != nil {
		msg = cause.Error()
	}
	server.WriteJSON(w, http.StatusBadGateway, AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: hash, Status: "error",
			Error: "all backends failed: " + msg},
	})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	c.cLookups.Add(1)
	hash := r.PathValue("hash")
	if !server.ValidHash(hash) {
		// Never pasted into an upstream URL: only a canonical hash can
		// name a report.
		unknownReport(w, hash)
		return
	}
	ex, failover, _, attempts := c.upstream(r.Context(), hash, http.MethodGet, "/v1/report/"+hash, nil)
	if !ex.transient() && ex.body != nil && ex.code != http.StatusNotFound {
		server.WriteEnvelope(w, ex.code, splice(ex.body, ex.b.field, failover, false, 0))
		return
	}
	// A 404 is authoritative only if the journal cache agrees. The cached
	// answer is undegraded only when its one exchange was a live
	// backend's 404: a retry, a transient exchange or no exchange at all
	// (every breaker open) means no backend could answer.
	if raw, ok := c.stale(hash); ok {
		c.cDegraded.Add(1)
		server.WriteJSON(w, http.StatusOK, AnalyzeResponse{
			AnalyzeResponse: server.AnalyzeResponse{
				Hash: hash, Cache: "hit", Status: string(engine.StatusOK), Report: raw,
			},
			Degraded: attempts != 1 || ex.err != nil || ex.code != http.StatusNotFound,
		})
		return
	}
	unknownReport(w, hash)
}

func unknownReport(w http.ResponseWriter, hash string) {
	server.WriteJSON(w, http.StatusNotFound, AnalyzeResponse{
		AnalyzeResponse: server.AnalyzeResponse{Hash: hash, Status: "error", Error: "unknown report hash"},
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	for _, b := range c.backends {
		if b.state.Load() != stOpen {
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live backend"})
}

// ---- reissue ---------------------------------------------------------

// reissueLoop re-submits journalled timeout/panic records to a healthy
// host. Each record carries its net source (journal.Entry.Net), so the
// work needs no corpus access; a successful reissue overwrites the
// journal record later-wins. Runs once at boot, retrying each record
// through the same bounded backoff as live traffic.
func (c *Coordinator) reissueLoop(ctx context.Context, pending []journal.Entry) {
	defer c.wg.Done()
	for _, ent := range pending {
		if ctx.Err() != nil {
			return
		}
		sp := c.tr.StartDetail("coord/reissue")
		c.reissueOne(ctx, ent)
		sp.End()
	}
}

func (c *Coordinator) reissueOne(ctx context.Context, ent journal.Entry) {
	n, err := petri.ParseString(ent.Net)
	if err != nil {
		return // a garbled journal line is not worth a request
	}
	src := []byte(ent.Net)
	ex, _, _, _ := c.upstream(ctx, ent.Hash, http.MethodPost, "/v1/analyze", src)
	if ex.body == nil {
		return // fleet still down; the record stays pending in the journal
	}
	if c.remember(ent.Hash, n.Name(), ex.body) {
		c.cReissues.Add(1)
	}
}

// ---- stats -----------------------------------------------------------

// BackendStats is one backend's slice of GET /v1/stats.
type BackendStats struct {
	URL string `json:"url"`
	// State is the breaker state: "closed" (routable), "open" (failed
	// over) or "half-open" (probe in flight).
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Requests         int64  `json:"requests"`
	Failures         int64  `json:"failures"`
	Probes           int64  `json:"probes"`
	ProbeFailures    int64  `json:"probe_failures"`
}

// CounterStats are the coordinator's request-path tallies.
type CounterStats struct {
	Analyze       int64 `json:"analyze"`
	ReportLookups int64 `json:"report_lookups"`
	ParseErrors   int64 `json:"parse_errors"`
	// MemoHits counts analyze bodies the body memo recognised, skipping
	// the parse and the canonical form; Parses counts bodies parsed.
	MemoHits int64 `json:"memo_hits"`
	Parses   int64 `json:"parses"`
	// Retries counts backoff-and-go-again decisions; Failovers counts
	// requests routed off their owner; Hedges counts second requests
	// fired, HedgeWins how many answered first.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Reissues counts journalled timeout/panic records successfully
	// re-analysed on boot.
	Reissues int64 `json:"reissues"`
	// DegradedServes counts stale journal-cache answers; Unavailable
	// counts honest 502s (no backend, no cached answer).
	DegradedServes int64 `json:"degraded_serves"`
	Unavailable    int64 `json:"unavailable"`
}

// StatsReport is the GET /v1/stats document.
type StatsReport struct {
	Backends       []BackendStats `json:"backends"`
	UptimeMS       float64        `json:"uptime_ms"`
	Requests       CounterStats   `json:"requests"`
	JournalEntries int            `json:"journal_entries"`
	CachedReports  int            `json:"cached_reports"`
	Trace          *trace.Report  `json:"trace,omitempty"`
}

// StatsReport assembles the stats document (also GET /v1/stats).
func (c *Coordinator) StatsReport() StatsReport {
	rep := StatsReport{
		UptimeMS: float64(time.Since(c.start).Nanoseconds()) / 1e6,
		Requests: CounterStats{
			Analyze:        c.cAnalyze.Load(),
			ReportLookups:  c.cLookups.Load(),
			ParseErrors:    c.cParseErrors.Load(),
			MemoHits:       c.cMemoHits.Load(),
			Parses:         c.cParses.Load(),
			Retries:        c.cRetries.Load(),
			Failovers:      c.cFailovers.Load(),
			Hedges:         c.cHedges.Load(),
			HedgeWins:      c.cHedgeWins.Load(),
			Reissues:       c.cReissues.Load(),
			DegradedServes: c.cDegraded.Load(),
			Unavailable:    c.cUnavailable.Load(),
		},
		JournalEntries: c.entries,
		Trace:          c.tr.Report(),
	}
	c.mu.RLock()
	rep.CachedReports = len(c.cache)
	c.mu.RUnlock()
	for _, b := range c.backends {
		rep.Backends = append(rep.Backends, BackendStats{
			URL:              b.url,
			State:            stateName(b.state.Load()),
			ConsecutiveFails: int(b.fails.Load()),
			Requests:         b.requests.Load(),
			Failures:         b.failures.Load(),
			Probes:           b.probes.Load(),
			ProbeFailures:    b.probeFails.Load(),
		})
	}
	return rep
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.StatsReport())
}
