// Package server is the sharded HTTP/JSON analysis service built around
// internal/engine: the QSS pipeline behind a network front door. A POST
// of `.pn` source returns the full deterministic NetReport plus the
// net's canonical structural hash and a cache marker; identical
// structures — submitted by anyone, named anyhow — hit the same
// content-addressed line.
//
// Architecture: work partitions across N in-process shards by
// canonical-hash prefix. Each shard owns one engine.Engine (worker pool
// + content-addressed cache), a content-addressed report store, and an
// append-only journal (internal/journal). Admission control reuses the
// engine's backpressure vocabulary: a shard whose submit window is full
// refuses with 429 + Retry-After instead of queueing unboundedly,
// per-request deadlines are the engine's JobTimeout threaded through the
// existing context causes (a trip returns 504 with the partial report),
// and quarantined hashes are refused with 422 and the recorded reason.
// Boot replays the journals to warm the report store and re-seed
// quarantines; Close drains in-flight jobs and flushes the journals.
//
// A repeated request is served as bytes: a body memo (BodyMemo) maps the
// request body to its canonical hash without parsing it again, and the
// store holds each report's complete hit envelope, written verbatim.
// See docs/SERVICE.md.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/engine/stats"
	"fcpn/internal/journal"
	"fcpn/internal/petri"
)

// Config tunes the service. The zero value is usable: one shard, a
// default engine, no journals, 1 MiB body limit.
type Config struct {
	// Shards is the number of in-process shard engines work partitions
	// across by canonical-hash prefix (≤ 0 → 1). Each shard has its own
	// worker pool, cache, report store and journal.
	Shards int
	// Engine is the per-shard engine configuration. Its SubmitWindow is
	// also the shard's admission window: with W in-flight analyses a
	// shard refuses further misses with 429.
	Engine engine.Config
	// JournalDir, when set, gives each shard an append-only journal
	// (shard-<i>.jsonl) recording every completed analysis. On boot,
	// every *.jsonl in the directory is replayed — re-routed by current
	// hash prefix, so a shard-count change between boots is harmless —
	// to warm the report store and re-seed quarantines.
	JournalDir string
	// MaxBodyBytes bounds POST /v1/analyze bodies (≤ 0 → 1 MiB).
	MaxBodyBytes int64
}

// shard is one partition: an engine, its admission slots, its journal
// and its slice of the content-addressed report store.
type shard struct {
	id      int
	eng     *engine.Engine
	slots   chan struct{} // admission window; len == in-flight analyses
	journal *journal.Writer

	mu      sync.RWMutex
	reports map[string][]byte // canonical hash -> complete hit envelope
}

// lookup returns the stored hit envelope of a hash.
func (sh *shard) lookup(hash string) ([]byte, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	env, ok := sh.reports[hash]
	return env, ok
}

// store keeps a marshalled report as its complete hit envelope and
// returns the envelope.
func (sh *shard) store(hash string, report []byte) []byte {
	env := hitEnvelope(hash, sh.id, report)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.reports[hash] = env
	return env
}

func (sh *shard) size() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.reports)
}

// Server is the long-running analysis service. Create with New, mount
// Handler on an http.Server, and Close on the way out (after the HTTP
// listener has stopped accepting) to drain in-flight jobs and flush the
// journals.
type Server struct {
	cfg    Config
	start  time.Time
	shards []*shard
	mux    *http.ServeMux
	memo   BodyMemo

	draining atomic.Bool

	// Request-level counters (the engine counters live per shard).
	reqAnalyze     atomic.Int64
	reqHits        atomic.Int64
	reqMisses      atomic.Int64
	rejWindow      atomic.Int64
	rejQuarantine  atomic.Int64
	reqLookups     atomic.Int64
	lookupMisses   atomic.Int64
	reqParseErrors atomic.Int64
	reqMemoHits    atomic.Int64
	reqParses      atomic.Int64
}

// New builds the service: one engine per shard, journals opened and
// replayed. Returns an error only for journal I/O failures.
func New(cfg Config) (*Server, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	s := &Server{cfg: cfg, start: time.Now()}
	for i := 0; i < n; i++ {
		eng := engine.New(cfg.Engine)
		sh := &shard{
			id:      i,
			eng:     eng,
			slots:   make(chan struct{}, eng.SubmitWindow()),
			reports: map[string][]byte{},
		}
		s.shards = append(s.shards, sh)
	}
	if cfg.JournalDir != "" {
		if err := s.replayJournals(cfg.JournalDir); err != nil {
			s.Close()
			return nil, err
		}
		for _, sh := range s.shards {
			w, err := journal.Open(filepath.Join(cfg.JournalDir, fmt.Sprintf("shard-%d.jsonl", sh.id)))
			if err != nil {
				s.Close()
				return nil, err
			}
			sh.journal = w
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/report/{hash}", s.handleReport)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// replayJournals warms the boot: every *.jsonl under dir is folded
// later-wins (files in name order, so shard files replay
// deterministically), completed reports re-enter the content-addressed
// store of whichever shard now owns their hash, and journalled
// panics/quarantines re-seed the owning engine's quarantine so poisoned
// nets stay refused across restarts.
func (s *Server) replayJournals(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	entries, err := journal.Read(paths...)
	if err != nil {
		return fmt.Errorf("server: replaying journals: %w", err)
	}
	for hash, ent := range entries {
		sh := s.shardFor(hash)
		switch ent.Status {
		case string(engine.StatusPanicked), string(engine.StatusQuarantined):
			sh.eng.Quarantine(hash, "journalled "+ent.Status+": "+ent.Error)
		case string(engine.StatusOK):
			if ent.Report != nil {
				sh.store(hash, ent.Report)
			}
		}
	}
	return nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Drain flips the server into draining mode: /readyz turns 503 so load
// balancers stop routing here, and new analyses are refused. In-flight
// jobs keep running until Close.
func (s *Server) Drain() { s.draining.Store(true) }

// Close drains and shuts the service down: new work is refused, each
// shard's engine waits out its in-flight jobs, and the journals are
// flushed and closed. Call after the HTTP listener has stopped accepting
// (http.Server.Shutdown), and at most once concurrently with itself.
func (s *Server) Close() error {
	s.Drain()
	var first error
	for _, sh := range s.shards {
		sh.eng.Close()
		if err := sh.journal.Close(); err != nil && first == nil {
			first = err
		}
		sh.journal = nil
	}
	return first
}

// PrefixIndex routes a canonical hash to one of n partitions by numeric
// hash prefix. Canonical hashes are SHA-256 hex, so the first 8 hex
// digits are a uniform 32-bit key; anything shorter or non-hex (never
// produced by petri.CanonicalHash, but the router stays total) falls
// back to FNV. This is the single routing function of the whole
// deployment: in-process shards partition by it, and the multi-host
// coordinator (internal/coord) routes to backend hosts by it, so a
// report journalled by shard i of host j is findable from anywhere.
func PrefixIndex(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	prefix := hash
	if len(prefix) > 8 {
		prefix = prefix[:8]
	}
	if v, err := strconv.ParseUint(prefix, 16, 64); err == nil && len(prefix) > 0 {
		return int(v % uint64(n))
	}
	f := fnv.New32a()
	f.Write([]byte(hash))
	return int(f.Sum32() % uint32(n))
}

// shardFor routes a canonical hash to its shard via PrefixIndex.
func (s *Server) shardFor(hash string) *shard {
	return s.shards[PrefixIndex(hash, len(s.shards))]
}

// ---- wire types ------------------------------------------------------

// AnalyzeResponse is the envelope of POST /v1/analyze and
// GET /v1/report/{hash}. Report is the engine's deterministic NetReport;
// Cache says whether this request was served from the content-addressed
// store ("hit") or ran the analysis ("miss") — the only field allowed to
// differ between isomorphic submissions.
type AnalyzeResponse struct {
	Hash   string `json:"hash,omitempty"`
	Cache  string `json:"cache,omitempty"` // "hit" | "miss"
	Shard  int    `json:"shard"`
	Status string `json:"status"` // engine.JobStatus vocabulary
	Error  string `json:"error,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 429 responses so
	// JSON-only clients need not read headers.
	RetryAfterSec int             `json:"retry_after_sec,omitempty"`
	Report        json.RawMessage `json:"report,omitempty"`
}

// RequestCounters are the service-level (pre-engine) request tallies.
type RequestCounters struct {
	Analyze            int64 `json:"analyze"`
	AnalyzeHits        int64 `json:"analyze_hits"`
	AnalyzeMisses      int64 `json:"analyze_misses"`
	RejectedWindow     int64 `json:"rejected_window"`
	RejectedQuarantine int64 `json:"rejected_quarantine"`
	ReportLookups      int64 `json:"report_lookups"`
	ReportMisses       int64 `json:"report_misses"`
	ParseErrors        int64 `json:"parse_errors"`
	// MemoHits counts analyze bodies the body memo recognised, skipping
	// the parse and the canonical form; Parses counts bodies run through
	// the parser (memo misses, and memo hits the engine must analyse).
	MemoHits int64 `json:"memo_hits"`
	Parses   int64 `json:"parses"`
}

// ShardStats is one shard's slice of GET /v1/stats: the report-store
// size, quarantine census and the engine's full snapshot (cache and
// layer hit/miss/wait counters plus trace phase totals ride inside
// Engine.Trace).
type ShardStats struct {
	Shard       int            `json:"shard"`
	Reports     int            `json:"reports"`
	Quarantined int            `json:"quarantined"`
	Window      int            `json:"window"`
	InFlight    int            `json:"in_flight"`
	Engine      stats.Snapshot `json:"engine"`
}

// StatsReport is the GET /v1/stats document. Totals sums the per-shard
// engine counters (its Trace is nil — per-phase totals stay per shard,
// where they are attributable).
type StatsReport struct {
	Shards   int             `json:"shards"`
	UptimeMS float64         `json:"uptime_ms"`
	Requests RequestCounters `json:"requests"`
	Totals   stats.Snapshot  `json:"totals"`
	PerShard []ShardStats    `json:"per_shard"`
}

// ---- handlers --------------------------------------------------------

// WriteJSON writes v as the JSON response body, with HTML escaping off:
// the encoding of every envelope either door builds.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// retryAfterSec is the Retry-After hint on 429s: the per-request
// deadline if one is configured (by then the window has certainly
// moved), else one second.
func (s *Server) retryAfterSec() int {
	if t := s.cfg.Engine.JobTimeout; t > 0 {
		if sec := int((t + time.Second - 1) / time.Second); sec > 0 {
			return sec
		}
	}
	return 1
}

func statusCode(st engine.JobStatus) int {
	switch st {
	case engine.StatusOK:
		return http.StatusOK
	case engine.StatusTimeout:
		return http.StatusGatewayTimeout // 504: the per-request deadline fired
	case engine.StatusQuarantined:
		return http.StatusUnprocessableEntity // 422: refused, net is poisoned
	default: // panicked, error
		return http.StatusInternalServerError
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reqAnalyze.Add(1)
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, AnalyzeResponse{Status: "error", Error: "server is draining"})
		return
	}
	maxBody := s.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	// A declared oversize body is refused before any parsing; ReadBody's
	// MaxBytesReader stays as the backstop for chunked or lying senders
	// (the parser would otherwise report a confusing syntax error on the
	// truncated line before the limit error surfaces).
	if r.ContentLength > maxBody {
		s.reqParseErrors.Add(1)
		WriteJSON(w, http.StatusRequestEntityTooLarge, AnalyzeResponse{
			Status: "error",
			Error:  fmt.Sprintf("body exceeds %d byte limit", maxBody),
		})
		return
	}
	body, err := ReadBody(w, r, maxBody)
	if err != nil {
		// Parse what arrived and then the read error, as a parser reading
		// the body itself would: a truncated last line can fail first.
		_, err = petri.Parse(io.MultiReader(bytes.NewReader(body), errReader{err}))
		s.refuseParse(w, err)
		return
	}
	// A body seen before skips the parse and the canonical form.
	sum := sha256.Sum256(body)
	key, hit := s.memo.Lookup(sum)
	var n *petri.Net
	if hit {
		s.reqMemoHits.Add(1)
	} else {
		s.reqParses.Add(1)
		if key, n, err = s.memo.Resolve(sum, body); err != nil {
			if errors.Is(err, ErrCanonicalPanic) {
				WriteJSON(w, http.StatusInternalServerError, AnalyzeResponse{Status: string(engine.StatusPanicked), Error: err.Error()})
				return
			}
			s.refuseParse(w, err)
			return
		}
	}
	hash := key.Hash
	sh := s.shardFor(hash)

	// Quarantine check before admission: a poisoned hash is refused
	// without consuming a window slot.
	if reason, ok := sh.eng.QuarantineReason(hash); ok {
		s.rejQuarantine.Add(1)
		WriteJSON(w, http.StatusUnprocessableEntity, AnalyzeResponse{
			Hash: hash, Shard: sh.id,
			Status: string(engine.StatusQuarantined),
			Error:  reason,
		})
		return
	}

	// Content-addressed dedup: any structurally identical net already
	// analysed (this boot or replayed from the journal) is served from
	// the store without touching the engine.
	if env, ok := sh.lookup(hash); ok {
		s.reqHits.Add(1)
		WriteEnvelope(w, http.StatusOK, env)
		return
	}
	if n == nil {
		// A remembered body with no stored report (its last run failed or
		// timed out): the engine needs the net itself.
		s.reqParses.Add(1)
		if n, err = petri.Parse(bytes.NewReader(body)); err != nil {
			s.refuseParse(w, err)
			return
		}
	}

	// Admission control: a full submit window refuses instead of
	// queueing — the HTTP face of the engine's backpressure.
	select {
	case sh.slots <- struct{}{}:
	default:
		s.rejWindow.Add(1)
		sec := s.retryAfterSec()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		WriteJSON(w, http.StatusTooManyRequests, AnalyzeResponse{
			Hash: hash, Shard: sh.id,
			Status:        "error",
			Error:         fmt.Sprintf("shard %d submit window (%d) is full", sh.id, cap(sh.slots)),
			RetryAfterSec: sec,
		})
		return
	}
	defer func() { <-sh.slots }()

	s.reqMisses.Add(1)
	var res engine.Result
	var raw []byte
	var rawErr error
	err = sh.eng.AnalyzeEach([]*petri.Net{n}, func(_ int, r engine.Result) {
		// The one encoding of the report serves the journal, the store
		// and the reply. Journal inside the engine callback:
		// Engine.Close waits for it, so a drain never loses a completed
		// job's record.
		res = r
		if raw, rawErr = json.Marshal(r.Report); rawErr != nil || sh.journal == nil {
			return
		}
		ent := journal.Entry{
			Hash:      r.Report.Hash,
			Source:    "http:" + n.Name(),
			Status:    string(r.Status),
			ElapsedMS: float64(r.Elapsed.Nanoseconds()) / 1e6,
			Report:    raw,
		}
		if r.Err != nil {
			ent.Error = r.Err.Error()
		}
		// Reissueable outcomes carry the net source so a coordinator
		// folding this journal can re-submit the work elsewhere.
		if r.Status == engine.StatusTimeout || r.Status == engine.StatusPanicked {
			ent.Net = petri.Format(n)
		}
		sh.journal.Record(ent)
	})
	if err != nil { // only ErrEngineClosed: raced a shutdown
		WriteJSON(w, http.StatusServiceUnavailable, AnalyzeResponse{Hash: hash, Shard: sh.id, Status: "error", Error: err.Error()})
		return
	}

	if rawErr != nil {
		WriteJSON(w, http.StatusInternalServerError, AnalyzeResponse{Hash: hash, Shard: sh.id, Status: "error", Error: rawErr.Error()})
		return
	}
	if res.Status == engine.StatusOK {
		// One encoding serves the store and this reply.
		WriteEnvelope(w, http.StatusOK, missReply(sh.store(hash, raw)))
		return
	}
	resp := AnalyzeResponse{
		Hash: hash, Cache: "miss", Shard: sh.id,
		Status: string(res.Status),
		Report: raw,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	WriteJSON(w, statusCode(res.Status), resp)
}

// refuseParse answers a body that failed to parse: 413 when the read
// hit the body limit, 400 otherwise.
func (s *Server) refuseParse(w http.ResponseWriter, err error) {
	s.reqParseErrors.Add(1)
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, code, AnalyzeResponse{Status: "error", Error: "parse: " + err.Error()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.reqLookups.Add(1)
	hash := r.PathValue("hash")
	sh := s.shardFor(hash)
	var env []byte
	ok := ValidHash(hash)
	if ok {
		env, ok = sh.lookup(hash)
	}
	if !ok {
		s.lookupMisses.Add(1)
		WriteJSON(w, http.StatusNotFound, AnalyzeResponse{
			Hash: hash, Shard: sh.id,
			Status: "error", Error: "unknown report hash",
		})
		return
	}
	WriteEnvelope(w, http.StatusOK, env)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.StatsReport())
}

// StatsReport assembles the /v1/stats document: request counters,
// per-shard engine snapshots (cache/layer counters and trace phase
// totals included) and the cross-shard counter totals.
func (s *Server) StatsReport() StatsReport {
	rep := StatsReport{
		Shards:   len(s.shards),
		UptimeMS: float64(time.Since(s.start).Nanoseconds()) / 1e6,
		Requests: RequestCounters{
			Analyze:            s.reqAnalyze.Load(),
			AnalyzeHits:        s.reqHits.Load(),
			AnalyzeMisses:      s.reqMisses.Load(),
			RejectedWindow:     s.rejWindow.Load(),
			RejectedQuarantine: s.rejQuarantine.Load(),
			ReportLookups:      s.reqLookups.Load(),
			ReportMisses:       s.lookupMisses.Load(),
			ParseErrors:        s.reqParseErrors.Load(),
			MemoHits:           s.reqMemoHits.Load(),
			Parses:             s.reqParses.Load(),
		},
	}
	var busyWeighted float64
	for _, sh := range s.shards {
		snap := sh.eng.Stats()
		rep.PerShard = append(rep.PerShard, ShardStats{
			Shard:       sh.id,
			Reports:     sh.size(),
			Quarantined: len(sh.eng.QuarantinedHashes()),
			Window:      cap(sh.slots),
			InFlight:    len(sh.slots),
			Engine:      snap,
		})
		t := &rep.Totals
		t.Jobs += snap.Jobs
		t.CacheHits += snap.CacheHits
		t.CacheMisses += snap.CacheMisses
		t.QueueDepth += snap.QueueDepth
		if snap.QueueDepthPeak > t.QueueDepthPeak {
			t.QueueDepthPeak = snap.QueueDepthPeak
		}
		t.BusyWorkers += snap.BusyWorkers
		t.Workers += snap.Workers
		t.Timeouts += snap.Timeouts
		t.Panics += snap.Panics
		t.QuarantineSkips += snap.QuarantineSkips
		busyWeighted += snap.Utilization * float64(snap.Workers)
	}
	if total := rep.Totals.CacheHits + rep.Totals.CacheMisses; total > 0 {
		rep.Totals.HitRate = float64(rep.Totals.CacheHits) / float64(total)
	}
	if rep.Totals.Workers > 0 {
		rep.Totals.Utilization = busyWeighted / float64(rep.Totals.Workers)
	}
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
