package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fcpn"
	"fcpn/internal/coord"
	"fcpn/internal/engine"
	"fcpn/internal/petri"
	"fcpn/internal/server"
)

// clientConfig drives a corpus through a running qssd service.
type clientConfig struct {
	BaseURL string
	Workers int // concurrent requests (0 = GOMAXPROCS)
	Repeat  int // pass count: 1 cold + Repeat-1 warm
	Out     string
}

// Client-side retry policy: a 429 sleeps the service's Retry-After hint
// (jittered, so blocked senders do not stampede back in lockstep);
// transient transport errors and 503-draining back off exponentially.
// Both are bounded by an attempt count and a total wall-clock budget —
// a client must degrade loudly, not spin forever against a dead or
// permanently saturated service.
const (
	clientRetryAttempts = 8
	clientRetryBudget   = 2 * time.Minute
)

// runClient is the HTTP twin of the batch path: the same corpus, the
// same report document, but every analysis is a POST /v1/analyze against
// a running service or coordinator. The cold/warm split measures the
// service's content-addressed dedup — the warm passes should come back
// marked "hit" without touching the engines. Availability and latency
// percentiles are tallied over every request, so a run that kills a
// backend mid-batch reads its availability from the report.
func runClient(cfg clientConfig, sources []string, nets []*petri.Net, stdout io.Writer) error {
	base := strings.TrimRight(cfg.BaseURL, "/")
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	texts := make([]string, len(nets))
	for i, n := range nets {
		texts[i] = fcpn.Format(n)
	}
	hc := &http.Client{Timeout: 5 * time.Minute}
	bo := coord.NewBackoff(50*time.Millisecond, 2*time.Second, 1)

	if err := coord.WaitReady(context.Background(), hc, base, 10*time.Second); err != nil {
		return err
	}

	final := make([]netResult, len(nets))
	var latMu sync.Mutex
	var latencies []time.Duration
	var okRequests, totalRequests int
	// pass posts every net once with `workers` concurrent senders,
	// tallying the service's cache markers; record also fills final.
	pass := func(tally map[string]int, record bool) (time.Duration, error) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		sem := make(chan struct{}, workers)
		t0 := time.Now()
		for i := range nets {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				tReq := time.Now()
				code, ar, err := postAnalyze(hc, base, texts[i], bo)
				elapsed := time.Since(tReq)
				latMu.Lock()
				latencies = append(latencies, elapsed)
				totalRequests++
				if err == nil && code == http.StatusOK {
					okRequests++
				}
				latMu.Unlock()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", sources[i], err)
					}
					return
				}
				if ar.Cache != "" {
					tally[ar.Cache]++
				}
				if !record {
					return
				}
				final[i] = netResult{
					Source:    sources[i],
					ElapsedMS: msOf(elapsed),
					Status:    ar.Status,
					Error:     ar.Error,
					Cache:     ar.Cache,
				}
				if len(ar.Report) > 0 {
					rep := new(engine.NetReport)
					if jerr := json.Unmarshal(ar.Report, rep); jerr == nil {
						final[i].Report = rep
					}
				}
			}(i)
		}
		wg.Wait()
		return time.Since(t0), firstErr
	}

	coldCache := map[string]int{}
	cold, err := pass(coldCache, true)
	if err != nil {
		return err
	}
	warmCache := map[string]int{}
	var warm time.Duration
	for r := 1; r < cfg.Repeat; r++ {
		d, err := pass(warmCache, false)
		if err != nil {
			return err
		}
		warm += d
	}

	rep := batchReport{
		Workers:       workers,
		Repeat:        cfg.Repeat,
		Nets:          len(nets),
		Jobs:          len(nets) * cfg.Repeat,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		StatusCounts:  map[string]int{},
		ColdElapsedMS: msOf(cold),
		ElapsedMS:     msOf(cold + warm),
		ServerURL:     cfg.BaseURL,
		ColdCache:     coldCache,
		Results:       final,
	}
	if cold > 0 {
		rep.ColdNetsPerSec = float64(len(nets)) / cold.Seconds()
	}
	if cfg.Repeat > 1 && warm > 0 {
		rep.WarmElapsedMS = msOf(warm)
		rep.WarmNetsPerSec = float64(len(nets)*(cfg.Repeat-1)) / warm.Seconds()
		rep.WarmCache = warmCache
	}
	if total := cold + warm; total > 0 {
		rep.RequestsPerSec = float64(len(nets)*cfg.Repeat) / total.Seconds()
	}
	if totalRequests > 0 {
		rep.Availability = float64(okRequests) / float64(totalRequests)
		rep.LatencyP50MS = msOf(percentile(latencies, 50))
		rep.LatencyP99MS = msOf(percentile(latencies, 99))
	}
	for i := range final {
		rep.StatusCounts[final[i].Status]++
	}
	if raw, err := getStats(hc, base); err == nil {
		rep.ServerStats = raw
	}
	return writeReport(&rep, cfg.Out, stdout)
}

// percentile returns the p-th percentile (nearest-rank) of the samples.
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// postAnalyze submits one net with bounded, seeded-jittered retries. A
// 429 sleeps the service's Retry-After hint plus jitter; transient
// transport errors (connection refused/reset, torn bodies) and
// 503-draining back off exponentially — a connection reset mid-rolling-
// restart is a retry, not a batch failure. Terminal statuses (400, 413,
// 422, ...) return the envelope for the caller to record. The attempt
// count and wall-clock budget bound the loop: past them the last error
// (or last refusal envelope) is returned.
func postAnalyze(hc *http.Client, base, text string, bo *coord.Backoff) (int, *server.AnalyzeResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), clientRetryBudget)
	defer cancel()
	var lastErr error
	var lastCode int
	var lastEnv *server.AnalyzeResponse
retry:
	for attempt := 0; attempt < clientRetryAttempts; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", strings.NewReader(text))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := hc.Do(req)
		if err != nil {
			if !coord.Transient(err) {
				return 0, nil, err // cancelled / budget exhausted
			}
			lastErr, lastEnv, lastCode = err, nil, 0
			if serr := coord.SleepCtx(ctx, bo.Delay(attempt)); serr != nil {
				break
			}
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil { // torn mid-body: transient
			lastErr, lastEnv, lastCode = rerr, nil, resp.StatusCode
			if serr := coord.SleepCtx(ctx, bo.Delay(attempt)); serr != nil {
				break
			}
			continue
		}
		ar := new(server.AnalyzeResponse)
		if err := json.Unmarshal(body, ar); err != nil {
			lastErr, lastEnv, lastCode = fmt.Errorf("%s: bad response body %q", resp.Status, body), nil, resp.StatusCode
			if serr := coord.SleepCtx(ctx, bo.Delay(attempt)); serr != nil {
				break
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			wait := time.Duration(ar.RetryAfterSec) * time.Second
			if ra := coord.RetryAfter(resp); ra > wait {
				wait = ra
			}
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			lastErr, lastEnv, lastCode = nil, ar, resp.StatusCode
			if serr := coord.SleepCtx(ctx, bo.Honour(wait)); serr != nil {
				break retry
			}
			continue
		case http.StatusServiceUnavailable:
			lastErr, lastEnv, lastCode = nil, ar, resp.StatusCode
			if serr := coord.SleepCtx(ctx, bo.Delay(attempt)); serr != nil {
				break retry
			}
			continue
		}
		return resp.StatusCode, ar, nil
	}
	if lastEnv != nil {
		return lastCode, lastEnv, nil // the refusal outlived the budget: report it
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("retry budget exhausted")
	}
	return lastCode, nil, fmt.Errorf("after %d attempts: %w", clientRetryAttempts, lastErr)
}

func getStats(hc *http.Client, base string) (json.RawMessage, error) {
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}
