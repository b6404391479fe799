package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fcpn/internal/fault"
)

// FaultClass sorts a request outcome into the retry policy's three
// buckets. The classification is the contract of the whole failover
// design: because reports are content-addressed and byte-identical
// across isomorphic requests, retrying a Transient outcome anywhere can
// never change an answer — while retrying a Terminal one can never
// *produce* one (the refusal is about the request, not the host).
type FaultClass int

const (
	// ClassOK: a definitive answer (2xx, or a terminal refusal the
	// caller should surface as-is).
	ClassOK FaultClass = iota
	// ClassTransient: the fault is about the path or the moment, not
	// the work — retry, hedge or fail over.
	ClassTransient
	// ClassTerminal: retrying the same bytes can only reproduce the
	// refusal (malformed net, oversize body, quarantined hash).
	ClassTerminal
)

// ClassifyStatus buckets an HTTP status from a qssd backend.
// Transient: 429 (admission window full — the host is alive and says
// when to come back), 502 (an intermediary, not the engine), 503
// (draining for restart), 504 (per-request deadline; another host, or
// a quieter one, may finish the job in time). Terminal: 400 (malformed
// net), 404 (unknown report hash), 413 (oversize body), 422
// (quarantined — every host would refuse the same canonical hash), 500
// (the engine already panicked and quarantined; a resubmit gets the
// 422). Everything else 2xx-adjacent is OK.
func ClassifyStatus(code int) FaultClass {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return ClassTransient
	case http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
		http.StatusInternalServerError:
		return ClassTerminal
	}
	if code >= 200 && code < 300 {
		return ClassOK
	}
	if code >= 500 {
		return ClassTransient
	}
	return ClassTerminal
}

// Transient reports whether a transport-level error is worth retrying.
// Every transport error is: connection refused (host down — fail
// over), reset (host died mid-exchange), timeouts, and torn bodies
// surfacing as unexpected EOF. A context cancellation is the caller
// giving up, not the network failing, so it is not transient.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Backoff produces bounded, seeded-jittered exponential delays. The
// jitter matters as much as the growth: a fleet of blocked senders
// sleeping the same Retry-After wakes as a thundering herd at the same
// instant; drawing each sleep from a seeded stream spreads them out
// while keeping any single run reproducible.
type Backoff struct {
	// Base is the attempt-0 delay; each attempt doubles it, capped at
	// Max.
	Base time.Duration
	Max  time.Duration

	mu  sync.Mutex
	rng *fault.Rand
}

// NewBackoff builds a seeded backoff; base and max are clamped to sane
// defaults (25ms, 2s) when non-positive.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < base {
		max = base
	}
	return &Backoff{Base: base, Max: max, rng: fault.NewRand(seed)}
}

// Delay returns the sleep before retry `attempt` (0-based): the capped
// exponential with half its span jittered, i.e. uniform in
// [d/2, d). Goroutine-safe; the draw order is the arrival order.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	return d/2 + b.jitter(d/2)
}

// Honour turns a server-provided Retry-After hint into a sleep: the
// hint plus up to half of it again in seeded jitter, so blocked senders
// honouring the same hint do not stampede back together.
func (b *Backoff) Honour(retryAfter time.Duration) time.Duration {
	if retryAfter <= 0 {
		return b.Delay(0)
	}
	return retryAfter + b.jitter(retryAfter/2)
}

func (b *Backoff) jitter(span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.rng.Uint64() % uint64(span))
}

// SleepCtx sleeps d or returns the context's error first — the
// cancellation-aware sleep every retry loop here uses.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryAfter extracts the Retry-After hint (whole seconds form) from a
// response, 0 if absent or unparsable.
func RetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return 0
}

// WaitReady polls GET base+"/readyz" with context-aware exponential
// backoff until the service answers 200, the budget runs out, or ctx is
// cancelled. It replaces fixed-interval sleep loops in the qssd client
// and is the same probe the coordinator's breaker loop uses.
func WaitReady(ctx context.Context, hc *http.Client, base string, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	bo := NewBackoff(10*time.Millisecond, 500*time.Millisecond, 0)
	var last error
	for attempt := 0; ; attempt++ {
		ok, err := ProbeReady(ctx, hc, base)
		if ok {
			return nil
		}
		last = err
		if err := SleepCtx(ctx, bo.Delay(attempt)); err != nil {
			return fmt.Errorf("server %s not ready after %v: %w", base, budget, last)
		}
	}
}

// ProbeReady performs one readiness probe: true iff /readyz answers
// 200 with its whole body. A torn body fails the probe, as a torn
// analyze response counts against the breaker: the path to the backend
// is garbling. The error reports what went wrong instead (non-200
// status, torn body or transport failure).
func ProbeReady(ctx context.Context, hc *http.Client, base string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("readyz: %s", resp.Status)
	}
	if cerr != nil {
		return false, fmt.Errorf("readyz: torn body: %w", cerr)
	}
	return true, nil
}
