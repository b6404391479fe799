package coord

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fcpn/internal/fault"
)

func TestClassifyStatus(t *testing.T) {
	transient := []int{429, 502, 503, 504, 599}
	for _, code := range transient {
		if ClassifyStatus(code) != ClassTransient {
			t.Errorf("ClassifyStatus(%d) != transient", code)
		}
	}
	terminal := []int{400, 404, 413, 422, 500}
	for _, code := range terminal {
		if ClassifyStatus(code) != ClassTerminal {
			t.Errorf("ClassifyStatus(%d) != terminal", code)
		}
	}
	for _, code := range []int{200, 201, 204} {
		if ClassifyStatus(code) != ClassOK {
			t.Errorf("ClassifyStatus(%d) != ok", code)
		}
	}
}

func TestTransientErrors(t *testing.T) {
	if Transient(nil) {
		t.Error("nil error is not transient")
	}
	if Transient(context.Canceled) || Transient(context.DeadlineExceeded) {
		t.Error("caller cancellation is not transient")
	}
	if !Transient(errors.New("connection refused")) {
		t.Error("transport errors are transient")
	}
	if !Transient(&net.OpError{Op: "read", Err: errors.New("connection reset by peer")}) {
		t.Error("reset is transient")
	}
}

// TestBackoffDelayGrowthAndJitter pins the delay envelope: attempt k
// draws from [d/2, d) with d = min(base<<k, max), so delays grow, stay
// bounded, and never collapse to zero (no thundering herd of immediate
// retries).
func TestBackoffDelayGrowthAndJitter(t *testing.T) {
	bo := NewBackoff(40*time.Millisecond, 200*time.Millisecond, 42)
	for attempt := 0; attempt < 6; attempt++ {
		want := 40 * time.Millisecond << attempt
		if want > 200*time.Millisecond {
			want = 200 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := bo.Delay(attempt)
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want)
			}
		}
	}
}

// TestBackoffSeededReproducible pins that the jitter stream is a pure
// function of the seed.
func TestBackoffSeededReproducible(t *testing.T) {
	a := NewBackoff(10*time.Millisecond, time.Second, 7)
	b := NewBackoff(10*time.Millisecond, time.Second, 7)
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i%4), b.Delay(i%4); da != db {
			t.Fatalf("draw %d: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffHonourAddsJitterNotLess(t *testing.T) {
	bo := NewBackoff(10*time.Millisecond, time.Second, 3)
	hint := 80 * time.Millisecond
	for i := 0; i < 50; i++ {
		d := bo.Honour(hint)
		if d < hint || d >= hint+hint/2 {
			t.Fatalf("Honour(%v) = %v outside [hint, 1.5*hint)", hint, d)
		}
	}
}

func TestSleepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	if err := SleepCtx(ctx, 5*time.Second); err == nil {
		t.Fatal("cancelled sleep must report the context error")
	}
	if time.Since(t0) > time.Second {
		t.Fatal("cancelled sleep did not wake promptly")
	}
}

// TestWaitReadyBacksOffAndHonoursContext replaces the old fixed-50ms
// poll: a service that comes up late is found, probe counts stay small
// (backoff, not spin), and cancellation cuts the wait short.
func TestWaitReadyBacksOffAndHonoursContext(t *testing.T) {
	var calls atomic.Int64
	var ready atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	hc := ts.Client()

	go func() {
		time.Sleep(60 * time.Millisecond)
		ready.Store(true)
	}()
	if err := WaitReady(context.Background(), hc, ts.URL, 5*time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if n := calls.Load(); n > 12 {
		t.Fatalf("%d probes in ~60ms: not backing off", n)
	}

	// Cancellation: a dead service with a cancelled context returns
	// promptly with the last probe error wrapped.
	ready.Store(false)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	err := WaitReady(ctx, hc, ts.URL, time.Minute)
	if err == nil || time.Since(t0) > 2*time.Second {
		t.Fatalf("cancelled WaitReady: err=%v after %v", err, time.Since(t0))
	}
}

func TestWaitReadyBudgetExpires(t *testing.T) {
	// A port nothing listens on: every probe fails with refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	t0 := time.Now()
	err = WaitReady(context.Background(), http.DefaultClient, dead, 100*time.Millisecond)
	if err == nil {
		t.Fatal("dead address must fail")
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("budget not honoured: %v", d)
	}
}

func TestProbeReadyRejectsTornBody(t *testing.T) {
	// A 200 whose body is cut short means the path to the backend is
	// garbling, as a torn analyze response does: the probe must fail, or
	// it would close the breaker of a lane that tears every response.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	}))
	defer backend.Close()
	p := fault.NewProxy(backend.URL, 1)
	p.SetBehavior(fault.ProxyBehavior{TornPct: 100})
	front := httptest.NewServer(p)
	defer front.Close()
	if ok, err := ProbeReady(context.Background(), front.Client(), front.URL); ok || err == nil {
		t.Fatalf("torn /readyz accepted: ok=%v err=%v", ok, err)
	}
	if ok, err := ProbeReady(context.Background(), backend.Client(), backend.URL); !ok {
		t.Fatalf("whole /readyz rejected: %v", err)
	}
}
