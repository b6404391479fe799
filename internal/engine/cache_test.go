package engine

import (
	"errors"
	"testing"
	"time"

	"fcpn/internal/engine/stats"
	"fcpn/internal/trace"
)

// TestCacheWaiterComputesAfterLeaderError checks that a flight shares no
// error: a waiter whose leader's compute fails looks the key up again and
// ends with its own computed value, and only that value is cached.
func TestCacheWaiterComputesAfterLeaderError(t *testing.T) {
	leaderErr := errors.New("leader's own failure")
	c, tr, leader := leaderFailsAfterWaiterJoins(t, func() (any, error) { return nil, leaderErr })
	if !errors.Is(leader.err, leaderErr) {
		t.Fatalf("leader got %v, want its own error", leader.err)
	}
	checkWaiterComputed(t, c, tr)
}

// TestCacheWaiterComputesAfterLeaderPanic checks the same when the
// leader's compute panics: the panic goes to the leader alone, and the
// waiter computes the key itself instead of getting an error.
func TestCacheWaiterComputesAfterLeaderPanic(t *testing.T) {
	c, tr, leader := leaderFailsAfterWaiterJoins(t, func() (any, error) { panic("leader's own panic") })
	if leader.panicked != "leader's own panic" {
		t.Fatalf("leader recovered %v, want its own panic", leader.panicked)
	}
	checkWaiterComputed(t, c, tr)
}

// lookup is how one getOrCompute call ended.
type lookup struct {
	val, panicked any
	err           error
}

// leaderFailsAfterWaiterJoins starts a leader lookup of key "k" whose
// compute waits until a second lookup has joined its flight and then ends
// with fail. The join is read off the "cache/k/wait" counter, which the
// waiter records before it blocks, so no timing decides the interleaving.
// The waiter's own compute returns "waiter", and the test fails unless
// that is what its lookup ends with. It returns the cache, its tracer and
// the leader's outcome.
func leaderFailsAfterWaiterJoins(t *testing.T, fail func() (any, error)) (*cache, *trace.Tracer, lookup) {
	t.Helper()
	tr := trace.New()
	c := newCache(4, &stats.Counters{}, tr)
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan lookup, 1)
	go func() {
		var out lookup
		defer func() {
			out.panicked = recover()
			leaderDone <- out
		}()
		out.val, out.err = c.getOrCompute("k", func() (any, error) {
			close(entered)
			<-release
			return fail()
		})
	}()
	<-entered
	waiterDone := make(chan lookup, 1)
	go func() {
		v, err := c.getOrCompute("k", func() (any, error) { return "waiter", nil })
		waiterDone <- lookup{val: v, err: err}
	}()
	for tr.Report().Counter("cache/k/wait") == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	leader := <-leaderDone
	if w := <-waiterDone; w.err != nil || w.val != "waiter" {
		t.Fatalf("waiter got (%v, %v) from a failed leader, want its own value", w.val, w.err)
	}
	return c, tr, leader
}

// checkWaiterComputed checks the waiter's computation is the one cached,
// and that the counters show two computations and one join.
func checkWaiterComputed(t *testing.T, c *cache, tr *trace.Tracer) {
	t.Helper()
	v, err := c.getOrCompute("k", func() (any, error) { return "third", nil })
	if err != nil || v != "waiter" {
		t.Fatalf("lookup after the flights got (%v, %v), want the waiter's cached value", v, err)
	}
	rep := tr.Report()
	for outcome, want := range map[string]int64{"miss": 2, "wait": 1, "hit": 1} {
		if got := rep.Counter("cache/k/" + outcome); got != want {
			t.Errorf("cache/k/%s = %d, want %d", outcome, got, want)
		}
	}
}
