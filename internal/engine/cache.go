package engine

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"fcpn/internal/engine/stats"
	"fcpn/internal/trace"
)

// cache is the engine's content-addressed store: a bounded, goroutine-safe
// LRU keyed by strings derived from canonical structural hashes
// ("<layer>:<hash>"). Values are stored in canonical index space and must
// be treated as immutable by all readers — that is what makes one entry
// shareable across every net with the same canonical structure.
//
// A singleflight map collapses concurrent computations of the same key:
// the first goroutine computes, the rest wait and share the result. The
// leader's lookup counts as a miss, each follower's as a hit.
type cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      list.List // front = most recent; values are *cacheEntry
	inflight map[string]*flight
	counters *stats.Counters
	// tracer receives per-layer lookup counters
	// ("cache/<layer>/hit|miss|wait"), derived from the key prefix. The
	// aggregate counters above stay layer-blind for compatibility.
	tracer *trace.Tracer
}

type cacheEntry struct {
	key string
	val any
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// cacheCapacity bounds every engine's cache: entries across all layers.
const cacheCapacity = 4096

func newCache(capacity int, counters *stats.Counters, tracer *trace.Tracer) *cache {
	return &cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		counters: counters,
		tracer:   tracer,
	}
}

// count records a layer-resolved lookup outcome ("hit", "miss", "wait")
// on the tracer's counters.
func (c *cache) count(key, outcome string) {
	if c.tracer == nil {
		return
	}
	layer := key
	if i := strings.IndexByte(key, ':'); i >= 0 {
		layer = key[:i]
	}
	c.tracer.Add("cache/"+layer+"/"+outcome, 1)
}

// put stores val under key, evicting the least-recently-used entry past
// capacity.
func (c *cache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for len(c.entries) > c.capacity {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// getOrCompute returns the cached value for key or computes it exactly
// once across concurrent callers. Errors are returned to every waiter and
// never cached.
func (c *cache) getOrCompute(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.counters.CacheHits.Add(1)
		c.count(key, "hit")
		c.lru.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.inflight[key]; ok {
		// A concurrent computation is underway; share its outcome.
		c.counters.CacheHits.Add(1)
		c.count(key, "wait")
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	c.counters.CacheMisses.Add(1)
	c.count(key, "miss")
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// A panic in compute must not strand the flight: waiters would block
	// on done forever and every future lookup of the key would join them.
	// Convert the panic into an error for the waiters, release the
	// flight, then re-raise for the leader's own recovery (the engine's
	// per-job quarantine).
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("engine: computing %s panicked: %v", key, r)
			close(f.done)
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			panic(r)
		}
	}()
	f.val, f.err = compute()
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	if f.err == nil {
		c.put(key, f.val)
	}
	return f.val, f.err
}
