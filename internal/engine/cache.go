package engine

import (
	"container/list"
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
// the first goroutine computes, the rest wait and share its value. A
// flight shares nothing else: when the leader fails, its waiters look the
// key up again and one of them computes it. Each lookup counts: a leader's
// as a miss, a waiter's as a hit.
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

// flight is one computation in progress. val is set, before done closes,
// only when the computation succeeded.
type flight struct {
	done chan struct{}
	val  any
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
// capacity. key is not stored: only a flight's leader calls put, and it
// does so before releasing the flight, so no second leader for the key
// can start until the entry is there.
func (c *cache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for len(c.entries) > c.capacity {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// getOrCompute returns the cached value for key or computes it, with at
// most one computation of a key running at a time. A waiter whose leader
// failed, by an error or a panic, goes back through the lookup and, if no
// other flight is running by then, computes the key itself: a caller's
// error always comes from its own compute. compute must return a non-nil
// value when it succeeds. Errors are never cached.
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
		// A concurrent computation is underway; share its value, or look
		// again if it failed.
		c.counters.CacheHits.Add(1)
		c.count(key, "wait")
		c.mu.Unlock()
		<-f.done
		if f.val == nil {
			return c.getOrCompute(key, compute)
		}
		return f.val, nil
	}
	c.counters.CacheMisses.Add(1)
	c.count(key, "miss")
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// Release the flight however compute ends: after a panic its waiters
	// would otherwise block on done forever, and every later lookup of the
	// key would join them. The panic itself goes on to the leader's own
	// recovery (the engine's job guard).
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()
	v, err := compute()
	if err != nil {
		return nil, err
	}
	c.put(key, v)
	f.val = v
	return v, nil
}
