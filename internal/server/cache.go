package server

import (
	"container/list"
	"context"
	"sync"

	"socyield/internal/obs"
	"socyield/internal/yield"
)

// modelCache is a keyed LRU of compiled models (Reevaluators) with
// single-flight deduplication: concurrent requests for the same model
// key trigger exactly one build, and every waiter shares its outcome.
//
// The cache holds *entries*, some of which may still be building. An
// entry carries a ready channel that the builder closes when the
// Reevaluator (or the build error) is in place; waiters select on it
// against their request context, so a slow compile never wedges a
// handler past its deadline — the build keeps running in the
// background and warms the cache for the next request.
//
// Memory is bounded twice over: the entry count by the LRU capacity
// here, and each model's decision diagrams by the node budget the
// server passes into every build (yield.Options.NodeLimit).
type modelCache struct {
	// Counters are resolved once at construction (obs instruments are
	// nil-safe, so a cache without a registry still works).
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	waiting   *obs.Gauge

	capacity int

	mu    sync.Mutex
	byKey map[string]*list.Element
	lru   *list.List // front = most recently used
}

// cacheEntry is one cached model. re and err may only be read after
// ready is closed.
type cacheEntry struct {
	key   string
	ready chan struct{}
	re    *yield.Reevaluator
	err   error
}

func newModelCache(capacity int, rec *obs.Registry) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		hits:      rec.Counter("cache.hits"),
		misses:    rec.Counter("cache.misses"),
		coalesced: rec.Counter("cache.coalesced"),
		evictions: rec.Counter("cache.evictions"),
		entries:   rec.Gauge("cache.entries"),
		waiting:   rec.Gauge("build.queue_depth"),
		capacity:  capacity,
		byKey:     make(map[string]*list.Element),
		lru:       list.New(),
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// get returns the Reevaluator for key, building it with build on a
// miss. hit reports whether a previously requested model was reused
// (including coalescing onto a build still in flight). The context
// bounds only this caller's wait: an abandoned build still completes
// and populates the cache for the next request.
func (c *modelCache) get(ctx context.Context, key string, build func() (*yield.Reevaluator, error)) (re *yield.Reevaluator, hit bool, err error) {
	c.mu.Lock()
	var entry *cacheEntry
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		entry = el.Value.(*cacheEntry)
		hit = true
		c.hits.Inc()
		if !isClosed(entry.ready) {
			c.coalesced.Inc()
		}
		c.mu.Unlock()
	} else {
		entry = &cacheEntry{key: key, ready: make(chan struct{})}
		c.insert(entry)
		c.misses.Inc()
		c.mu.Unlock()
		// Build outside the lock and off the request's lifetime: the
		// winning requester may time out, but the compile still
		// finishes and serves everyone queued behind the entry.
		go func() {
			entry.re, entry.err = build()
			// Drop a failed entry before waking its waiters, so none
			// of them can still find it in the cache.
			if entry.err != nil {
				c.remove(entry)
			}
			close(entry.ready)
		}()
	}

	// build.queue_depth gauges how many requests are parked on builds
	// still in flight (hit-path requests on ready entries fall through
	// without touching it).
	if !isClosed(entry.ready) {
		c.waiting.Add(1)
		defer c.waiting.Add(-1)
	}
	select {
	case <-entry.ready:
		return entry.re, hit, entry.err
	case <-ctx.Done():
		return nil, hit, ctx.Err()
	}
}

// putReady inserts an already-built model as a ready entry — the
// warm-start path, where boot loads compiled models from the
// persistent store without any request (or build) in flight. A live
// entry under the same key wins: it is either the same model (keys are
// content addresses) or a build already racing, and both beat
// replacing it.
func (c *modelCache) putReady(key string, re *yield.Reevaluator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return
	}
	entry := &cacheEntry{key: key, ready: make(chan struct{}), re: re}
	close(entry.ready)
	c.insert(entry)
}

// insert puts entry at the front of the LRU and evicts past capacity.
// The caller holds c.mu.
func (c *modelCache) insert(entry *cacheEntry) {
	c.byKey[entry.key] = c.lru.PushFront(entry)
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.lru.Remove(back)
		c.evictions.Inc()
	}
	c.entries.Set(int64(len(c.byKey)))
}

// remove drops a failed entry so a later identical request retries the
// build instead of replaying the error forever. Only the exact entry
// is removed — an unrelated successor under the same key stays.
func (c *modelCache) remove(entry *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[entry.key]; ok && el.Value.(*cacheEntry) == entry {
		c.lru.Remove(el)
		delete(c.byKey, entry.key)
		c.entries.Set(int64(len(c.byKey)))
	}
}

// len reports the current entry count (for tests).
func (c *modelCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
