package server

import (
	"container/list"
	"sync"

	"simdtree/internal/metrics"
	"simdtree/internal/trace"
)

// cachedResult is what a completed job leaves behind: the Section 3.1
// statistics and, for traced jobs, the per-cycle samples.  Values are
// stored and returned by value/shared-read only, so a cache hit serves
// byte-identical Stats to the cold run that populated it.
type cachedResult struct {
	Stats metrics.Stats
	Trace *trace.Trace // nil unless the spec requested tracing
	hit   *hitDoc      // the template of its hits' documents; put sets it
}

// resultCache is a size-capped LRU keyed by the canonical spec hash.
// Only successfully completed runs are stored; cancelled, timed-out,
// exhausted and failed jobs never populate it.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res cachedResult
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached result for key, promoting it to most recently
// used.
func (c *resultCache) get(key string) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return cachedResult{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores res under key, evicting the least recently used entry when
// the cache is full.
func (c *resultCache) put(key string, res cachedResult) {
	res.hit = new(hitDoc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
