package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dynspread/internal/wire"
)

// CacheStats is a snapshot of the cache counters, exported on /v1/metrics.
type CacheStats struct {
	Hits     int64
	Misses   int64
	Size     int
	Capacity int
}

// Cache is the content-addressed run cache: wire.Key of the spec (the
// SHA-256 of its normalized canonical JSON) → completed trial result,
// LRU-bounded, safe for concurrent use. Every execution is a deterministic
// function of its spec, which is what makes cached results safe to serve
// verbatim — and what the cluster coordinator and the persistent store key
// on too. Repeated requests for a spec already served cost a map lookup
// instead of a simulation.
type Cache struct {
	hits, misses atomic.Int64

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res wire.TrialResult
}

// NewCache returns a cache bounded to capacity entries (capacity < 1 is
// clamped to 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get looks the key up, marking the entry most recently used and counting a
// hit or a miss.
func (c *Cache) Get(key string) (wire.TrialResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return wire.TrialResult{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting the least recently used entry when the
// cache is full. Storing an existing key refreshes its recency.
func (c *Cache) Put(key string, res wire.TrialResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	capacity := c.cap
	c.mu.Unlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Size:     size,
		Capacity: capacity,
	}
}
