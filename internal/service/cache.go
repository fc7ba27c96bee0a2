package service

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"localmds/internal/core"
	"localmds/internal/graph"
)

// solveKey content-addresses one solve: the canonical fingerprint of the
// frozen CSR plus the normalized solver params. Two requests with equal
// keys are interchangeable — whatever client, wire format, or edge order
// they arrived with.
type solveKey struct {
	fp     graph.Fingerprint
	params string
}

// newSolveKey builds the cache key from a frozen graph and normalized
// params.
func newSolveKey(csr *graph.CSR, p core.Params) solveKey {
	return solveKey{fp: csr.Fingerprint(), params: paramsKeyString(p)}
}

// paramsKeyString renders normalized params into the canonical key form
// shared by the memory cache and the disk store.
func paramsKeyString(p core.Params) string {
	return fmt.Sprintf("r1=%d,r2=%d,mbc=%d", p.R1, p.R2, p.MaxBruteComponent)
}

// bodyDigest is the SHA-256 of a POST /v1/solve request body.
type bodyDigest [sha256.Size]byte

// maxEntryBodies bounds the request bodies one cache entry is known by;
// a further one replaces the oldest.
const maxEntryBodies = 4

// bodyAlias is what a request body parsed to: the solve's key and the
// job source it reports.
type bodyAlias struct {
	key    solveKey
	source string
}

// resultCache is the content-addressed LRU over completed solves.
// Entries are treated as immutable by every reader (handlers only
// serialize them); eviction is strict LRU at the configured capacity.
// Hit/miss accounting lives in Server.submit, not here: only the
// request router can tell a genuine miss (leader, will recompute) from
// a deduplicated join onto an in-flight job.
//
// bodies indexes request bodies by digest: the solve a body parsed to,
// for entries still cached. Parsing is deterministic, so a repeat of the
// same bytes can be answered without decoding them. Each digest belongs
// to one entry and goes with it, so the index never names an evicted
// key and holds at most maxEntryBodies digests per entry.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[solveKey]*list.Element
	bodies    map[bodyDigest]bodyAlias
	evictions int64
}

type cacheEntry struct {
	key solveKey
	res *SolveOutcome
	// computedAt is when the outcome was originally computed — not when
	// this process cached it. Entries warmed from the disk store carry the
	// persisted instant, so cache_age_s keeps counting across restarts.
	computedAt time.Time
	// bodies are the digests indexed to this entry, oldest first.
	bodies []bodyDigest
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[solveKey]*list.Element, capacity),
		bodies: make(map[bodyDigest]bodyAlias),
	}
}

// get returns the cached outcome for key and its age (time since the
// outcome was computed, possibly in an earlier process), refreshing its
// recency.
func (c *resultCache) get(key solveKey) (*SolveOutcome, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, time.Since(e.computedAt), true
}

// put stores the outcome for key with its computation instant, evicting
// the least recently used entry beyond capacity. Storing an existing key
// refreshes it.
func (c *resultCache) put(key solveKey, res *SolveOutcome, computedAt time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.computedAt = res, computedAt
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, computedAt: computedAt})
	for c.ll.Len() > c.cap {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, e.key)
		for _, d := range e.bodies {
			delete(c.bodies, d)
		}
		c.evictions++
	}
}

// lookupBody returns what the request body with digest d parsed to, when
// the entry it parsed to is still cached.
func (c *resultCache) lookupBody(d bodyDigest) (bodyAlias, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.bodies[d]
	return a, ok
}

// addBody records that the request body with digest d parsed to a, as
// long as a's entry is cached; the entry's oldest digest makes room when
// it already has maxEntryBodies.
func (c *resultCache) addBody(d bodyDigest, a bodyAlias) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bodies[d]; ok {
		return
	}
	el, ok := c.items[a.key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.bodies) == maxEntryBodies {
		delete(c.bodies, e.bodies[0])
		e.bodies = append(e.bodies[:0], e.bodies[1:]...)
	}
	e.bodies = append(e.bodies, d)
	c.bodies[d] = a
}

// stats returns the eviction counter and the current entry count.
func (c *resultCache) stats() (evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, c.ll.Len()
}
