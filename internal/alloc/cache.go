package alloc

// The ranked-candidate cache: the daemon hot-path optimisation that
// turns the per-allocation re-rank of Candidates into a map lookup.
//
// Ranking a placement depends only on (attribute, initiator, remote)
// and on the machine's placement inputs — attribute values, node
// health, injected capacity/performance faults — none of which change
// per allocation. Related work (HMPT's one-time characterization,
// Olson et al.'s amortized guidance) computes placement intent once and
// reuses it until the machine changes; this cache does the same with a
// generation counter as the change signal: memsim bumps it on any
// fault-state change, and the server bumps the allocator's own counter
// on health transitions (InvalidateCandidates). A stale generation
// invalidates every entry at once.
//
// Capacity USE is deliberately not a generation input: rankings order
// targets by attribute value, and a full target is discovered by the
// capacity check when the allocation is attempted — a cache hit is a
// map lookup plus that capacity check, exactly as fast as the machine
// allows.

import (
	"sync"
	"sync/atomic"

	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
)

// candKey identifies one memoized ranking: attribute, an FNV hash of
// the initiator cpuset, and the remote option. Hash collisions are
// resolved by comparing the stored initiator with bitmap.Equal — a
// collision degrades to a miss, never to a wrong ranking.
type candKey struct {
	attr   memattr.ID
	ini    uint64
	remote bool
}

// candEntry is one cached ranking with the generation it was computed
// under and the exact initiator it is valid for.
type candEntry struct {
	gen    uint64
	ini    *bitmap.Bitmap
	ranked []memattr.TargetValue
	used   memattr.ID
	fell   bool
}

// candCache memoizes Candidates results until the generation moves.
type candCache struct {
	mu sync.RWMutex
	m  map[candKey]*candEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newCandCache() *candCache {
	return &candCache{m: make(map[candKey]*candEntry)}
}

// lookup returns the entry for key if it was computed under gen for an
// initiator equal to ini.
func (c *candCache) lookup(key candKey, gen uint64, ini *bitmap.Bitmap) (*candEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || e.gen != gen || !bitmap.Equal(e.ini, ini) {
		return nil, false
	}
	return e, true
}

// store publishes a freshly computed ranking. A racing store for the
// same key under a newer generation wins: entries are replaced, never
// mutated.
func (c *candCache) store(key candKey, e *candEntry) {
	c.mu.Lock()
	old, ok := c.m[key]
	if !ok || old.gen <= e.gen {
		c.m[key] = e
	}
	c.mu.Unlock()
}

// cacheGen is the allocator's effective generation: the machine's
// placement generation plus the allocator's own invalidation counter
// (bumped by InvalidateCandidates for changes memsim cannot see, like
// server-side health transitions or live registry edits).
func (a *Allocator) cacheGen() uint64 {
	return a.m.Generation() + a.localGen.Load()
}

// InvalidateCandidates drops every cached ranking. The placement daemon
// calls it on node health transitions; call it after mutating the
// attribute registry under a live allocator.
func (a *Allocator) InvalidateCandidates() { a.localGen.Add(1) }

// CacheStats returns how many Candidates calls were served from the
// ranked-candidate cache and how many had to re-rank.
func (a *Allocator) CacheStats() (hits, misses uint64) {
	return a.cache.hits.Load(), a.cache.misses.Load()
}
