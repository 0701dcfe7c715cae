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

// candCacheCap bounds the ranked-candidate cache. A daemon's steady
// traffic ranks for a handful of keys; the bound keeps a stream of
// one-off sparse initiators from growing the cache for the life of the
// process.
const candCacheCap = 1024

// candSlot is one slot of the cache's clock.
type candSlot struct {
	key candKey
	e   *candEntry
	ref uint32 // set (atomically, under the read lock) by a hit; cleared as the hand passes
}

// candCache memoizes Candidates results until the generation moves. It
// is a clock of at most candCacheCap slots: a full cache recycles a
// stale-generation slot first, else the first slot the hand finds
// unreferenced since its last pass.
type candCache struct {
	mu    sync.RWMutex
	idx   map[candKey]int // key -> slot
	slots []candSlot
	hand  int
	// top is the newest generation stored, and fresh counts the slots
	// holding an entry of it: fresh < len(slots) means a stale slot
	// exists for the hand to find.
	top   uint64
	fresh int

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newCandCache() *candCache {
	return &candCache{idx: make(map[candKey]int)}
}

// lookup returns the entry for key if it was computed under gen for an
// initiator equal to ini, and marks its slot referenced.
func (c *candCache) lookup(key candKey, gen uint64, ini *bitmap.Bitmap) (*candEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	sl := &c.slots[i]
	if sl.e.gen != gen || !bitmap.Equal(sl.e.ini, ini) {
		return nil, false
	}
	if atomic.LoadUint32(&sl.ref) == 0 {
		atomic.StoreUint32(&sl.ref, 1)
	}
	return sl.e, true
}

// store publishes a freshly computed ranking. A racing store for the
// same key under a newer generation wins: entries are replaced, never
// mutated.
func (c *candCache) store(key candKey, e *candEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.gen > c.top {
		c.top, c.fresh = e.gen, 0
	}
	if i, ok := c.idx[key]; ok {
		sl := &c.slots[i]
		if sl.e.gen <= e.gen {
			if sl.e.gen != c.top && e.gen == c.top {
				c.fresh++
			}
			sl.e = e
		}
		return
	}
	i := len(c.slots)
	if i < candCacheCap {
		c.slots = append(c.slots, candSlot{})
	} else {
		i = c.victim()
		delete(c.idx, c.slots[i].key)
		if c.slots[i].e.gen == c.top {
			c.fresh--
		}
	}
	c.slots[i] = candSlot{key: key, e: e}
	c.idx[key] = i
	if e.gen == c.top {
		c.fresh++
	}
}

// victim picks the slot a full cache recycles: the first
// stale-generation slot from the hand on if there is one, else the
// first slot whose reference bit is clear, clearing bits as the hand
// passes them. Caller holds the write lock.
func (c *candCache) victim() int {
	n := len(c.slots)
	if c.fresh < n {
		for j := range n {
			if i := (c.hand + j) % n; c.slots[i].e.gen < c.top {
				c.hand = (i + 1) % n
				return i
			}
		}
	}
	for {
		i := c.hand
		c.hand = (i + 1) % n
		if c.slots[i].ref == 0 {
			return i
		}
		c.slots[i].ref = 0
	}
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
