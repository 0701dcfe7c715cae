package alloc

// The ranked-candidate cache: the daemon hot-path optimisation that
// turns the per-allocation re-rank of Candidates into a map lookup.
//
// Ranking a placement depends only on (attribute, locality, remote)
// and on the machine's placement inputs — attribute values, node
// health, injected capacity/performance faults — none of which change
// per allocation. The locality (memattr.Registry.AppendLocality) is
// what a ranking reads of the initiator: its overlap with each stored
// initiator and which nodes it touches. Many cpusets share one — on
// xeon, all sets with the same number of PUs in each package — so the
// cache holds a ranking per locality, not per cpuset, and a stream of
// one-off sparse initiators hits it. Related work (HMPT's one-time
// characterization, Olson et al.'s amortized guidance) computes
// placement intent once and reuses it until the machine changes; this
// cache does the same with a generation counter as the change signal:
// memsim bumps it on any fault-state change, and the server bumps the
// allocator's own counter on health transitions (InvalidateCandidates).
// A stale generation invalidates every entry at once.
//
// Capacity USE is deliberately not a generation input: rankings order
// targets by attribute value, and a full target is discovered by the
// capacity check when the allocation is attempted — a cache hit is a
// map lookup plus that capacity check, exactly as fast as the machine
// allows.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"hetmem/internal/bitmap"
	"hetmem/internal/memattr"
)

// appendCandKey appends the key of one memoized ranking: the
// attribute, the remote option and the initiator's locality. The key
// is exact, so a hit is always the ranking rankCandidates would
// compute. Candidates builds it in a stack buffer of candKeyBuf bytes,
// enough for a machine of a few dozen stored initiators and nodes.
func (a *Allocator) appendCandKey(dst []byte, attr memattr.ID, ini *bitmap.Bitmap, remote bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(attr))
	var r byte
	if remote {
		r = 1
	}
	return a.reg.AppendLocality(append(dst, r), ini)
}

const candKeyBuf = 64

// candEntry is one cached ranking with the generation it was computed
// under.
type candEntry struct {
	gen    uint64
	ranked []memattr.TargetValue
	used   memattr.ID
	fell   bool
}

// candCacheCap bounds the ranked-candidate cache. A daemon's steady
// traffic ranks for a handful of localities; the bound keeps a stream
// of wide cpusets, each a locality of its own, from growing the cache
// for the life of the process.
const candCacheCap = 1024

// candSlot is one slot of the cache's clock.
type candSlot struct {
	key string
	e   *candEntry
	ref uint32 // set (atomically, under the read lock) by a hit; cleared as the hand passes
}

// candCache memoizes Candidates results until the generation moves. It
// is a clock of at most candCacheCap slots: a full cache recycles a
// stale-generation slot first, else the first slot the hand finds
// unreferenced since its last pass.
type candCache struct {
	mu    sync.RWMutex
	idx   map[string]int // key -> slot
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
	return &candCache{idx: make(map[string]int)}
}

// lookup returns the entry for key if it was computed under gen, and
// marks its slot referenced.
func (c *candCache) lookup(key []byte, gen uint64) (*candEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.idx[string(key)] // no copy: a lookup's conversion does not allocate
	if !ok {
		return nil, false
	}
	sl := &c.slots[i]
	if sl.e.gen != gen {
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
func (c *candCache) store(key string, e *candEntry) {
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
