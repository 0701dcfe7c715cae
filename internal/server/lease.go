package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/memsim"
)

// leaseShards is the number of independent lock domains of the lease
// table. IDs are dealt round-robin, so concurrent clients touch
// different shards with high probability.
const leaseShards = 64

// lease ties a lease ID to its live buffer, plus the request context
// (attribute, initiator, idempotency key) the daemon needs to re-place
// it after a node failure and to replay it from the journal. The
// buffer's name, size and placement are the lease's: the name and size
// are immutable and the placement changes only under jmu, so the lease
// reads all three from buf instead of keeping copies. One lease is held
// per live allocation, so the record is kept to 80 bytes
// (TestLeaseFootprint): what few leases carry sits behind ext.
type lease struct {
	id  uint64
	buf *memsim.Buffer
	// ini is the daemon's intern table entry for the request's cpuset
	// list (see initiators); it keeps the entry alive after the table
	// empties.
	ini    *internedIni
	tenant string
	ext    *leaseExt // nil for an unkeyed lease

	// ttlNS is the granted time-to-live in nanoseconds (0 = never
	// expires); deadlineNS is the unix-nano expiry the reaper checks.
	// Both are atomics so renewals never contend with the reaper scan.
	ttlNS      atomic.Int64
	deadlineNS atomic.Int64

	// jmu orders a lease's placement changes against their journal
	// appends and its removal from the table: a move (migrate,
	// evacuation, rebalance, the advisor) holds it through its rebook
	// and append, a free or reap from the take through Machine.Free. So
	// the journal's order matches the buffer's history, and the books
	// hold the buffer's placement whenever a take subtracts it.
	jmu sync.Mutex

	// refs counts who may still touch this lease: one reference owned
	// by the table while the lease is registered, plus one per borrower
	// (get, borrowAll); take drops the table's. The last release
	// recycles the object into leasePool — the discipline that makes
	// pooling safe against the historical hazard of a reaper or
	// evacuator holding a pointer to a lease a concurrent free already
	// recycled.
	refs atomic.Int32
	// attr is the memattr.ID the lease is placed for; its name comes
	// from the registry where a response or a record needs it.
	attr uint16
}

// leaseExt is the part of a lease that few leases need: the client's
// idempotency key (set at grant, never changed).
type leaseExt struct {
	key string
}

// key returns the lease's idempotency key, "" if it has none.
func (l *lease) key() string {
	if l.ext == nil {
		return ""
	}
	return l.ext.key
}

// leasePool recycles lease objects across the alloc/free churn of a
// loaded daemon.
var leasePool = sync.Pool{New: func() any { return new(lease) }}

// newLease returns a pooled, zeroed lease holding one reference — the
// caller's, which restore/putFull transfer to the table.
func newLease() *lease {
	l := leasePool.Get().(*lease)
	l.refs.Store(1)
	return l
}

// acquire adds a borrowed reference. Only safe while the caller
// already holds one, or under the shard lock of the shard that maps
// the lease (the table's reference pins it there).
func (l *lease) acquire() { l.refs.Add(1) }

// release drops one reference; dropping the last recycles the lease.
// Callers must not touch the lease after releasing.
func (l *lease) release() {
	if l.refs.Add(-1) > 0 {
		return
	}
	// Zero field by field: the struct embeds mutexes, so a wholesale
	// *l = lease{} would copy locks.
	l.id = 0
	l.buf = nil
	l.attr = 0
	l.ini, l.ext, l.tenant = nil, nil, ""
	l.ttlNS.Store(0)
	l.deadlineNS.Store(0)
	leasePool.Put(l)
}

// getTTL returns the lease's granted TTL (0 = never expires).
func (l *lease) getTTL() time.Duration { return time.Duration(l.ttlNS.Load()) }

// setTTL changes the granted TTL; the new value takes effect at the
// next renew.
func (l *lease) setTTL(d time.Duration) { l.ttlNS.Store(int64(d)) }

// renew pushes the expiry one TTL past now. A lease without a TTL has
// no deadline.
func (l *lease) renew(now time.Time) {
	ttl := l.ttlNS.Load()
	if ttl <= 0 {
		l.deadlineNS.Store(0)
		return
	}
	l.deadlineNS.Store(now.UnixNano() + ttl)
}

// expiredAt reports whether the lease's deadline has passed.
func (l *lease) expiredAt(now time.Time) bool {
	d := l.deadlineNS.Load()
	return d != 0 && now.UnixNano() > d
}

// leaseTable is a sharded map from lease ID to buffer. IDs come from a
// single atomic counter (so they are unique and dense), and each shard
// guards its slice of the ID space with its own mutex.
type leaseTable struct {
	next   atomic.Uint64
	nodes  []*memsim.Node // by OS index; nil where the machine has none
	shards [leaseShards]leaseShard
}

// leaseShard is one lock domain of the table: its leases and the books
// kept over them. The books change only where the map does (restore,
// take) and where a mapped lease's placement does (rebook), so summing
// them over the shards gives the totals a walk of every lease would,
// at a cost independent of the lease count. They are kept from the
// leases alone — not from memsim's node gauges or the tenant registry
// — which is what lets /metrics cross-check against them.
// A mapped lease's books are its buffer's placement (see lease.jmu), so
// the books keep no copy of what they added.
type leaseShard struct {
	mu sync.Mutex
	m  map[uint64]*lease

	bytes     uint64   // sum of lease sizes
	nodeBytes []uint64 // booked segment bytes, by node OS index
	// tenantBytes keeps a tenant's entry at zero once its leases are
	// gone, like the tenant registry does: the hot path then never
	// inserts or deletes.
	tenantBytes map[string]uint64
}

func newLeaseTable(nodes []*memsim.Node) *leaseTable {
	t := &leaseTable{}
	for _, n := range nodes {
		for n.OSIndex() >= len(t.nodes) {
			t.nodes = append(t.nodes, nil)
		}
		t.nodes[n.OSIndex()] = n
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*lease)
		t.shards[i].nodeBytes = make([]uint64, len(t.nodes))
		t.shards[i].tenantBytes = make(map[string]uint64)
	}
	return t
}

func (t *leaseTable) shard(id uint64) *leaseShard {
	return &t.shards[id%leaseShards]
}

// signed returns b, or -b (unsigned negation wraps, so adding it
// subtracts b) when out is set.
func signed(b uint64, out bool) uint64 {
	if out {
		return -b
	}
	return b
}

// place adds a tenant's placement to the node and tenant books, or
// takes it out. Lock order: shard, then Buffer.mu — never the reverse,
// so callers may read the placement here. Caller holds s.mu.
func (s *leaseShard) place(tenant string, segs []memsim.Segment, out bool) {
	for _, seg := range segs {
		s.nodeBytes[seg.Node.OSIndex()] += signed(seg.Bytes, out)
		s.tenantBytes[tenant] += signed(seg.Bytes, out)
	}
}

// book adds a lease and its buffer's current placement to the books,
// or takes them out. Caller holds s.mu.
func (s *leaseShard) book(l *lease, out bool) {
	var one [1]memsim.Segment
	s.bytes += signed(l.buf.Size, out)
	s.place(l.tenant, l.buf.AppendSegments(one[:0]), out)
}

// restore registers a lease under its pre-assigned ID (a fresh
// allocation, journal replay, or a reaper putting a just-renewed lease
// back under its jmu) and keeps the ID counter past it so fresh IDs
// never collide. The caller's reference transfers to the table: do not
// touch the lease afterwards without re-borrowing it.
func (t *leaseTable) restore(l *lease) {
	if l.refs.Load() == 0 {
		l.refs.Store(1) // lease built as a literal, outside newLease
	}
	s := t.shard(l.id)
	s.mu.Lock()
	s.m[l.id] = l
	s.book(l, false)
	s.mu.Unlock()
	t.floor(l.id)
}

// rebook moves a lease's books from before, the placement its buffer
// had, to the one it has now. Every migration calls it, after the move
// and under l.jmu. A lease that has left the table was taken out of the
// books with the placement it had then and stays out.
func (t *leaseTable) rebook(l *lease, before []memsim.Segment) {
	var one [1]memsim.Segment
	s := t.shard(l.id)
	s.mu.Lock()
	if s.m[l.id] == l {
		s.place(l.tenant, before, true)
		s.place(l.tenant, l.buf.AppendSegments(one[:0]), false)
	}
	s.mu.Unlock()
}

// floor raises the ID counter to at least id, so fresh IDs never
// collide with restored ones — including IDs freed before a
// checkpoint, which survive only as the snapshot's NextLease.
func (t *leaseTable) floor(id uint64) {
	for {
		cur := t.next.Load()
		if cur >= id || t.next.CompareAndSwap(cur, id) {
			return
		}
	}
}

// get borrows a lease without removing it; the caller must release()
// it when done.
func (t *leaseTable) get(id uint64) (*lease, bool) {
	s := t.shard(id)
	s.mu.Lock()
	l, ok := s.m[id]
	if ok {
		l.acquire()
	}
	s.mu.Unlock()
	return l, ok
}

// take removes a borrowed lease from the table and its placement from
// the books, and reports whether it was there: of two racing removers
// exactly one wins. The caller holds l.jmu from before the take until
// the buffer is freed or the lease restored. take drops the table's
// reference; the caller's borrowed one keeps the lease.
func (t *leaseTable) take(l *lease) bool {
	s := t.shard(l.id)
	s.mu.Lock()
	ok := s.m[l.id] == l
	if ok {
		delete(s.m, l.id)
		s.book(l, true)
		l.refs.Add(-1) // never the last: the caller borrowed one
	}
	s.mu.Unlock()
	return ok
}

// borrowAll returns every live lease ordered by ID, each carrying a
// borrowed reference the caller must release().
func (t *leaseTable) borrowAll() []*lease {
	var out []*lease
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, l := range s.m {
			l.acquire()
			out = append(out, l)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// releaseAll releases a borrowAll batch.
func releaseAll(leases []*lease) {
	for _, l := range leases {
		l.release()
	}
}

// count returns the number of live leases.
func (t *leaseTable) count() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// summary folds the shard books into the /v1/leases totals: the same
// figures leaseList computes by walking every lease, in
// O(shards × (nodes + tenants)). Segments are never empty, so a node or
// tenant appears exactly when it holds bytes.
func (t *leaseTable) summary() LeasesResponse {
	resp := LeasesResponse{NodeBytes: make(map[string]uint64), TenantBytes: make(map[string]uint64)}
	nodeBytes := make([]uint64, len(t.nodes))
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		resp.Count += len(s.m)
		resp.Bytes += s.bytes
		for os, b := range s.nodeBytes {
			nodeBytes[os] += b
		}
		for name, b := range s.tenantBytes {
			if b > 0 {
				resp.TenantBytes[name] += b
			}
		}
		s.mu.Unlock()
	}
	for os, b := range nodeBytes {
		if b > 0 {
			resp.NodeBytes[t.nodes[os].Label()] = b
		}
	}
	return resp
}
