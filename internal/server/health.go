package server

import (
	"errors"
	"fmt"
	"sync"

	"hetmem/internal/alloc"
	"hetmem/internal/faults"
	"hetmem/internal/journal"
	"hetmem/internal/memattr"
	"hetmem/internal/topology"
)

// HealthState is a node's position in the daemon's health state
// machine: healthy → degraded → offline (and back, as faults clear).
type HealthState int

// The health states. The daemon re-ranks placements away from any
// non-healthy node; offline nodes additionally trigger auto-migration
// of the leases living on them.
const (
	Healthy HealthState = iota
	DegradedState
	OfflineState
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case DegradedState:
		return "degraded"
	case OfflineState:
		return "offline"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

// healthTracker holds the per-node health states.
type healthTracker struct {
	mu    sync.RWMutex
	nodes map[int]HealthState // by OS index
}

func newHealthTracker(osIndexes []int) *healthTracker {
	h := &healthTracker{nodes: make(map[int]HealthState, len(osIndexes))}
	for _, os := range osIndexes {
		h.nodes[os] = Healthy
	}
	return h
}

// state returns a node's health (unknown nodes read as Healthy).
func (h *healthTracker) state(os int) HealthState {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nodes[os]
}

// set updates a node's health, returning the previous state and
// whether it changed.
func (h *healthTracker) set(os int, st HealthState) (HealthState, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.nodes[os]
	if old == st {
		return old, false
	}
	h.nodes[os] = st
	return old, true
}

// snapshot copies the state map.
func (h *healthTracker) snapshot() map[int]HealthState {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[int]HealthState, len(h.nodes))
	for os, st := range h.nodes {
		out[os] = st
	}
	return out
}

// avoidUnhealthy is the allocator predicate that demotes non-healthy
// nodes in placement rankings.
func (s *Server) avoidUnhealthy(o *topology.Object) bool {
	return s.health.state(o.OSIndex) != Healthy
}

// ApplyFault feeds one fault event into the daemon's health state
// machine. Wire it to a faults.Injector with Subscribe; the injector
// mutates the machine before notifying, so the health state is derived
// from the machine's ground truth (offline dominates degraded). A node
// entering the offline state has its live leases auto-migrated to the
// next-best healthy targets.
func (s *Server) ApplyFault(ev faults.Event) {
	n := s.sys.Machine.NodeByOS(ev.NodeOS)
	if n == nil {
		return
	}
	st := Healthy
	switch {
	case n.Offline():
		st = OfflineState
	case n.Degraded():
		st = DegradedState
	}
	_, changed := s.health.set(ev.NodeOS, st)
	if changed {
		s.metrics.HealthTransitions.Add(1)
		// A health transition changes what avoidUnhealthy demotes, so
		// cached candidate rankings must not outlive it. (The memsim
		// fault setters bump the machine generation for capacity and
		// attribute mutations; this covers the daemon-level state.)
		s.sys.Allocator.InvalidateCandidates()
	}
	if changed && st == OfflineState {
		s.evacuate(ev.NodeOS)
	}
	if changed && st == Healthy {
		// The node healed: re-admit it by migrating back the leases
		// that rank it best, paced so recovery does not stampede it.
		s.maybeRebalance(ev.NodeOS)
	}
}

// evacuate auto-migrates every live lease with bytes on the offline
// node to the next-best target, preferring healthy nodes and allowing
// remote ones — survival beats locality. Leases that cannot move (the
// rest of the machine is full) stay put and are counted; they migrate
// on a later free or by hand.
func (s *Server) evacuate(nodeOS int) {
	all := s.leases.borrowAll()
	defer releaseAll(all)
	for _, l := range all {
		onNode := false
		for _, seg := range l.buf.SegmentsSnapshot() {
			if seg.Node.OSIndex() == nodeOS {
				onNode = true
				break
			}
		}
		if !onNode {
			continue
		}
		s.ckmu.RLock()
		l.jmu.Lock()
		_, _, err := s.migrateLocked(l, memattr.ID(l.attr), l.ini, true, "")
		l.jmu.Unlock()
		s.ckmu.RUnlock()
		switch {
		case err == nil:
			s.metrics.AutoMigrateTotal.Add(1)
		case !errors.Is(err, errNoSuchLease): // a racing free is no failure
			s.metrics.AutoMigrateFailed.Add(1)
		}
	}
}

// migrateLocked re-places a lease's buffer for the given attribute and
// journals the move. The caller must hold l.jmu, so the journal's
// record order matches the buffer's placement history. A non-empty
// origin (the tiering advisor) additionally reclassifies the lease:
// its attribute becomes attr, and the journal record carries both
// the attribute and the origin so restart replay reconstructs the
// reclassification and the advisor's counters exactly.
func (s *Server) migrateLocked(l *lease, attr memattr.ID, ini *internedIni, remote bool, origin string) (float64, alloc.Decision, error) {
	if l.buf.Freed() { // a free won the race for jmu
		return 0, alloc.Decision{}, fmt.Errorf("%w: %d", errNoSuchLease, l.id)
	}
	cpus, err := ini.cpus()
	if err != nil {
		return 0, alloc.Decision{}, err
	}
	// Snapshot the placement before the move so the tenant's per-kind
	// books can follow the bytes across tiers.
	before := l.buf.SegmentsSnapshot()
	cost, dec, err := s.sys.Allocator.MigrateToBestSpec(l.buf, attr, cpus, alloc.Spec{Avoid: s.avoidFn, Remote: remote})
	if err != nil {
		return 0, alloc.Decision{}, err
	}
	// The bytes moved: the lease table's books and the tenant's follow
	// them here, whatever becomes of the journal append below.
	s.leases.rebook(l, before)
	// Migration never fails on quota: the bytes already exist, only
	// their kind changed. ForceCharge keeps the books truthful even for
	// a tenant past its limit on the destination kind.
	tn := s.tenants.Get(l.tenant)
	refundSegs(tn, before)
	forceChargeBuf(tn, l.buf)
	rec := journal.Record{
		Op:       journal.OpMigrate,
		Lease:    l.id,
		Segments: segmentsOf(l.buf),
	}
	if origin != "" {
		rec.Attr = s.sys.Registry.Name(attr)
		rec.Origin = origin
		l.attr = uint16(attr)
	}
	if _, err := s.appendJournal(rec); err != nil {
		return cost, dec, err
	}
	return cost, dec, nil
}
