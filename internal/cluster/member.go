package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/server"
)

// Member health at daemon granularity — the cluster-level analog of
// the daemon's per-node health state machine (internal/server
// health.go): healthy members take new placements, degraded ones keep
// serving their existing leases but receive no new keys, and offline
// ones trigger evacuation.
const (
	memberHealthy  = 0
	memberDegraded = 1
	memberOffline  = 2
)

func memberStateName(s int) string {
	switch s {
	case memberHealthy:
		return "healthy"
	case memberDegraded:
		return "degraded"
	default:
		return "offline"
	}
}

// MemberSpec names one daemon of the cluster.
type MemberSpec struct {
	// Name is the member's stable identity — the rendezvous hash input
	// and the label on every per-member metric. Renaming a member
	// reshuffles the keys it owns; re-addressing it does not.
	Name string `json:"name"`
	// URL is the daemon's base URL, e.g. "http://10.0.0.7:7077".
	URL string `json:"url"`
}

// member is the router's live view of one daemon: a shared
// server.Client (with the client's retry/backoff and idempotency
// machinery, and its own HTTP/1.1 exchange on the forwarding
// goroutine — the router has no HTTP client of its own) plus the
// health state maintained by the poller.
type member struct {
	name string
	url  string
	slot int32 // index into Router.members; NodeOS in journal records
	cl   *server.Client
	// places shares this member's prefixed placements among routed
	// leases. Guarded by the router's mu.
	places strtab

	// sem bounds concurrent data-plane forwards to this member (nil:
	// unbounded). Control-plane traffic — polls, evacuations, scrubs,
	// pending-free drains — bypasses it so recovery work never starves
	// behind a client surge.
	sem chan struct{}
	// overloads counts forwards refused at the in-flight bound.
	overloads atomic.Uint64

	// evacMu serializes evacuations of this member across poll ticks
	// (TryLock: a tick that finds one running skips, not queues).
	evacMu sync.Mutex

	mu sync.Mutex
	// state is memberHealthy/memberDegraded/memberOffline as decided
	// by the poller; members start healthy so the router can route
	// before the first poll completes.
	state int
	// instanceID is the member's per-boot ID from its last successful
	// health poll. A change means the daemon restarted behind the same
	// address — its in-memory leases may be gone, so the router
	// re-homes them just like an offline member's.
	instanceID string
	// fails counts consecutive failed polls; OfflineAfter of them mark
	// the member offline.
	fails    int
	pressure float64
	lastErr  error
	// pendingFree holds member-local lease IDs the router has already
	// freed (or evacuated) on its side but could not free on this
	// member because it was unreachable. Drained on recovery; a 404
	// during the drain means the member (or its reaper) already freed
	// it.
	pendingFree []uint64
}

func (m *member) snapshotState() (state int, instanceID string, pressure float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.instanceID, m.pressure
}

// healthRow is the member's row in the router's /v1/health report.
func (m *member) healthRow() server.NodeHealth {
	state, id, _ := m.snapshotState()
	return server.NodeHealth{Node: m.name, OS: int(m.slot), State: memberStateName(state), InstanceID: id}
}

// poll runs one health probe and applies the state machine. It
// returns events the router must act on: wentOffline starts an
// evacuation of the member's leases, restarted does the same (the
// daemon came back empty-handed), and recovered drains the
// pending-free queue.
func (m *member) poll(ctx context.Context, offlineAfter int, probeTimeout time.Duration) (wentOffline, restarted, recovered bool) {
	hctx, cancel := context.WithTimeout(ctx, probeTimeout)
	h, err := m.cl.Health(hctx)
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.fails++
		m.lastErr = err
		if m.state != memberOffline && m.fails >= offlineAfter {
			m.state = memberOffline
			wentOffline = true
		}
		return
	}
	m.fails = 0
	m.lastErr = nil
	m.pressure = h.Pressure
	if m.instanceID != "" && h.InstanceID != "" && h.InstanceID != m.instanceID {
		// Same address, new boot: whatever leases the old instance held
		// in memory are gone (journaled members re-offer them, and the
		// idempotent evacuation handles either case).
		restarted = true
		// The queued frees target leases of the dead instance; the new
		// one never granted them.
		m.pendingFree = nil
	}
	m.instanceID = h.InstanceID
	if m.state == memberOffline {
		recovered = true
	}
	if h.Status == "ok" {
		m.state = memberHealthy
	} else {
		m.state = memberDegraded
	}
	return
}

// queueFree remembers a member-local lease to free once the member is
// reachable again.
func (m *member) queueFree(memberLease uint64) {
	m.mu.Lock()
	m.pendingFree = append(m.pendingFree, memberLease)
	m.mu.Unlock()
}

func (m *member) takePendingFrees() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pendingFree
	m.pendingFree = nil
	return p
}

func (m *member) pendingFreeDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pendingFree)
}
