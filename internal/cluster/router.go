package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/journal"
	"hetmem/internal/promtext"
	"hetmem/internal/server"
	"hetmem/internal/tenant"
	"hetmem/internal/topology"
	"hetmem/internal/wire"
)

// Config describes the cluster a Router fronts.
type Config struct {
	// Members are the daemons behind the router. Order defines each
	// member's slot index — the NodeOS field of the router's journal
	// records — so a journaled router must keep member order stable
	// across restarts (renames and reorders strand restored leases).
	Members []MemberSpec
	// JournalPath enables the router's own write-ahead lease journal:
	// the routerLease -> (member, member lease) mapping survives router
	// restarts. Empty disables durability.
	JournalPath string
	// GroupCommit makes every acked journal record power-failure
	// durable (requires JournalPath): appends go through the store's
	// group commit, so a record is on stable storage before the
	// routed lease is visible.
	GroupCommit bool
	// PollInterval is the member health-poll period (default 500ms).
	PollInterval time.Duration
	// OfflineAfter is how many consecutive failed polls mark a member
	// offline and start evacuating its leases (default 2).
	OfflineAfter int
	// RetryAfterSeconds is the Retry-After hint on the router's 503
	// responses (default 1).
	RetryAfterSeconds int
	// MemberRetry overrides the retry policy of the member-facing
	// clients (nil: server.DefaultRetry). Tests tighten it so a dead
	// member fails fast.
	MemberRetry *server.RetryPolicy
	// ProbeTimeout bounds each member health probe (default 2s).
	ProbeTimeout time.Duration
	// EvacTimeout bounds each evacuation alloc on a target member
	// (default 10s); pending-free drains use half of it.
	EvacTimeout time.Duration
	// ForwardTimeout is the per-call deadline ceiling on forwarded
	// member requests when the inbound request carries no deadline of
	// its own (default 10s). An inbound context deadline always
	// propagates; this is the backstop.
	ForwardTimeout time.Duration
	// MaxInFlightPerMember bounds concurrent forwarded data-plane
	// calls per member; excess requests fail fast with the retryable
	// member_unavailable instead of piling up goroutines behind a slow
	// or partitioned member (default 256; negative disables).
	MaxInFlightPerMember int
	// HedgeDelay is how long a fan-out read (attrs/topology rollups,
	// scrubber lease listings) waits before hedging a second attempt
	// at the same member, so one slow link no longer stalls the whole
	// response (default 150ms; negative disables hedging).
	HedgeDelay time.Duration
	// ScrubInterval enables the anti-entropy scrubber: every interval
	// the router diffs its lease books against each member's /v1/leases
	// and repairs divergence (0: disabled).
	ScrubInterval time.Duration
	// ScrubBudgetBytes bounds the bytes re-placed per scrub cycle, so
	// a repair storm cannot starve live traffic (0: 256 MiB).
	ScrubBudgetBytes uint64
}

// Config defaults, exported so flags and docs quote one source of
// truth.
const (
	DefaultProbeTimeout         = 2 * time.Second
	DefaultEvacTimeout          = 10 * time.Second
	DefaultForwardTimeout       = 10 * time.Second
	DefaultMaxInFlightPerMember = 256
	DefaultHedgeDelay           = 150 * time.Millisecond
	DefaultScrubBudgetBytes     = 256 << 20
)

// withDefaults fills the zero values of the tuning knobs.
func (cfg Config) withDefaults() Config {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.OfflineAfter <= 0 {
		cfg.OfflineAfter = 2
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.EvacTimeout <= 0 {
		cfg.EvacTimeout = DefaultEvacTimeout
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.MaxInFlightPerMember == 0 {
		cfg.MaxInFlightPerMember = DefaultMaxInFlightPerMember
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = DefaultHedgeDelay
	}
	if cfg.ScrubBudgetBytes == 0 {
		cfg.ScrubBudgetBytes = DefaultScrubBudgetBytes
	}
	return cfg
}

// rlease is one routed lease: the (member slot, member-local lease)
// pair that the router-scoped lease ID the client holds (its key in
// Router.leases) currently maps to. With the ID, that is exactly what
// the router journals. One is held per routed lease, so the record is
// kept to 88 bytes, in a 96-byte size class (TestRouterLeaseFootprint).
type rlease struct {
	memberLease uint64

	// The original request, kept so evacuation can re-place the buffer
	// on a survivor with the same constraints.
	name string
	size uint64
	// tenant owns the lease for quota and priority purposes; it follows
	// the lease through journal replay, evacuation, and scrub repair.
	tenant string
	// attr and initiator are the request's, and placement is the
	// member-prefixed placement the lease holds now; attr and placement
	// follow migrate and evacuation. Each points at the one copy the
	// router's string tables share among leases (strtab).
	attr      *string
	initiator *string
	placement *string

	// keyed is nil unless the client sent an idempotency key.
	keyed *rkeyed

	// ttlMillis is the TTL the member granted, saturating (ttlMillisOf).
	ttlMillis uint32
	slot      int32 // index into Router.members
}

// rkeyed is what a keyed lease adds: the client's idempotency key and
// the response the client saw. A retry with the key gets the response
// back, with the current placement. An unkeyed lease can never be
// replayed.
type rkeyed struct {
	key    string
	replay server.AllocResponse
}

// key returns the lease's idempotency key, "" if it has none.
func (rl *rlease) key() string {
	if rl.keyed == nil {
		return ""
	}
	return rl.keyed.key
}

// replayResponse is the answer to an idempotent retry of a keyed lease.
func (rl *rlease) replayResponse() server.AllocResponse {
	resp := rl.keyed.replay
	resp.Placement = *rl.placement
	return resp
}

// heldLease is a copy of a routed lease with its ID, taken under r.mu
// for work done outside it (evacuation, scrub repair).
type heldLease struct {
	id uint64
	rlease
}

// ttlMillisOf narrows a granted TTL to an rlease's milliseconds. It
// saturates at math.MaxUint32 (about 49.7 days) rather than wrapping.
func ttlMillisOf(seconds float64) uint32 {
	return uint32(min(max(seconds*1000, 0), math.MaxUint32))
}

// strtabMax bounds each of the router's string tables, as the daemon's
// intern table is bounded: a table that fills up starts over.
const strtabMax = 4096

// strtab holds one copy of each string that many routed leases repeat:
// keyed by the string a request or member answer carries, it shares
// prefix+key. A lease keeps the copy it points at when the table
// starts over. Guarded by r.mu.
type strtab struct {
	prefix string
	m      map[string]*string
}

// share returns the table's copy of prefix+s.
func (t *strtab) share(s string) *string {
	if p, ok := t.m[s]; ok {
		return p
	}
	if len(t.m) >= strtabMax || t.m == nil {
		t.m = make(map[string]*string)
	}
	p := new(string)
	*p = t.prefix + s
	t.m[s] = p
	return p
}

// Router shards the lease keyspace over a fleet of hetmemd daemons
// with rendezvous hashing and presents the single-daemon /v1 API
// unchanged: it implements server.Backend, so server.NewAPI gives it
// the same routes, error envelope, and request metrics as a daemon.
// Every client-visible lease ID is router-scoped; the mapping to the
// owning member's lease is journaled, and when a member dies the
// router re-homes its leases onto survivors (evacuate.go).
type Router struct {
	cfg        Config
	members    []*member
	byName     map[string]*member
	instanceID string
	api        *server.API

	mu        sync.Mutex
	leases    map[uint64]*rlease
	idem      map[string]uint64 // client idempotency key -> router lease
	nextLease uint64
	store     *journal.Store // nil without -journal
	// strs shares the attribute names and initiator lists of routed
	// leases; each member's places shares its prefixed placements.
	strs strtab

	// Cluster-level counters surfaced in the /metrics rollup.
	idemReplays      atomic.Uint64
	forwardErrors    atomic.Uint64
	migrations       atomic.Uint64
	migrationsFailed atomic.Uint64
	evacuations      atomic.Uint64

	// Anti-entropy scrubber state (scrub.go). scrubMu serializes
	// cycles; orphanSuspects carries first-sighting orphans between
	// consecutive cycles so an in-flight alloc is never mistaken for
	// an orphan.
	scrubMu        sync.Mutex
	orphanSuspects map[orphanKey]string // -> member instance ID at first sighting
	scrubCycles    atomic.Uint64
	scrubOrphans   atomic.Uint64
	scrubLost      atomic.Uint64
	scrubDrift     atomic.Uint64
	scrubFailures  atomic.Uint64

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Router over the configured members, replaying its
// journal (if any) into the lease map, and starts the health poller.
// Close stops the poller, compacts the journal, and closes the member
// clients.
func New(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: no members configured")
	}
	if cfg.GroupCommit && cfg.JournalPath == "" {
		return nil, errors.New("cluster: GroupCommit without a JournalPath: there is nothing to commit")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:            cfg,
		byName:         make(map[string]*member, len(cfg.Members)),
		instanceID:     server.NewInstanceID(),
		leases:         make(map[uint64]*rlease),
		idem:           make(map[string]uint64),
		nextLease:      1,
		orphanSuspects: make(map[orphanKey]string),
		stopCh:         make(chan struct{}),
	}
	for i, spec := range cfg.Members {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("cluster: member %d needs both name and url", i)
		}
		if _, dup := r.byName[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member name %q", spec.Name)
		}
		// Member attempts are bounded by the forward timeout, not the
		// old blanket 30s: a member that accepts and goes silent (an
		// asymmetric partition) costs one forward timeout per attempt.
		opts := []server.ClientOption{
			server.WithoutHeartbeat(),
			server.WithAttemptTimeout(cfg.ForwardTimeout),
		}
		if cfg.MemberRetry != nil {
			opts = append(opts, server.WithRetryPolicy(*cfg.MemberRetry))
		}
		m := &member{name: spec.Name, url: spec.URL, slot: int32(i), cl: server.NewClient(spec.URL, opts...)}
		m.places.prefix = spec.Name + "/"
		if cfg.MaxInFlightPerMember > 0 {
			m.sem = make(chan struct{}, cfg.MaxInFlightPerMember)
		}
		r.members = append(r.members, m)
		r.byName[spec.Name] = m
	}
	if cfg.JournalPath != "" {
		st, restored, err := journal.OpenStore(cfg.JournalPath, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
		r.store = st
		if cfg.GroupCommit {
			st.EnableGroupCommit(journal.DefaultGroupBatch, 0, nil)
		}
		r.replay(restored)
	}
	r.api = server.NewAPI(r, server.APIOptions{RetryAfterSeconds: cfg.RetryAfterSeconds})

	r.wg.Add(1)
	go r.pollLoop()
	if cfg.ScrubInterval > 0 {
		r.wg.Add(1)
		go r.scrubLoop()
	}
	return r, nil
}

// replay folds the journal history back into the lease map. Records
// pointing at slots outside the current membership (the cluster
// shrank across a restart) are dropped — their members are gone, and
// keeping them would route requests nowhere.
func (r *Router) replay(restored journal.Restored) {
	for _, rec := range restored.Records {
		switch rec.Op {
		case journal.OpAlloc:
			if len(rec.Segments) != 1 || rec.Segments[0].NodeOS < 0 || rec.Segments[0].NodeOS >= len(r.members) {
				continue
			}
			rl := &rlease{
				slot:        int32(rec.Segments[0].NodeOS),
				memberLease: rec.Segments[0].Bytes,
				name:        rec.Name,
				attr:        r.strs.share(rec.Attr),
				initiator:   r.strs.share(rec.Initiator),
				size:        rec.Size,
				ttlMillis:   uint32(min(rec.TTLMillis, math.MaxUint32)),
				tenant:      rec.Tenant,
			}
			if rl.tenant == "" {
				rl.tenant = tenant.Default // pre-tenancy journal record
			}
			// The member-reported placement string is not journaled;
			// after a restart the lease's placement names the member.
			rl.placement = &r.members[rl.slot].name
			if rec.Key != "" {
				rl.keyed = &rkeyed{key: rec.Key, replay: server.AllocResponse{
					Lease:      rec.Lease,
					AttrUsed:   rec.Attr,
					TTLSeconds: float64(rec.TTLMillis) / 1000,
				}}
				r.idem[rec.Key] = rec.Lease
			}
			r.leases[rec.Lease] = rl
			if rec.Lease >= r.nextLease {
				r.nextLease = rec.Lease + 1
			}
		case journal.OpMigrate:
			rl, ok := r.leases[rec.Lease]
			if !ok || len(rec.Segments) != 1 || rec.Segments[0].NodeOS < 0 || rec.Segments[0].NodeOS >= len(r.members) {
				continue
			}
			rl.slot = int32(rec.Segments[0].NodeOS)
			rl.memberLease = rec.Segments[0].Bytes
			rl.placement = &r.members[rl.slot].name
		case journal.OpFree:
			if rl, ok := r.leases[rec.Lease]; ok {
				r.forget(rec.Lease, rl)
			}
		}
	}
	if restored.NextLease > r.nextLease {
		r.nextLease = restored.NextLease
	}
}

// appendLocked journals one record. Caller holds r.mu — the lock
// orders journal appends with map mutations, the same
// journal-before-visible discipline the daemon uses.
func (r *Router) appendLocked(rec journal.Record) error {
	if r.store == nil {
		return nil
	}
	var err error
	if r.cfg.GroupCommit {
		_, err = r.store.AppendDurable(rec)
	} else {
		err = r.store.Append(rec)
	}
	if err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	return nil
}

// Handler returns the router's HTTP surface: the /v1 API, identical
// to a daemon's.
func (r *Router) Handler() http.Handler { return r.api.Handler() }

// WireHandler returns the router's binary-protocol dispatcher, so a
// federation front-end serves the wire ops (-uds/-tcp-bin) through
// the same op table as its HTTP surface. The router has no per-lease
// detail, text attribute dump or advisor: those routes answer a v1
// error envelope on both transports.
func (r *Router) WireHandler() wire.Handler { return r.api.WireHandler() }

// Metrics returns the router's live request metrics.
func (r *Router) Metrics() *server.Metrics { return r.api.Metrics() }

// InstanceID returns the router's per-boot instance ID.
func (r *Router) InstanceID() string { return r.instanceID }

// LeaseCount returns the live routed-lease count.
func (r *Router) LeaseCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.leases)
}

// Close stops the poller, checkpoints and closes the journal, and
// closes the member clients.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	var firstErr error
	if r.store != nil {
		if err := r.Checkpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := r.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range r.members {
		m.cl.Close()
	}
	return firstErr
}

// Checkpoint compacts the router journal to a snapshot of the live
// lease map.
func (r *Router) Checkpoint() error {
	if r.store == nil {
		return nil
	}
	return r.store.Checkpoint(func() ([]journal.Record, uint64, error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		recs := make([]journal.Record, 0, len(r.leases))
		for id, rl := range r.leases {
			recs = append(recs, allocRecord(id, rl))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Lease < recs[j].Lease })
		return recs, r.nextLease, nil
	})
}

func allocRecord(id uint64, rl *rlease) journal.Record {
	return journal.Record{
		Op:        journal.OpAlloc,
		Lease:     id,
		Name:      rl.name,
		Attr:      *rl.attr,
		Initiator: *rl.initiator,
		Key:       rl.key(),
		Size:      rl.size,
		Tenant:    rl.tenant,
		TTLMillis: uint64(rl.ttlMillis),
		Segments:  []journal.Segment{{NodeOS: int(rl.slot), Bytes: rl.memberLease}},
	}
}

// mapped returns the routed lease id if it still maps to the exact
// (slot, member lease) pair a caller saw before it released r.mu: an
// evacuation may have re-homed it since. Caller holds r.mu.
func (r *Router) mapped(id uint64, slot int32, memberLease uint64) (*rlease, bool) {
	rl, ok := r.leases[id]
	if !ok || rl.slot != slot || rl.memberLease != memberLease {
		return nil, false
	}
	return rl, true
}

// forget removes a routed lease and its idempotency key from the
// book. Caller holds r.mu.
func (r *Router) forget(id uint64, rl *rlease) {
	delete(r.leases, id)
	if rl.keyed != nil {
		delete(r.idem, rl.keyed.key)
	}
}

// requestTenant resolves the tenant a routed request runs as: the
// X-Hetmem-Tenant header (stamped into the context by the shared API
// plumbing), else the default tenant.
func requestTenant(ctx context.Context) string {
	if t := server.TenantFromContext(ctx); t != "" {
		return t
	}
	return tenant.Default
}

// pollLoop drives the membership view: each tick polls every member,
// evacuates the ones that died or restarted, and drains queued frees
// on the ones that recovered.
func (r *Router) pollLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.PollOnce(context.Background())
		}
	}
}

// PollOnce runs one health sweep over all members. Exported so tests
// (and the sim harness) can advance the membership view without
// waiting for the ticker.
func (r *Router) PollOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			wentOffline, restarted, _ := m.poll(ctx, r.cfg.OfflineAfter, r.cfg.ProbeTimeout)
			state, _, _ := m.snapshotState()
			if wentOffline || restarted || state == memberOffline {
				// Evacuate on the transition AND on every later tick while
				// leases remain stranded: an evacuation that failed for
				// capacity retries until the fleet has room. A restarted
				// member gets no source frees — its new instance may
				// reissue the old lease IDs (see evacuateMember).
				r.evacuateMember(ctx, m, !restarted)
			}
			if state != memberOffline && m.pendingFreeDepth() > 0 {
				r.drainPendingFrees(ctx, m)
			}
		}(m)
	}
	wg.Wait()
}

// eligible returns the members that may receive new placements:
// healthy ones, or — when nothing is healthy — degraded ones, so a
// uniformly-degraded fleet keeps serving rather than failing every
// request. Offline members are never eligible.
func (r *Router) eligible() []*member {
	var healthy, degraded []*member
	for _, m := range r.members {
		switch state, _, _ := m.snapshotState(); state {
		case memberHealthy:
			healthy = append(healthy, m)
		case memberDegraded:
			degraded = append(degraded, m)
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	return degraded
}

// routingKey is the rendezvous input for an allocation: the
// idempotency key when the client set one (so a retried request
// re-routes identically even if the name repeats across buffers),
// else the buffer name.
func routingKey(req server.AllocRequest) string {
	if req.IdempotencyKey != "" {
		return req.IdempotencyKey
	}
	return req.Name
}

// routeKey picks the owning member for a key among the currently
// eligible members.
func (r *Router) routeKey(key string) (*member, error) {
	elig := r.eligible()
	if len(elig) == 0 {
		return nil, fmt.Errorf("%w: no reachable members", server.ErrMemberUnavailable)
	}
	names := make([]string, len(elig))
	for i, m := range elig {
		names[i] = m.name
	}
	return elig[pick(key, names)], nil
}

// forwardCtx derives the context a forwarded member call runs under:
// the inbound deadline when the client set one (deadline propagation
// hop by hop), else the configured forward-timeout backstop so no
// member call can outlive the router's patience.
func (r *Router) forwardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.cfg.ForwardTimeout)
}

// acquire claims an in-flight slot on m for one data-plane forward.
// A member already at its in-flight bound fails fast with the
// retryable member_unavailable — overload becomes a 503 the client
// can back off on, not a goroutine pileup behind a slow link.
func (r *Router) acquire(m *member) (release func(), err error) {
	if m.sem == nil {
		return func() {}, nil
	}
	select {
	case m.sem <- struct{}{}:
		return func() { <-m.sem }, nil
	default:
		m.overloads.Add(1)
		return nil, fmt.Errorf("%w: member %s over in-flight limit %d",
			server.ErrMemberUnavailable, m.name, cap(m.sem))
	}
}

// forwardErr shapes a member-call failure for the client: a member's
// own API error passes through verbatim (it already carries the right
// v1 code), while transport-level failures become the retryable
// member_unavailable — the poller will notice the member shortly and
// re-home its keys.
func (r *Router) forwardErr(m *member, err error) error {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return err
	}
	r.forwardErrors.Add(1)
	return fmt.Errorf("%w: member %s: %v", server.ErrMemberUnavailable, m.name, err)
}

// errNoLease is the router's 404: shaped as an APIError so the shared
// error envelope passes it through with the daemon's exact code.
func errNoLease(id uint64) error {
	return &server.APIError{
		StatusCode: http.StatusNotFound,
		Code:       server.CodeLeaseExpired,
		Message:    fmt.Sprintf("cluster: no such lease %d", id),
	}
}

// ---- server.Backend ----

// Alloc routes the request to the owning member, forwards it with the
// client's idempotency key intact, then journals the mapping before
// making it visible. If the router crashes between the member's grant
// and the journal append, the client's retry (same key) re-forwards
// to the same member, which replays the same lease — nothing is
// allocated twice, and the retry's append lands the mapping. Every
// refusal, the router's own or a member's, counts once in the router's
// AllocFailed.
func (r *Router) Alloc(ctx context.Context, req server.AllocRequest) (_ server.AllocResponse, err error) {
	defer func() {
		if err != nil {
			r.Metrics().AllocFailed.Add(1)
		}
	}()
	// A malformed request is refused here, as the member would refuse
	// it, and never sent on the hop.
	if err := server.ValidateAllocRequest(req); err != nil {
		return server.AllocResponse{}, err
	}
	if req.IdempotencyKey != "" {
		r.mu.Lock()
		if id, ok := r.idem[req.IdempotencyKey]; ok {
			resp := r.leases[id].replayResponse()
			r.mu.Unlock()
			r.idemReplays.Add(1)
			return resp, nil
		}
		r.mu.Unlock()
	}
	m, err := r.routeKey(routingKey(req))
	if err != nil {
		return server.AllocResponse{}, err
	}
	release, err := r.acquire(m)
	if err != nil {
		return server.AllocResponse{}, err
	}
	fctx, cancel := r.forwardCtx(ctx)
	mresp, err := m.cl.Alloc(fctx, req)
	cancel()
	release()
	if err != nil {
		return server.AllocResponse{}, r.forwardErr(m, err)
	}
	return r.commitAlloc(ctx, m, req, mresp)
}

// commitAlloc registers a member grant under a fresh router lease ID:
// journal first, map second. On a journal failure the member-side
// lease is freed so nothing leaks.
func (r *Router) commitAlloc(ctx context.Context, m *member, req server.AllocRequest, mresp server.AllocResponse) (server.AllocResponse, error) {
	r.mu.Lock()
	if req.IdempotencyKey != "" {
		if id, ok := r.idem[req.IdempotencyKey]; ok {
			// A concurrent duplicate won the race. Same key, same member
			// (rendezvous is deterministic), same member lease (the member
			// deduped) — return the winner's response, free nothing.
			resp := r.leases[id].replayResponse()
			r.mu.Unlock()
			r.idemReplays.Add(1)
			return resp, nil
		}
	}
	id := r.nextLease
	r.nextLease++
	rl := &rlease{
		slot:        m.slot,
		memberLease: mresp.Lease,
		name:        req.Name,
		attr:        r.strs.share(req.Attr),
		initiator:   r.strs.share(req.Initiator),
		size:        req.Size,
		ttlMillis:   ttlMillisOf(mresp.TTLSeconds),
		tenant:      requestTenant(ctx),
		placement:   m.places.share(mresp.Placement),
	}
	resp := mresp
	resp.Lease = id
	resp.Placement = *rl.placement
	if req.IdempotencyKey != "" {
		rl.keyed = &rkeyed{key: req.IdempotencyKey, replay: resp}
	}
	if err := r.appendLocked(allocRecord(id, rl)); err != nil {
		r.mu.Unlock()
		if ferr := m.cl.Free(context.WithoutCancel(ctx), mresp.Lease); ferr != nil {
			m.queueFree(mresp.Lease)
		}
		return server.AllocResponse{}, err
	}
	r.leases[id] = rl
	if rl.keyed != nil {
		r.idem[rl.keyed.key] = id
	}
	r.mu.Unlock()
	return resp, nil
}

// AllocBatch splits the batch by owning member, forwards the
// per-member sub-batches concurrently, and reassembles the outcomes
// in request order. Items whose member cannot be reached fail with
// the retryable member_unavailable envelope; sibling items are
// unaffected.
func (r *Router) AllocBatch(ctx context.Context, reqs []server.AllocRequest) (server.BatchAllocResponse, error) {
	out := server.BatchAllocResponse{Results: make([]server.BatchAllocItem, len(reqs))}
	groups := make(map[*member][]int)
	for i, req := range reqs {
		err := server.ValidateAllocRequest(req) // as in Alloc
		var m *member
		if err == nil {
			m, err = r.routeKey(routingKey(req))
		}
		if err != nil {
			out.Results[i] = errItem(r, err)
			continue
		}
		groups[m] = append(groups[m], i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards out.Results slots across member goroutines
	for m, idxs := range groups {
		wg.Add(1)
		go func(m *member, idxs []int) {
			defer wg.Done()
			sub := make([]server.AllocRequest, len(idxs))
			for j, i := range idxs {
				sub[j] = reqs[i]
			}
			var mresp server.BatchAllocResponse
			release, err := r.acquire(m)
			if err == nil {
				fctx, cancel := r.forwardCtx(ctx)
				mresp, err = m.cl.AllocBatch(fctx, sub)
				cancel()
				release()
			}
			if err != nil || len(mresp.Results) != len(idxs) {
				if err == nil {
					err = fmt.Errorf("%w: member %s returned %d results for %d items",
						server.ErrMemberUnavailable, m.name, len(mresp.Results), len(idxs))
				}
				item := errItem(r, r.forwardErr(m, err))
				mu.Lock()
				for _, i := range idxs {
					out.Results[i] = item
				}
				mu.Unlock()
				return
			}
			for j, i := range idxs {
				item := mresp.Results[j]
				if item.Error != nil {
					mu.Lock()
					out.Results[i] = item
					mu.Unlock()
					continue
				}
				resp, err := r.commitAlloc(ctx, m, reqs[i], *item.Alloc)
				mu.Lock()
				if err != nil {
					out.Results[i] = errItem(r, err)
				} else {
					out.Results[i] = server.BatchAllocItem{Alloc: &resp}
				}
				mu.Unlock()
			}
		}(m, idxs)
	}
	wg.Wait()
	for _, item := range out.Results {
		if item.Alloc != nil {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	r.Metrics().AllocFailed.Add(uint64(out.Failed))
	return out, nil
}

// errItem shapes an error as a batch item outcome using the shared
// envelope rules (APIError passthrough included).
func errItem(r *Router, err error) server.BatchAllocItem {
	body := server.ErrorBodyFor(err, r.cfg.RetryAfterSeconds)
	return server.BatchAllocItem{Error: &body}
}

// Free removes the routed lease first (journal, then map — a free
// acked to the client stays freed across a router crash), then
// releases the member-side lease. An unreachable member gets the free
// queued and drained when it returns; a member that already dropped
// the lease (reaper, evacuation race) is already done.
func (r *Router) Free(ctx context.Context, req server.FreeRequest) (server.FreeResponse, error) {
	r.mu.Lock()
	rl, ok := r.leases[req.Lease]
	if !ok {
		r.mu.Unlock()
		return server.FreeResponse{}, errNoLease(req.Lease)
	}
	if err := r.appendLocked(journal.Record{Op: journal.OpFree, Lease: req.Lease}); err != nil {
		r.mu.Unlock()
		return server.FreeResponse{}, err
	}
	r.forget(req.Lease, rl)
	m, memberLease := r.members[rl.slot], rl.memberLease
	r.mu.Unlock()

	release, err := r.acquire(m)
	if err != nil {
		// Member over its in-flight bound: the routed lease is already
		// gone, so park the member-side free for the poller's drain
		// instead of failing an already-committed operation.
		m.queueFree(memberLease)
		return server.FreeResponse{Lease: req.Lease, Freed: true}, nil
	}
	fctx, cancel := r.forwardCtx(ctx)
	err = m.cl.Free(fctx, memberLease)
	cancel()
	release()
	if err != nil && !errors.Is(err, server.ErrLeaseExpired) {
		m.queueFree(memberLease)
	}
	return server.FreeResponse{Lease: req.Lease, Freed: true}, nil
}

// Renew forwards the heartbeat to the owning member. A member that no
// longer knows the lease (its reaper won) retires the routed lease
// too, so the client's next call sees the same lease_expired a single
// daemon would give. The TTL the member answers becomes the routed
// lease's, so an evacuation or a checkpoint carries a renewed TTL.
// Renews are not journaled, on the router as on a daemon, so a crash
// loses a renewed TTL: replay restores the granted one.
func (r *Router) Renew(ctx context.Context, req server.RenewRequest) (server.RenewResponse, error) {
	r.mu.Lock()
	rl, ok := r.leases[req.Lease]
	if !ok {
		r.mu.Unlock()
		return server.RenewResponse{}, errNoLease(req.Lease)
	}
	m, memberLease, slot := r.members[rl.slot], rl.memberLease, rl.slot
	r.mu.Unlock()

	release, err := r.acquire(m)
	if err != nil {
		return server.RenewResponse{}, err
	}
	ttl := time.Duration(req.TTLSeconds * float64(time.Second))
	fctx, cancel := r.forwardCtx(ctx)
	mresp, err := m.cl.Renew(fctx, memberLease, ttl)
	cancel()
	release()
	if err != nil {
		if errors.Is(err, server.ErrLeaseExpired) {
			r.dropLease(req.Lease, slot, memberLease)
		}
		return server.RenewResponse{}, r.forwardErr(m, err)
	}
	r.mu.Lock()
	if cur, ok := r.mapped(req.Lease, slot, memberLease); ok {
		cur.ttlMillis = ttlMillisOf(mresp.TTLSeconds)
	}
	r.mu.Unlock()
	return server.RenewResponse{Lease: req.Lease, TTLSeconds: mresp.TTLSeconds}, nil
}

// dropLease retires a routed lease whose member-side lease is gone,
// if it still maps to that exact (slot, member lease) pair — an
// evacuation may have re-homed it concurrently, in which case it
// stays.
func (r *Router) dropLease(id uint64, slot int32, memberLease uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rl, ok := r.mapped(id, slot, memberLease)
	if !ok {
		return
	}
	if err := r.appendLocked(journal.Record{Op: journal.OpFree, Lease: id}); err != nil {
		return // keep the stale entry; the next touch retries the drop
	}
	r.forget(id, rl)
}

// Migrate forwards the re-placement to the owning member (the buffer
// stays on that machine; cross-member moves happen only on member
// failure, via evacuation).
func (r *Router) Migrate(ctx context.Context, req server.MigrateRequest) (server.MigrateResponse, error) {
	r.mu.Lock()
	rl, ok := r.leases[req.Lease]
	if !ok {
		r.mu.Unlock()
		return server.MigrateResponse{}, errNoLease(req.Lease)
	}
	m, memberLease, slot := r.members[rl.slot], rl.memberLease, rl.slot
	r.mu.Unlock()

	fwd := req
	fwd.Lease = memberLease
	release, err := r.acquire(m)
	if err != nil {
		return server.MigrateResponse{}, err
	}
	fctx, cancel := r.forwardCtx(ctx)
	mresp, err := m.cl.Migrate(fctx, fwd)
	cancel()
	release()
	if err != nil {
		if errors.Is(err, server.ErrLeaseExpired) {
			r.dropLease(req.Lease, slot, memberLease)
		}
		return server.MigrateResponse{}, r.forwardErr(m, err)
	}
	r.mu.Lock()
	placement := m.places.share(mresp.Placement)
	if cur, ok := r.mapped(req.Lease, slot, memberLease); ok {
		cur.attr = r.strs.share(req.Attr)
		cur.placement = placement
	}
	r.mu.Unlock()
	return server.MigrateResponse{
		Lease:       req.Lease,
		Placement:   *placement,
		Rank:        mresp.Rank,
		CostSeconds: mresp.CostSeconds,
	}, nil
}

// Leases summarizes the routed lease table; NodeBytes is keyed by
// member name, so the cluster-wide books cross-check against the
// /metrics rollup exactly like a daemon's.
func (r *Router) Leases(ctx context.Context, list bool) (server.LeasesResponse, error) {
	resp := server.LeasesResponse{
		NodeBytes:   make(map[string]uint64, len(r.members)),
		TenantBytes: make(map[string]uint64),
	}
	// r.mu is the lock every routed alloc and free takes: collect under
	// it, sort the listing after it is released.
	r.mu.Lock()
	for id, rl := range r.leases {
		resp.Count++
		resp.Bytes += rl.size
		resp.NodeBytes[r.members[rl.slot].name] += rl.size
		resp.TenantBytes[rl.tenant] += rl.size
		if list {
			resp.Leases = append(resp.Leases, server.LeaseInfo{
				Lease: id, Name: rl.name, Size: rl.size, Placement: *rl.placement,
				Tenant: rl.tenant,
			})
		}
	}
	r.mu.Unlock()
	sort.Slice(resp.Leases, func(i, j int) bool { return resp.Leases[i].Lease < resp.Leases[j].Lease })
	return resp, nil
}

// Health reports the cluster view: one row per member daemon (state
// from the last poll, with the member's instance ID), overall status
// "ok" only when every member is healthy, and pressure as the mean of
// the members' last-reported pressures.
func (r *Router) Health(ctx context.Context) (server.HealthResponse, error) {
	resp := server.HealthResponse{Status: "ok", InstanceID: r.instanceID}
	if r.store != nil {
		resp.Journal = r.store.Base()
	}
	var pressure float64
	for _, m := range r.members {
		row := m.healthRow()
		resp.Nodes = append(resp.Nodes, row)
		if row.State != "healthy" {
			resp.Status = "degraded"
		}
		_, _, p := m.snapshotState()
		pressure += p
	}
	resp.Pressure = pressure / float64(len(r.members))
	return resp, nil
}

// TopologyJSON aggregates the member topologies into one document:
// the member list with state, and each reachable member's full
// topology under its name.
func (r *Router) TopologyJSON(ctx context.Context) ([]byte, error) {
	type memberTopo struct {
		Name     string             `json:"name"`
		URL      string             `json:"url"`
		State    string             `json:"state"`
		Topology *topology.Topology `json:"topology,omitempty"`
		Error    string             `json:"error,omitempty"`
	}
	out := struct {
		Cluster bool         `json:"cluster"`
		Members []memberTopo `json:"members"`
	}{Cluster: true, Members: make([]memberTopo, len(r.members))}

	var wg sync.WaitGroup
	for i, m := range r.members {
		state, _, _ := m.snapshotState()
		out.Members[i] = memberTopo{Name: m.name, URL: m.url, State: memberStateName(state)}
		if state == memberOffline {
			out.Members[i].Error = "member offline"
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			topo, err := hedged(ctx, r.cfg.HedgeDelay, func(ctx context.Context) (*topology.Topology, error) {
				return m.cl.Topology(ctx)
			})
			if err != nil {
				out.Members[i].Error = err.Error()
				return
			}
			out.Members[i].Topology = topo
		}(i, m)
	}
	wg.Wait()
	return json.Marshal(out)
}

// Attrs merges the members' attribute dumps: one report per attribute
// name, each value's target prefixed with the member that owns it
// ("m0/MCDRAM#4").
func (r *Router) Attrs(ctx context.Context) ([]server.AttrReport, error) {
	type result struct {
		m       *member
		reports []server.AttrReport
	}
	results := make([]result, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		if state, _, _ := m.snapshotState(); state == memberOffline {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			reports, err := hedged(ctx, r.cfg.HedgeDelay, func(ctx context.Context) ([]server.AttrReport, error) {
				return m.cl.Attrs(ctx)
			})
			if err == nil {
				results[i] = result{m: m, reports: reports}
			}
		}(i, m)
	}
	wg.Wait()

	merged := make(map[string]*server.AttrReport)
	var order []string
	for _, res := range results {
		if res.m == nil {
			continue
		}
		for _, rep := range res.reports {
			dst, ok := merged[rep.Name]
			if !ok {
				dst = &server.AttrReport{Name: rep.Name, Flags: rep.Flags}
				merged[rep.Name] = dst
				order = append(order, rep.Name)
			}
			for _, v := range rep.Values {
				v.Target = res.m.name + "/" + v.Target
				dst.Values = append(dst.Values, v)
			}
		}
	}
	out := make([]server.AttrReport, 0, len(order))
	for _, name := range order {
		out = append(out, *merged[name])
	}
	return out, nil
}

// WriteMetrics renders the cluster rollup: the router's own identity
// and per-member gauges (state, pressure, queued frees), the
// migration counters, then the standard daemon series — request
// counts and forwarded-latency histograms from the shared metrics
// plumbing, per-member bytes-in-use as the node gauges, and the live
// routed-lease count — so the single-daemon consistency checks and
// dashboards work against the router unchanged.
func (r *Router) WriteMetrics(ctx context.Context, w io.Writer) error {
	t := promtext.NewWriter(w)
	t.Series("hetmemd_instance_info").Label("instance_id", r.instanceID).Uint(1)
	t.Series("hetmemd_cluster_members").Int(int64(len(r.members)))
	t.Series("hetmemd_cluster_forward_errors_total").Uint(r.forwardErrors.Load())
	t.Series("hetmemd_cluster_migrations_total").Uint(r.migrations.Load())
	t.Series("hetmemd_cluster_migrations_failed_total").Uint(r.migrationsFailed.Load())
	t.Series("hetmemd_cluster_evacuations_total").Uint(r.evacuations.Load())
	t.Series("hetmemd_cluster_idempotent_replays_total").Uint(r.idemReplays.Load())
	t.Series("hetmemd_cluster_scrub_cycles_total").Uint(r.scrubCycles.Load())
	t.Series("hetmemd_cluster_scrub_failures_total").Uint(r.scrubFailures.Load())
	t.Series("hetmemd_cluster_scrub_repairs_total").Label("kind", "orphan").Uint(r.scrubOrphans.Load())
	t.Series("hetmemd_cluster_scrub_repairs_total").Label("kind", "lost").Uint(r.scrubLost.Load())
	t.Series("hetmemd_cluster_scrub_repairs_total").Label("kind", "drift").Uint(r.scrubDrift.Load())

	r.mu.Lock()
	bytesBySlot := make([]uint64, len(r.members))
	tenantBytes := make(map[string]uint64)
	leaseCount := len(r.leases)
	for _, rl := range r.leases {
		bytesBySlot[rl.slot] += rl.size
		tenantBytes[rl.tenant] += rl.size
	}
	r.mu.Unlock()

	// Per-tenant rollup across the whole fleet, tenant label first so
	// the per-tenant consistency check prefix-matches it like the
	// members' own kind-split series.
	tenants := make([]string, 0, len(tenantBytes))
	for name := range tenantBytes {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		t.Series("hetmemd_tenant_bytes").Label("tenant", name).Uint(tenantBytes[name])
	}

	nodes := make([]server.NodeUsage, len(r.members))
	for i, m := range r.members {
		state, id, pressure := m.snapshotState()
		t.Series("hetmemd_cluster_member_state").Label("member", m.name).Int(int64(state))
		t.Series("hetmemd_cluster_member_pressure").Label("member", m.name).Float(pressure)
		t.Series("hetmemd_cluster_member_pending_free").Label("member", m.name).Int(int64(m.pendingFreeDepth()))
		t.Series("hetmemd_cluster_member_overload_total").Label("member", m.name).Uint(m.overloads.Load())
		if id != "" {
			t.Series("hetmemd_cluster_member_info").Label("member", m.name).Label("instance_id", id).Uint(1)
		}
		nodes[i] = server.NodeUsage{Node: m.name, InUse: bytesBySlot[i], Health: state}
	}
	r.api.Metrics().Render(w, nodes, leaseCount)
	return nil
}
