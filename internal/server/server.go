// Package server turns a discovered heterogeneous-memory system
// (internal/core) into a long-running placement daemon: the paper's
// in-process attribute API served over HTTP to many concurrent
// clients, in the spirit of the standalone guidance daemons of Olson
// et al. and the pool-tuning runtime of Vaverka et al.
//
// The daemon loads one platform, runs discovery once (HMAT or
// benchmarking), and then serves the /v1 surface over HTTP and the
// binary transports: the route table in api.go names every op, and
// ops.serve answers it.
//
// # Failure model
//
// Each NUMA node moves through a health state machine — healthy →
// degraded → offline — fed by fault events (see internal/faults and
// Server.ApplyFault). Placements are re-ranked away from any
// non-healthy node (it remains a last resort); when a node goes
// offline the daemon auto-migrates the leases living on it to the
// next-best healthy targets and counts the moves in /metrics.
//
// Admission control sheds load when capacity pressure crosses the
// configured watermark: /v1/alloc answers 503 Service Unavailable with a
// Retry-After header instead of grinding the machine into exhaustion.
// Transient allocation faults surface the same way — 503 + Retry-After
// — telling clients the request is retryable, while genuine capacity
// exhaustion stays 507 Insufficient Storage (retrying won't help;
// free, shrink, or ask for partial/remote).
//
// # Durability
//
// With Config.JournalPath set, every lease event (alloc, migrate,
// free) is appended to a write-ahead journal before the response is
// sent; a restarted daemon replays the journal and reconstructs its
// lease table and per-node byte accounting exactly. Clients may tag
// /v1/alloc requests with an idempotency key: retries of a request whose
// response was lost return the original lease instead of
// double-allocating.
//
// Concurrency: request handling is lock-free except for the per-node
// capacity locks in internal/memsim and the sharded lease table, so
// allocations on different NUMA nodes proceed in parallel.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetmem/internal/advisor"
	"hetmem/internal/alloc"
	"hetmem/internal/core"
	"hetmem/internal/faults"
	"hetmem/internal/journal"
	"hetmem/internal/lstopo"
	"hetmem/internal/memattr"
	"hetmem/internal/memsim"
	"hetmem/internal/promtext"
	"hetmem/internal/sensitivity"
	"hetmem/internal/tenant"
	"hetmem/internal/topology"
)

// Config tunes the daemon's robustness machinery. The zero value is a
// journal-less, non-shedding daemon (the PR-1 behaviour).
type Config struct {
	// JournalPath enables the write-ahead lease journal at this path.
	// Opening replays any existing journal (and its checkpoint
	// snapshots) into the lease table.
	JournalPath string
	// ShedWatermark in (0, 1]: /alloc sheds load with 503 +
	// Retry-After once (bytes in use + request size) would cross this
	// fraction of the online capacity. 0 disables shedding.
	ShedWatermark float64
	// RetryAfterSeconds is the Retry-After hint on 503 responses
	// (default 1).
	RetryAfterSeconds int

	// TenantsPath loads a tenant config file (classes and per-kind
	// quotas) into the registry at boot; see internal/tenant for the
	// format. Unknown tenants still auto-register with the default
	// class, so the file only needs the tenants that matter.
	TenantsPath string
	// Tenants injects a pre-built registry (in-process harnesses);
	// nil builds a fresh one. TenantsPath loads into whichever is used.
	Tenants *tenant.Registry
	// QueueDepth bounds the burstable admission queue: allocations
	// from burstable tenants that hit the shed watermark wait (up to
	// QueueTimeout) for capacity instead of shedding, unless this many
	// are already waiting. 0 disables queueing — burstable sheds like
	// best-effort.
	QueueDepth int
	// QueueTimeout caps a burstable allocation's wait in the admission
	// queue (default 1s); the request context's deadline shortens it.
	QueueTimeout time.Duration
	// GuaranteedHeadroom is the capacity fraction above ShedWatermark
	// reserved for guaranteed tenants: they admit up to
	// min(1, ShedWatermark+GuaranteedHeadroom) while everyone else
	// sheds at the watermark.
	GuaranteedHeadroom float64

	// GroupCommit makes every acked journal record power-failure
	// durable (requires JournalPath; `hetmemd serve -journal-sync`).
	// Appends that arrive while an fsync is in flight share the next
	// one, up to journal.DefaultGroupBatch records; a lone writer pays
	// one write+fsync. Without it appends are process-crash durable
	// only.
	GroupCommit bool

	// DefaultLeaseTTL is granted to allocations that do not request a
	// TTL. 0 means such leases never expire.
	DefaultLeaseTTL time.Duration
	// MinLeaseTTL and MaxLeaseTTL clamp client-requested TTLs
	// (defaults: 1s and 1h). A request below the floor is raised, one
	// above the ceiling is lowered — never rejected.
	MinLeaseTTL time.Duration
	MaxLeaseTTL time.Duration
	// ReapInterval is how often the orphan reaper scans for expired
	// leases. 0 disables the reaper (required to be > 0 and no larger
	// than DefaultLeaseTTL when a default TTL is set, so an orphan is
	// reclaimed within 2×TTL of its last heartbeat).
	ReapInterval time.Duration

	// CheckpointEvery runs journal checkpoint/compaction on a timer; 0
	// disables periodic checkpoints.
	CheckpointEvery time.Duration
	// CheckpointMaxWAL additionally triggers a checkpoint whenever the
	// WAL grows past this many bytes; 0 disables the size trigger.
	CheckpointMaxWAL int64

	// RebalanceInterval enables healed-node re-admission: when a node
	// returns to healthy, a paced rebalancer migrates leases whose
	// best-ranked target is that node back onto it, sleeping this long
	// between budget-sized batches. 0 disables rebalancing.
	RebalanceInterval time.Duration
	// RebalanceBudget caps the bytes migrated per rebalance batch
	// (default 256 MiB when rebalancing or the advisor is on). The
	// tiering advisor shares this budget: each of its sample cycles may
	// move at most this many bytes.
	RebalanceBudget uint64

	// AdvisorInterval enables the online tiering advisor: a background
	// loop that samples per-lease access telemetry, reclassifies each
	// lease (latency-bound, bandwidth-bound, or cold), and migrates
	// misplaced leases through the journaled migrate path under
	// RebalanceBudget. 0 disables the advisor (and its /v1/advisor API
	// answers 409 advisor_paused).
	AdvisorInterval time.Duration
	// AdvisorHysteresis is how many consecutive agreeing samples a
	// reclassification needs before the advisor moves a lease
	// (default 3).
	AdvisorHysteresis int
	// AdvisorCooldown is how many sample intervals a lease rests after
	// an advisor move before it may move again (default 5).
	AdvisorCooldown int

	// FS routes all journal and snapshot I/O; nil means the real
	// filesystem. Chaos tests install a faults.FaultFS here.
	FS faults.FS
}

// validate rejects nonsensical lifecycle configurations at startup,
// when the operator can still fix them — not hours later when the
// reaper silently never runs.
func (c Config) validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"DefaultLeaseTTL", c.DefaultLeaseTTL},
		{"MinLeaseTTL", c.MinLeaseTTL},
		{"MaxLeaseTTL", c.MaxLeaseTTL},
		{"ReapInterval", c.ReapInterval},
		{"CheckpointEvery", c.CheckpointEvery},
		{"RebalanceInterval", c.RebalanceInterval},
		{"QueueTimeout", c.QueueTimeout},
		{"AdvisorInterval", c.AdvisorInterval},
	} {
		if d.v < 0 {
			return fmt.Errorf("server: config: %s must not be negative (got %v)", d.name, d.v)
		}
	}
	if c.CheckpointMaxWAL < 0 {
		return fmt.Errorf("server: config: CheckpointMaxWAL must not be negative (got %d)", c.CheckpointMaxWAL)
	}
	if c.MinLeaseTTL > 0 && c.MaxLeaseTTL > 0 && c.MinLeaseTTL > c.MaxLeaseTTL {
		return fmt.Errorf("server: config: MinLeaseTTL %v exceeds MaxLeaseTTL %v", c.MinLeaseTTL, c.MaxLeaseTTL)
	}
	if c.DefaultLeaseTTL > 0 {
		if c.ReapInterval == 0 {
			return fmt.Errorf("server: config: DefaultLeaseTTL %v without a ReapInterval: expired leases would never be reclaimed", c.DefaultLeaseTTL)
		}
		if c.ReapInterval > c.DefaultLeaseTTL {
			return fmt.Errorf("server: config: ReapInterval %v exceeds DefaultLeaseTTL %v: orphans would outlive 2×TTL", c.ReapInterval, c.DefaultLeaseTTL)
		}
	}
	if (c.ShedWatermark < 0) || (c.ShedWatermark > 1) {
		return fmt.Errorf("server: config: ShedWatermark %v outside [0, 1]", c.ShedWatermark)
	}
	if (c.GuaranteedHeadroom < 0) || (c.GuaranteedHeadroom > 1) {
		return fmt.Errorf("server: config: GuaranteedHeadroom %v outside [0, 1]", c.GuaranteedHeadroom)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: config: QueueDepth must not be negative (got %d)", c.QueueDepth)
	}
	if c.GroupCommit && c.JournalPath == "" {
		return fmt.Errorf("server: config: GroupCommit without a JournalPath: there is nothing to commit")
	}
	if c.AdvisorHysteresis < 0 {
		return fmt.Errorf("server: config: AdvisorHysteresis must not be negative (got %d)", c.AdvisorHysteresis)
	}
	if c.AdvisorCooldown < 0 {
		return fmt.Errorf("server: config: AdvisorCooldown must not be negative (got %d)", c.AdvisorCooldown)
	}
	return nil
}

// Server is the placement daemon: the Backend behind its own /v1
// surface. Create one with New or NewWithConfig and mount Handler on
// any net/http server, WireHandler on a wire listener.
type Server struct {
	// api is the daemon's /v1 surface over the Server itself; it records
	// into metrics, which the placement paths count into as well.
	api     *API
	metrics *Metrics
	sys     *core.System
	// nodes is the machine's node set by OS index. It is fixed for the
	// machine's life, so the per-request walks (pressure on every
	// admitted alloc) read this instead of asking Machine.Nodes for a
	// fresh sorted copy.
	nodes  []*memsim.Node
	cfg    Config
	leases *leaseTable
	health *healthTracker
	idem   *idemTable
	store  *journal.Store

	// instanceID is drawn at boot and surfaced in /v1/health and
	// /metrics, so a cluster router (or an operator) can tell members
	// apart across restarts behind the same address.
	instanceID string

	// ckmu orders lease-state mutations against checkpoints: every
	// path that changes the lease table or journals a record holds the
	// read side across both steps, and CheckpointNow holds the write
	// side while capturing the snapshot. The captured table and the
	// WAL therefore always agree — no alloc can land in the table but
	// miss both the snapshot and the compacted WAL.
	ckmu sync.RWMutex

	// Background lifecycle: the reaper, checkpointer, and rebalancer
	// goroutines park on stop and are waited for in Close.
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
	ckptKick  chan struct{}

	// rebalancing guards one in-flight rebalance per healed node.
	rebalMu     sync.Mutex
	rebalancing map[int]bool

	// advisor is the online tiering advisor's state (nil when
	// Config.AdvisorInterval is 0); adviseMu serializes sample cycles
	// so a manual AdviseOnce never interleaves with the timer loop.
	advisor  *advisor.Tracker
	adviseMu sync.Mutex

	// wholeMachine is the initiator of a request that names none: the
	// whole machine's cpuset. inis interns the lists requests do name.
	wholeMachine internedIni
	inis         initiators

	// avoidFn is s.avoidUnhealthy bound once: a method value allocates
	// at every use, and the alloc hot path passes it on every request.
	avoidFn func(*topology.Object) bool

	// tenants is the QoS registry: priority classes, per-kind quotas,
	// and per-tenant accounting. admitGate wakes queued burstable
	// admissions whenever capacity is released; queueWaiting bounds the
	// queue at Config.QueueDepth.
	tenants      *tenant.Registry
	admitGate    waitGate
	queueWaiting atomic.Int32

	// topoJSON is the /v1/topology body exported once at boot: the
	// topology tree is immutable after discovery (faults mutate memsim
	// node state and attribute values, never the tree). attrs caches the
	// /v1/attrs view for as long as the machine generation stands —
	// attribute values move only with it, never with a lease write.
	topoJSON []byte
	attrs    atomic.Pointer[attrsView]
}

// attrsView is one /v1/attrs answer and the machine generation it was
// read at. Nothing in it is mutated after publication.
type attrsView struct {
	gen     uint64
	reports []AttrReport
}

// New builds a server around a discovered system with the zero Config
// (no journal, no load shedding).
func New(sys *core.System) *Server {
	s, err := NewWithConfig(sys, Config{})
	if err != nil {
		// Without a journal nothing in construction can fail.
		panic(err)
	}
	return s
}

// NewWithConfig builds a server with robustness options. When the
// config names a journal, any existing records are replayed first: the
// lease table, per-node accounting, and idempotency results come back
// exactly as the previous incarnation journaled them.
func NewWithConfig(sys *core.System, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	if cfg.MinLeaseTTL == 0 {
		cfg.MinLeaseTTL = time.Second
	}
	if cfg.MaxLeaseTTL == 0 {
		cfg.MaxLeaseTTL = time.Hour
	}
	if (cfg.RebalanceInterval > 0 || cfg.AdvisorInterval > 0) && cfg.RebalanceBudget == 0 {
		cfg.RebalanceBudget = 256 << 20
	}
	if cfg.QueueDepth > 0 && cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.Tenants == nil {
		cfg.Tenants = tenant.NewRegistry()
	}
	if cfg.TenantsPath != "" {
		if err := cfg.Tenants.Load(cfg.TenantsPath); err != nil {
			return nil, fmt.Errorf("server: loading tenants: %w", err)
		}
	}
	nodes := sys.Machine.Nodes()
	var osIdx []int
	for _, n := range nodes {
		osIdx = append(osIdx, n.OSIndex())
	}
	s := &Server{
		metrics:      NewMetrics(),
		sys:          sys,
		nodes:        nodes,
		cfg:          cfg,
		leases:       newLeaseTable(nodes),
		health:       newHealthTracker(osIdx),
		idem:         newIdemTable(),
		instanceID:   NewInstanceID(),
		stop:         make(chan struct{}),
		ckptKick:     make(chan struct{}, 1),
		rebalancing:  make(map[int]bool),
		wholeMachine: internedIni{bm: sys.Topology().Root().CPUSet.Copy()},
		tenants:      cfg.Tenants,
	}
	s.avoidFn = s.avoidUnhealthy
	if cfg.AdvisorInterval > 0 {
		s.advisor = advisor.New(advisor.Config{
			Interval: cfg.AdvisorInterval,
			Options: sensitivity.Options{
				Hysteresis:      cfg.AdvisorHysteresis,
				CooldownSamples: cfg.AdvisorCooldown,
			},
		})
	}
	topoJSON, err := topology.Export(sys.Topology())
	if err != nil {
		return nil, err
	}
	s.topoJSON = topoJSON
	if cfg.JournalPath != "" {
		st, res, err := journal.OpenStoreWorkers(cfg.JournalPath, cfg.FS, 0)
		if err != nil {
			return nil, err
		}
		s.store = st
		if cfg.GroupCommit {
			st.EnableGroupCommit(journal.DefaultGroupBatch, 0, s.metrics.ObserveJournalBatch)
		}
		if err := s.restoreFromJournal(res.Records, res.NextLease); err != nil {
			st.Close()
			return nil, err
		}
		s.metrics.JournalRecords.Add(uint64(len(res.Records)))
		if res.WAL.Truncated {
			s.metrics.JournalTailDropped.Add(1)
		}
		if res.UsedFallback {
			s.metrics.SnapshotFallbacks.Add(1)
		}
	}
	s.api = newAPI(s, s.metrics, cfg.RetryAfterSeconds)
	if s.advisor != nil {
		// Replay restored the advisor's move counters into the metrics;
		// mirror them into the tracker so /v1/advisor and /metrics agree
		// across restarts.
		s.advisor.RestoreCounters(s.metrics.AdvisorPromoted.Load(), s.metrics.AdvisorDemoted.Load())
	}
	s.startBackground()
	return s, nil
}

// System returns the system the daemon serves.
func (s *Server) System() *core.System { return s.sys }

// Metrics returns the daemon's live metrics.
func (s *Server) Metrics() *Metrics { return s.metrics }

// LeaseCount returns the number of live leases (restored ones
// included).
func (s *Server) LeaseCount() int { return s.leases.count() }

// Handler returns the daemon's HTTP handler: the /v1 surface.
func (s *Server) Handler() http.Handler { return s.api.Handler() }

// Close stops the background reaper, checkpointer, and rebalancer,
// then flushes and closes the journal store (if any). Call it after
// the HTTP server has drained — the graceful-shutdown path; abandoning
// the Server without Close models a crash, which the journal tolerates
// by design.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.store != nil {
			s.closeErr = s.store.Close()
		}
	})
	return s.closeErr
}

// appendJournal writes records to the journal, if one is open, as one
// contiguous write. The caller must hold s.ckmu (read side) across the
// lease-table mutation and this append. A lone record under group
// commit shares its fsync with every concurrently appending request;
// several records pay one write and one fsync of their own. Appended
// records are counted, and a size-triggered checkpoint is kicked, never
// run inline: Checkpoint needs the write side of ckmu.
//
// appended reports whether the records reached the WAL: false when the
// write failed (the Store rolls a torn tail back, so nothing
// persisted), true when only a subsequent fsync failed — the records
// are in the file and will replay, even though their durability is
// unconfirmed. Callers that roll back in-memory state on error use
// this to decide whether compensating records are needed.
func (s *Server) appendJournal(recs ...journal.Record) (appended bool, err error) {
	if s.store == nil {
		return false, nil
	}
	if s.cfg.GroupCommit && len(recs) == 1 {
		appended, err = s.store.AppendDurable(recs[0])
	} else {
		appended, err = s.store.AppendBatch(recs, s.cfg.GroupCommit)
	}
	if appended {
		// A record whose fsync failed is still in the WAL: it counts
		// and grows the log like any other.
		s.metrics.JournalRecords.Add(uint64(len(recs)))
		if s.cfg.CheckpointMaxWAL > 0 && s.store.WALBytes() > s.cfg.CheckpointMaxWAL {
			select {
			case s.ckptKick <- struct{}{}:
			default:
			}
		}
	}
	if err != nil {
		return appended, fmt.Errorf("server: journal append: %w", err)
	}
	return true, nil
}

// allocRecord is the journal record that replays a lease: written when
// the lease is granted and again in every checkpoint that finds it
// live. The registry's name lookup is an exact match, so the attribute
// comes back as the request spelled it. The attribute is read without
// l.jmu: a move changes it only under ckmu's read side, and the lease
// is either not yet visible or the caller holds the write side.
func (s *Server) allocRecord(l *lease) journal.Record {
	return journal.Record{
		Op:        journal.OpAlloc,
		Lease:     l.id,
		Name:      l.buf.Name,
		Attr:      s.sys.Registry.Name(memattr.ID(l.attr)),
		Initiator: l.ini.list,
		Key:       l.key(),
		Size:      l.buf.Size,
		Tenant:    l.tenant,
		TTLMillis: uint64(l.getTTL() / time.Millisecond),
		Segments:  segmentsOf(l.buf),
	}
}

// segmentsOf snapshots a buffer's placement as journal segments.
func segmentsOf(b *memsim.Buffer) []journal.Segment {
	segs := b.SegmentsSnapshot()
	out := make([]journal.Segment, len(segs))
	for i, seg := range segs {
		out[i] = journal.Segment{NodeOS: seg.Node.OSIndex(), Bytes: seg.Bytes}
	}
	return out
}

// ErrOverloaded is returned (as a 503) when admission control sheds an
// allocation to protect the machine's remaining headroom.
var ErrOverloaded = errors.New("server: overloaded, shedding load")

var errNoSuchLease = errors.New("server: no such lease")

// Server implements Backend and every optional extension, so both
// transports dispatch into it exactly like cluster.Router.
var (
	_ Backend           = (*Server)(nil)
	_ LeaseDetailer     = (*Server)(nil)
	_ AttrsTexter       = (*Server)(nil)
	_ AdvisorController = (*Server)(nil)
)

// TopologyJSON is the Backend entry behind /v1/topology. The topology
// tree is immutable after discovery, so the body is the boot-time
// export.
func (s *Server) TopologyJSON(ctx context.Context) ([]byte, error) {
	return s.topoJSON, nil
}

// attrReports assembles the /v1/attrs JSON view from the registry.
func (s *Server) attrReports() ([]AttrReport, error) {
	reg := s.sys.Registry
	var out []AttrReport
	for _, id := range reg.IDs() {
		flags, err := reg.Flags(id)
		if err != nil {
			return nil, err
		}
		rep := AttrReport{Name: reg.Name(id), Flags: flags.String()}
		for _, tgt := range reg.Targets(id) {
			ivs, err := reg.Initiators(id, tgt)
			if err != nil {
				return nil, err
			}
			for _, iv := range ivs {
				av := AttrValue{
					Target:   fmt.Sprintf("%s#%d", memsim.KindOf(tgt), tgt.OSIndex),
					TargetOS: tgt.OSIndex,
					Value:    iv.Value,
				}
				if iv.Initiator != nil {
					av.Initiator = iv.Initiator.ListString()
				}
				rep.Values = append(rep.Values, av)
			}
		}
		out = append(out, rep)
	}
	return out, nil
}

// AttrsText is the AttrsTexter entry behind /v1/attrs?format=text.
func (s *Server) AttrsText(ctx context.Context) (string, error) {
	return fmt.Sprintf("Memory attributes (source: %s)\n", s.sys.Source) + lstopo.RenderMemAttrs(s.sys.Registry), nil
}

// Attrs is the Backend entry behind /v1/attrs (the JSON dump).
func (s *Server) Attrs(ctx context.Context) ([]AttrReport, error) {
	// The generation is read before the registry walk, so a fault landing
	// mid-walk leaves the stored view already stale and the next read
	// rebuilds it.
	gen := s.sys.Machine.Generation()
	if v := s.attrs.Load(); v != nil && v.gen == gen {
		return v.reports, nil
	}
	reports, err := s.attrReports()
	if err != nil {
		return nil, err
	}
	s.attrs.Store(&attrsView{gen: gen, reports: reports})
	return reports, nil
}

// resolveInitiator parses a cpuset list through the daemon's intern
// table and widens an absent one to the whole machine. The entry holds
// the bitmap and the table's copy of the list, for a lease to keep.
func (s *Server) resolveInitiator(list string) (*internedIni, error) {
	if list == "" {
		return &s.wholeMachine, nil
	}
	return s.inis.intern(list)
}

// pressure reports the online capacity and the bytes in use on it.
// Offline nodes are out of the pool: their capacity cannot take new
// bytes and their usage is unreachable anyway.
func (s *Server) pressure() (used, total uint64) {
	for _, n := range s.nodes {
		if n.Offline() {
			continue
		}
		total += n.EffectiveCapacity()
		used += n.Allocated()
	}
	return used, total
}

// Admission is class-aware since tenants arrived: see admitTenant in
// tenant.go. pressure above stays the shared gauge.

// Alloc is the Backend entry behind /v1/alloc: the idempotency-key
// protocol around doAlloc.
func (s *Server) Alloc(ctx context.Context, req AllocRequest) (AllocResponse, error) {
	if req.IdempotencyKey == "" {
		return s.doAlloc(ctx, req)
	}

	e, owner := s.idem.begin(req.IdempotencyKey)
	if !owner {
		// A request with this key already ran (or is running): wait for
		// its outcome and replay it instead of allocating twice.
		select {
		case <-e.done:
		case <-ctx.Done():
			return AllocResponse{}, fmt.Errorf("%w: canceled waiting for idempotent result", ErrOverloaded)
		}
		s.metrics.IdemReplays.Add(1)
		if e.err != nil {
			return AllocResponse{}, e.err
		}
		return e.resp, nil
	}
	resp, err := s.doAlloc(ctx, req)
	if err != nil {
		// Failed attempts are forgotten so a later retry can succeed.
		s.idem.fail(req.IdempotencyKey, e, err)
		return AllocResponse{}, err
	}
	s.idem.succeed(e, resp)
	return resp, nil
}

// doAlloc grants one request: a batch of one through place and commit,
// so the lone record still joins the journal's group commit.
func (s *Server) doAlloc(ctx context.Context, req AllocRequest) (AllocResponse, error) {
	tn := s.tenants.Get(TenantFromContext(ctx))
	g, err := s.place(ctx, tn, req, true)
	if err == nil {
		grants := [1]grant{g}
		err = s.commit(tn, grants[:])
	}
	if err != nil {
		s.metrics.AllocFailed.Add(1)
		return AllocResponse{}, err
	}
	return g.resp, nil
}

// grant is one placed request between place and commit: a lease that
// is neither journaled nor visible, and the response that grants it.
// idx is the request's position in its batch.
type grant struct {
	l    *lease
	resp AllocResponse
	idx  int
}

// place runs one request up to a built lease: field checks, advice,
// attribute, initiator, admission, placement and the tenant's quota
// charge. queue says whether a burstable tenant may wait in the
// admission queue: a single alloc may, a batch item may not — parking
// a half-placed batch would hold its placements hostage. On error
// nothing is left placed or charged.
func (s *Server) place(ctx context.Context, tn *tenant.Tenant, req AllocRequest, queue bool) (grant, error) {
	if err := ValidateAllocRequest(req); err != nil {
		return grant{}, err
	}
	// A request with no attribute defers the tiering decision to the
	// advisor: place under its live classification of this buffer name
	// (or the capacity tier for a name it has never observed) and say
	// so in the response. Without an advisor the field stays required.
	advice := ""
	if req.Attr == "" {
		if s.advisor == nil {
			return grant{}, fmt.Errorf("%w: missing attr", ErrBadRequest)
		}
		req.Attr = s.adviceFor(req.Name)
		advice = req.Attr
	}
	id, ok := s.sys.Registry.ByName(req.Attr)
	if !ok {
		return grant{}, fmt.Errorf("%w: unknown attribute %q", ErrBadRequest, req.Attr)
	}
	ini, err := s.resolveInitiator(req.Initiator)
	if err != nil {
		return grant{}, err
	}
	if err := s.admitTenant(ctx, tn, req.Size, queue); err != nil {
		return grant{}, err
	}
	sp := alloc.Spec{Avoid: s.avoidFor(tn, req.Size), Partial: req.Partial, Remote: req.Remote}
	if req.Policy == "bind" {
		sp.Policy = alloc.Bind
	}
	buf, dec, err := s.sys.Allocator.AllocSpec(req.Name, req.Size, id, ini.bm, sp)
	if err != nil {
		return grant{}, err
	}
	// The placement exists; now it must fit the tenant's per-kind
	// quotas. A miss undoes the placement and reports the kind+limit.
	if err := chargeBuf(tn, buf); err != nil {
		s.sys.Machine.Free(buf)
		s.admitGate.broadcast()
		return grant{}, err
	}

	ttl := s.grantTTL(req.TTLSeconds)
	l := newLease()
	l.attr = uint16(id)
	l.ini = ini
	if req.IdempotencyKey != "" {
		l.ext = &leaseExt{key: req.IdempotencyKey}
	}
	l.tenant = tn.Name
	l.buf = buf
	l.setTTL(ttl)
	l.renew(time.Now())
	l.id = s.leases.next.Add(1)
	return grant{l: l, resp: AllocResponse{
		Lease:        l.id,
		Placement:    buf.NodeNames(),
		AttrUsed:     s.sys.Registry.Name(dec.Used),
		AttrFellBack: dec.AttrFellBack,
		Rank:         dec.RankPosition,
		Partial:      dec.Partial,
		Remote:       dec.Remote,
		TTLSeconds:   ttl.Seconds(),
		// Echoed only when the request named a tenant: untenanted
		// clients keep the pre-tenancy wire format byte for byte.
		Tenant: TenantFromContext(ctx),
		Advice: advice,
	}}, nil
}

// commit journals placed grants as one append and then makes their
// leases visible. Journal before visible: a lease a client can see (and
// free) is always in the log, so replay never meets a free without its
// alloc. The checkpoint lock spans the append and the table inserts, so
// a concurrent snapshot either misses all of them (the records land in
// the compacted WAL) or sees all. A failed append unwinds every grant,
// charges included.
func (s *Server) commit(tn *tenant.Tenant, grants []grant) error {
	// A lone grant's record stays on the stack: a single alloc is the
	// hot path, and alloc_budget_test.go pins what it allocates.
	var one [1]journal.Record
	recs := one[:0]
	if s.store != nil {
		if len(grants) > 1 {
			recs = make([]journal.Record, 0, len(grants))
		}
		for _, g := range grants {
			recs = append(recs, s.allocRecord(g.l))
		}
	}
	s.ckmu.RLock()
	appended, err := s.appendJournal(recs...)
	if err != nil {
		if appended {
			// The alloc records are in the WAL but their fsync failed,
			// and the clients are about to see errors. Compensating frees
			// keep replay from resurrecting leases nobody was granted; if
			// even this best effort fails, the orphans carry a TTL and the
			// reaper collects them after restart.
			for i, g := range grants {
				recs[i] = journal.Record{Op: journal.OpFree, Lease: g.l.id}
			}
			s.appendJournal(recs...)
		}
		s.ckmu.RUnlock()
		for _, g := range grants {
			refundSegs(tn, g.l.buf.SegmentsSnapshot())
			s.sys.Machine.Free(g.l.buf)
			g.l.release()
		}
		s.admitGate.broadcast()
		return err
	}
	for _, g := range grants {
		s.metrics.AllocTotal.Add(1)
		s.metrics.BytesPlaced.Add(g.l.buf.Size)
		if g.resp.Rank > 0 {
			s.metrics.FallbackTotal.Add(1)
		}
		if g.resp.AttrFellBack {
			s.metrics.AttrFallback.Add(1)
		}
		if g.resp.Partial {
			s.metrics.PartialTotal.Add(1)
		}
		if g.resp.Remote {
			s.metrics.RemoteTotal.Add(1)
		}
		// restore transfers our reference to the table: the lease is
		// now visible (and freeable, hence recyclable), so nothing
		// touches g.l after this.
		s.leases.restore(g.l)
	}
	s.ckmu.RUnlock()
	return nil
}

// grantTTL clamps a requested TTL (seconds; 0 = "daemon's choice")
// into the configured [min, max] window.
func (s *Server) grantTTL(reqSeconds float64) time.Duration {
	d := time.Duration(reqSeconds * float64(time.Second))
	if d <= 0 {
		return s.cfg.DefaultLeaseTTL
	}
	if d < s.cfg.MinLeaseTTL {
		d = s.cfg.MinLeaseTTL
	}
	if d > s.cfg.MaxLeaseTTL {
		d = s.cfg.MaxLeaseTTL
	}
	return d
}

// Renew is the Backend entry behind /v1/renew: the lease heartbeat,
// pushing the expiry another TTL into the future. Renewals are
// deliberately not journaled — a restart grants every restored lease a
// fresh TTL of grace, so the WAL stays free of high-frequency heartbeat
// traffic.
func (s *Server) Renew(ctx context.Context, req RenewRequest) (RenewResponse, error) {
	l, ok := s.leases.get(req.Lease)
	if !ok {
		return RenewResponse{}, fmt.Errorf("%w: %d", errNoSuchLease, req.Lease)
	}
	if req.TTLSeconds > 0 {
		l.setTTL(s.grantTTL(req.TTLSeconds))
	}
	l.renew(time.Now())
	resp := RenewResponse{Lease: l.id, TTLSeconds: l.getTTL().Seconds()}
	l.release()
	s.metrics.RenewTotal.Add(1)
	return resp, nil
}

// Free is the Backend entry behind /v1/free.
func (s *Server) Free(ctx context.Context, req FreeRequest) (FreeResponse, error) {
	l, ok := s.leases.get(req.Lease)
	if !ok {
		return FreeResponse{}, fmt.Errorf("%w: %d", errNoSuchLease, req.Lease)
	}
	// The checkpoint lock spans removal, free, and journal append: a
	// snapshot either still holds the lease (and its free lands in the
	// fresh WAL) or holds neither. jmu spans the take and the free.
	s.ckmu.RLock()
	l.jmu.Lock()
	if !s.leases.take(l) {
		l.jmu.Unlock()
		s.ckmu.RUnlock()
		l.release()
		return FreeResponse{}, fmt.Errorf("%w: %d", errNoSuchLease, req.Lease)
	}
	segs := l.buf.SegmentsSnapshot()
	s.sys.Machine.Free(l.buf) // a mapped lease's buffer is live: no error
	// On failure here the memory is already released but the WAL may
	// still say the lease is alive; restart resurrects it as an orphan
	// with a fresh TTL and the reaper collects it. The client sees an
	// error, so the free was never acknowledged.
	_, err := s.appendJournal(journal.Record{Op: journal.OpFree, Lease: l.id})
	l.jmu.Unlock()
	s.ckmu.RUnlock()
	defer l.release() // ours, from get; take dropped the table's
	// The bytes are back (even if the journal append failed after the
	// free): refund the tenant and wake queued admissions.
	refundSegs(s.tenants.Get(l.tenant), segs)
	s.admitGate.broadcast()
	if err != nil {
		return FreeResponse{}, err
	}
	if key := l.key(); key != "" {
		s.idem.forget(key)
	}
	s.metrics.FreeTotal.Add(1)
	return FreeResponse{Lease: req.Lease, Freed: true}, nil
}

// Migrate is the Backend entry behind /v1/migrate.
func (s *Server) Migrate(ctx context.Context, req MigrateRequest) (MigrateResponse, error) {
	attr, ok := s.sys.Registry.ByName(req.Attr)
	if !ok {
		return MigrateResponse{}, fmt.Errorf("%w: unknown attribute %q", ErrBadRequest, req.Attr)
	}
	ini, err := s.resolveInitiator(req.Initiator)
	if err != nil {
		return MigrateResponse{}, err
	}
	l, ok := s.leases.get(req.Lease)
	if !ok {
		return MigrateResponse{}, fmt.Errorf("%w: %d", errNoSuchLease, req.Lease)
	}
	s.ckmu.RLock()
	l.jmu.Lock()
	cost, dec, err := s.migrateLocked(l, attr, ini, req.Remote, "")
	// Read under jmu: once it is let go a free may drop the placement.
	placement := l.buf.NodeNames()
	l.jmu.Unlock()
	s.ckmu.RUnlock()
	l.release()
	if err != nil {
		return MigrateResponse{}, err
	}
	s.metrics.MigrateTotal.Add(1)
	return MigrateResponse{
		Lease:       req.Lease,
		Placement:   placement,
		Rank:        dec.RankPosition,
		CostSeconds: cost,
	}, nil
}

// leaseList walks the live lease table for /v1/leases?list=1. The
// totals are recomputed from the listed leases themselves rather than
// taken from the shard books, so the list always adds up to its own
// header — and a test can hold the books to it.
func (s *Server) leaseList() LeasesResponse {
	resp := LeasesResponse{NodeBytes: make(map[string]uint64), TenantBytes: make(map[string]uint64)}
	leases := s.leases.borrowAll()
	defer releaseAll(leases)
	for _, l := range leases {
		// Under jmu the placement holds still, and a lease freed since
		// borrowAll shows as freed: it is left out, not listed empty.
		l.jmu.Lock()
		freed := l.buf.Freed()
		segs := l.buf.SegmentsSnapshot()
		placement := l.buf.NodeNames()
		attr := memattr.ID(l.attr)
		l.jmu.Unlock()
		if freed {
			continue
		}
		resp.Count++
		resp.Bytes += l.buf.Size
		for _, seg := range segs {
			resp.NodeBytes[seg.Node.Label()] += seg.Bytes
			resp.TenantBytes[l.tenant] += seg.Bytes
		}
		info := LeaseInfo{
			Lease:     l.id,
			Name:      l.buf.Name,
			Size:      l.buf.Size,
			Placement: placement,
			Tenant:    l.tenant,
			Attr:      s.sys.Registry.Name(attr),
		}
		if s.advisor != nil {
			info.Class = s.advisor.Classification(l.id)
		}
		if t := l.buf.TelemetrySnapshot(); t != (memsim.Telemetry{}) {
			info.Telemetry = &t
		}
		resp.Leases = append(resp.Leases, info)
	}
	return resp
}

// Leases is the Backend entry behind /v1/leases. The summary sums the
// shard books; the list is built per request and cached nowhere — its
// callers are a cluster scrubber once per scrub interval and operators.
func (s *Server) Leases(ctx context.Context, list bool) (LeasesResponse, error) {
	if list {
		return s.leaseList(), nil
	}
	return s.leases.summary(), nil
}

// Health is the Backend entry behind /v1/health.
func (s *Server) Health(ctx context.Context) (HealthResponse, error) {
	states := s.health.snapshot()
	resp := HealthResponse{Status: "ok", InstanceID: s.instanceID, ShedWatermark: s.cfg.ShedWatermark}
	if s.store != nil {
		resp.Journal = s.store.Base()
	}
	used, total := s.pressure()
	if total > 0 {
		resp.Pressure = float64(used) / float64(total)
	}
	for _, n := range s.nodes {
		st := states[n.OSIndex()]
		if st != Healthy {
			resp.Status = "degraded"
		}
		resp.Nodes = append(resp.Nodes, NodeHealth{
			Node:  n.Label(),
			OS:    n.OSIndex(),
			State: st.String(),
		})
	}
	return resp, nil
}

// WriteMetrics is the Backend entry behind /v1/metrics: it renders the
// full metrics text to w.
func (s *Server) WriteMetrics(ctx context.Context, w io.Writer) error {
	usage := make([]NodeUsage, len(s.nodes))
	for i, n := range s.nodes {
		usage[i] = NodeUsage{
			Node:     n.Label(),
			Capacity: n.EffectiveCapacity(),
			InUse:    n.Allocated(),
			Health:   int(s.health.state(n.OSIndex())),
		}
	}
	sort.Slice(usage, func(i, j int) bool { return usage[i].Node < usage[j].Node })
	// Mirror the allocator's cache counters so the rendered text is the
	// allocator's ground truth, not a lagging copy.
	hits, misses := s.sys.Allocator.CacheStats()
	s.metrics.PlacementCacheHits.Store(hits)
	s.metrics.PlacementCacheMisses.Store(misses)
	t := promtext.NewWriter(w)
	t.Series("hetmemd_instance_info").Label("instance_id", s.instanceID).Uint(1)
	s.metrics.Render(w, usage, s.leases.count())
	s.tenants.WriteMetrics(w)
	t.Series("hetmemd_admission_queue_waiting").Int(int64(s.queueWaiting.Load()))
	if s.store != nil {
		t.Series("hetmemd_wal_bytes").Int(s.store.WALBytes())
		t.Series("hetmemd_checkpoint_seq").Uint(s.store.Seq())
	}
	return nil
}
