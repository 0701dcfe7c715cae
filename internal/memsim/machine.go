package memsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hetmem/internal/topology"
)

// Errors returned by allocation.
var (
	ErrNoCapacity = errors.New("memsim: node capacity exhausted")
	ErrNoModel    = errors.New("memsim: node has no performance model")
	ErrFreed      = errors.New("memsim: buffer already freed")
	// ErrNodeOffline means the node is administratively or fault-wise
	// down: no new reservations are admitted, but releases (frees,
	// evacuation migrations) still succeed so live data can leave.
	ErrNodeOffline = errors.New("memsim: node offline")
	// ErrTransient is an injected transient allocation fault (a DIMM
	// hiccup, an EDAC event): the request failed but the node is fine,
	// so the caller should retry rather than fall down the ranking.
	ErrTransient = errors.New("memsim: transient allocation fault")
)

// Node is the runtime state of one NUMA node: its model plus capacity
// accounting and traffic counters.
//
// Capacity accounting is guarded by a per-node lock, so concurrent
// allocations targeting different nodes never contend with each other —
// the sharding that lets one Machine serve many placement clients (see
// internal/server). The traffic counters are owned by the engine, which
// remains a single-threaded simulation.
type Node struct {
	Obj   *topology.Object
	Model NodeModel

	// gen points at the owning machine's placement generation; fault
	// setters bump it so ranked-candidate caches above (internal/alloc)
	// know the machine's placement inputs changed. Nil for a Node built
	// outside NewMachine.
	gen *atomic.Uint64

	// label caches the "KIND#os" rendering — both parts are immutable,
	// and the placement daemon stamps it on every response. Empty for a
	// Node built outside NewMachine.
	label string

	mu        sync.Mutex // guards allocated and the fault state below
	allocated uint64

	// Fault-injection state (see internal/faults). All of it is guarded
	// by mu, like the capacity accounting it perturbs.
	offline   bool
	capLimit  uint64  // 0 = full capacity; otherwise an injected shrink
	bwFactor  float64 // 0 or 1 = nominal; <1 = degraded bandwidth
	latFactor float64 // 0 or 1 = nominal; >1 = degraded latency
	failNext  uint64  // pending injected transient alloc failures

	// Counters, accumulated by the engine.
	BytesRead    uint64
	BytesWritten uint64
	RandomReads  uint64
}

// OSIndex returns the node's OS index.
func (n *Node) OSIndex() int { return n.Obj.OSIndex }

// Capacity returns the node capacity in bytes.
func (n *Node) Capacity() uint64 { return n.Obj.Memory }

// Allocated returns the bytes currently allocated on the node.
func (n *Node) Allocated() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.allocated
}

// Occupancy reads, under one lock, whether the node is offline, its
// capacity after any injected shrink, and the bytes allocated on it.
func (n *Node) Occupancy() (offline bool, capacity, allocated uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.offline, n.effectiveCapacityLocked(), n.allocated
}

// effectiveCapacityLocked is the capacity after any injected shrink.
// Callers must hold n.mu.
func (n *Node) effectiveCapacityLocked() uint64 {
	if n.capLimit > 0 && n.capLimit < n.Obj.Memory {
		return n.capLimit
	}
	return n.Obj.Memory
}

// EffectiveCapacity returns the node capacity after any injected
// capacity shrink (EffectiveCapacity <= Capacity).
func (n *Node) EffectiveCapacity() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.effectiveCapacityLocked()
}

// Available returns the bytes still allocatable on the node: zero when
// the node is offline or an injected shrink put it over capacity.
func (n *Node) Available() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	cap := n.effectiveCapacityLocked()
	if n.offline || n.allocated >= cap {
		return 0
	}
	return cap - n.allocated
}

// bumpGen advances the owning machine's placement generation, if this
// node belongs to one.
func (n *Node) bumpGen() {
	if n.gen != nil {
		n.gen.Add(1)
	}
}

// SetOffline marks the node offline (no new reservations) or back
// online. Releases always succeed, so buffers can be freed or migrated
// off a dead node.
func (n *Node) SetOffline(off bool) {
	n.mu.Lock()
	n.offline = off
	n.mu.Unlock()
	n.bumpGen()
}

// Offline reports whether the node is offline.
func (n *Node) Offline() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.offline
}

// SetCapacityLimit injects a capacity shrink: the node behaves as if it
// had limit bytes (0 restores the full capacity). Bytes already
// allocated above the limit stay allocated; new reservations fail until
// usage drops below the limit.
func (n *Node) SetCapacityLimit(limit uint64) {
	n.mu.Lock()
	n.capLimit = limit
	n.mu.Unlock()
	n.bumpGen()
}

// SetPerfFactors injects performance degradation: delivered bandwidth
// is scaled by bw (1 = nominal, 0.25 = severely degraded) and latency
// by lat (1 = nominal, 4 = severely degraded). Zero values reset to
// nominal.
func (n *Node) SetPerfFactors(bw, lat float64) {
	n.mu.Lock()
	n.bwFactor, n.latFactor = bw, lat
	n.mu.Unlock()
	n.bumpGen()
}

// PerfFactors returns the current degradation multipliers (1, 1 when
// nominal).
func (n *Node) PerfFactors() (bw, lat float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	bw, lat = n.bwFactor, n.latFactor
	if bw == 0 {
		bw = 1
	}
	if lat == 0 {
		lat = 1
	}
	return bw, lat
}

// Degraded reports whether the node currently runs below nominal
// performance.
func (n *Node) Degraded() bool {
	bw, lat := n.PerfFactors()
	return bw < 1 || lat > 1
}

// InjectAllocFailures makes the next count reservations on this node
// fail with ErrTransient, simulating transient allocation faults.
func (n *Node) InjectAllocFailures(count uint64) {
	n.mu.Lock()
	n.failNext += count
	n.mu.Unlock()
}

// reserve atomically claims size bytes on the node, failing with
// ErrNodeOffline when the node is down, ErrTransient when a fault was
// injected, and ErrNoCapacity when the bytes do not fit.
func (n *Node) reserve(size uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.offline {
		return fmt.Errorf("%w: %s#%d", ErrNodeOffline, n.Kind(), n.OSIndex())
	}
	if n.failNext > 0 {
		n.failNext--
		return fmt.Errorf("%w: %s#%d", ErrTransient, n.Kind(), n.OSIndex())
	}
	cap := n.effectiveCapacityLocked()
	avail := uint64(0)
	if cap > n.allocated {
		avail = cap - n.allocated
	}
	if avail < size {
		return fmt.Errorf("%w: %s#%d needs %d, has %d", ErrNoCapacity,
			n.Kind(), n.OSIndex(), size, avail)
	}
	n.allocated += size
	return nil
}

// release returns size bytes to the node.
func (n *Node) release(size uint64) {
	n.mu.Lock()
	n.allocated -= size
	n.mu.Unlock()
}

// Kind returns the node's memory kind.
func (n *Node) Kind() string { return KindOf(n.Obj) }

// Label returns the node's "KIND#os" rendering (e.g. "MCDRAM#4"),
// cached at machine construction so hot paths pay no formatting.
func (n *Node) Label() string {
	if n.label != "" {
		return n.label
	}
	return fmt.Sprintf("%s#%d", n.Kind(), n.OSIndex())
}

// Segment is a part of a buffer resident on one node.
type Segment struct {
	Node  *Node
	Bytes uint64
}

// Buffer is an application data buffer placed on one or more nodes.
//
// The placement is guarded by a per-buffer lock so Free and Migrate are
// safe against concurrent calls on the same buffer, and it is read
// only through SegmentsSnapshot, AppendSegments, NodeNames, OnKind and
// Freed; the per-buffer counters belong to the single-threaded engine.
//
// A placement daemon holds one Buffer per lease, so the struct carries
// only what every buffer needs, in 64 bytes: a one-node placement lives
// inline in seg0, any other placement sits behind split, a freed buffer
// is one with neither (no flag), and the access counters exist only
// once a phase has touched the buffer. The Machine keeps no list of its
// buffers: a buffer lives exactly as long as its holder keeps it.
type Buffer struct {
	Name string
	Size uint64

	// seg0 is a one-node placement, which Migrate rewrites in place;
	// split is any other one (several nodes, or none for a zero-part
	// AllocSplit), with seg0 zero. Both are zero once the buffer is freed.
	seg0  [1]Segment
	split *[]Segment

	mu sync.Mutex // guards seg0 and split

	// ctr holds the access counters, set by the engine when a phase
	// first touches the buffer: nil reads as all zeros.
	ctr atomic.Pointer[counters]
}

// segs returns the buffer's placement, nil once it is freed. Callers
// hold b.mu.
func (b *Buffer) segs() []Segment {
	switch {
	case b.split != nil:
		return *b.split
	case b.seg0[0].Node != nil:
		return b.seg0[:]
	}
	return nil
}

// Telemetry is a point-in-time copy of a buffer's access counters, safe
// to read concurrently with a running engine. Counters are cumulative
// since allocation (or the last ResetCounters); samplers diff
// successive snapshots to get per-interval activity.
type Telemetry struct {
	LLCMisses    uint64 `json:"llc_misses"`
	RandomMisses uint64 `json:"random_misses"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
}

// counters are a buffer's per-buffer counters for the profiler (Fig 7
// of the paper). The plain fields belong to the single-threaded engine;
// tele mirrors them for concurrent readers: the engine publishes into
// it at the end of every Phase (and on ResetCounters), so a background
// sampler — the daemon's tiering advisor — can read a coherent
// snapshot without touching the simulation state.
type counters struct {
	llcMisses uint64
	// randomMisses is the share of llcMisses caused by irregular
	// (latency-bound) accesses, used to classify buffer sensitivity.
	randomMisses  uint64
	loads, stores uint64

	tele struct {
		llcMisses, randomMisses, loads, stores atomic.Uint64
	}
}

// counters returns the buffer's counters, creating them on first use.
// Only the engine creates them; the CompareAndSwap keeps a second
// engine on the same buffer from dropping the first one's counts.
func (b *Buffer) counters() *counters {
	if c := b.ctr.Load(); c != nil {
		return c
	}
	b.ctr.CompareAndSwap(nil, new(counters))
	return b.ctr.Load()
}

// noCounters stands in for the counters of a buffer no phase touched.
// Never written.
var noCounters counters

// read returns the buffer's counters, or zeros when it has none.
func (b *Buffer) read() *counters {
	if c := b.ctr.Load(); c != nil {
		return c
	}
	return &noCounters
}

// LLCMisses returns the buffer's last-level-cache misses. Like the
// engine that counts them, not safe to call concurrently with Phase;
// concurrent readers use TelemetrySnapshot.
func (b *Buffer) LLCMisses() uint64 { return b.read().llcMisses }

// RandomMisses returns the share of LLCMisses caused by irregular
// (latency-bound) accesses. Engine-owned, like LLCMisses.
func (b *Buffer) RandomMisses() uint64 { return b.read().randomMisses }

// Loads returns the buffer's 8-byte loads. Engine-owned, like LLCMisses.
func (b *Buffer) Loads() uint64 { return b.read().loads }

// Stores returns the buffer's 8-byte stores. Engine-owned, like
// LLCMisses.
func (b *Buffer) Stores() uint64 { return b.read().stores }

// publish copies the engine-owned counters into the atomic mirror.
// Called by the engine at phase end and by ResetCounters; not safe to
// race with other writers (the engine is single-threaded).
func (c *counters) publish() {
	c.tele.llcMisses.Store(c.llcMisses)
	c.tele.randomMisses.Store(c.randomMisses)
	c.tele.loads.Store(c.loads)
	c.tele.stores.Store(c.stores)
}

// TelemetrySnapshot returns the last published counters. Safe for
// concurrent use; returns zeros until the first phase that touches the
// buffer completes.
func (b *Buffer) TelemetrySnapshot() Telemetry {
	c := b.read()
	return Telemetry{
		LLCMisses:    c.tele.llcMisses.Load(),
		RandomMisses: c.tele.randomMisses.Load(),
		Loads:        c.tele.loads.Load(),
		Stores:       c.tele.stores.Load(),
	}
}

// SegmentsSnapshot returns a copy of the buffer's current segments,
// safe against a concurrent Migrate.
func (b *Buffer) SegmentsSnapshot() []Segment {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs := b.segs()
	out := make([]Segment, len(segs))
	copy(out, segs)
	return out
}

// AppendSegments appends the buffer's current segments to dst and
// returns it: SegmentsSnapshot for callers that bring their own
// storage, so a hot path can read a placement without allocating.
func (b *Buffer) AppendSegments(dst []Segment) []Segment {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append(dst, b.segs()...)
}

// Freed reports whether the buffer has been released (has no placement).
func (b *Buffer) Freed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.segs() == nil
}

// NodeNames describes the placement, e.g. "DRAM#0" or
// "MCDRAM#1+DRAM#0" for a hybrid allocation. The common single-segment
// case returns the node's cached label without allocating.
func (b *Buffer) NodeNames() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs := b.segs()
	if len(segs) == 1 {
		return segs[0].Node.Label()
	}
	s := ""
	for _, seg := range segs {
		if s != "" {
			s += "+"
		}
		s += seg.Node.Label()
	}
	return s
}

// OnKind reports whether any segment of the buffer resides on a node
// of the given kind.
func (b *Buffer) OnKind(kind string) bool {
	for _, seg := range b.SegmentsSnapshot() {
		if seg.Node.Kind() == kind {
			return true
		}
	}
	return false
}

// Machine is the simulated memory system of one topology.
//
// Alloc, AllocSplit, AllocInterleave, Free, Migrate and MigrationCost
// are safe for concurrent use: capacity accounting takes only the
// per-node locks of the nodes involved, and no machine-wide lock or
// buffer registry sits on the allocation path. The engine
// (NewEngine/Phase) and counter accessors remain single-threaded by
// design.
type Machine struct {
	topo  *topology.Topology
	model MachineModel
	nodes map[int]*Node // by OS index

	// gen is the machine's placement generation: it advances on every
	// change that can alter a placement ranking or a node's
	// admissibility (offline/online, capacity shrink, performance
	// degradation). Caches of ranked candidates (internal/alloc) compare
	// generations instead of re-ranking on every allocation. Byte-level
	// capacity accounting deliberately does NOT bump it: rankings are by
	// attribute value, and a full node is discovered by the capacity
	// check at placement time.
	gen atomic.Uint64
}

// NewMachine builds the runtime machine for a topology and its model.
// Every NUMA node must have a model.
func NewMachine(topo *topology.Topology, model MachineModel) (*Machine, error) {
	m := &Machine{topo: topo, model: model, nodes: make(map[int]*Node)}
	for _, obj := range topo.NUMANodes() {
		nm, ok := model.Nodes[obj.OSIndex]
		if !ok {
			return nil, fmt.Errorf("%w: NUMA node P#%d", ErrNoModel, obj.OSIndex)
		}
		if nm.Kind == "" {
			nm.Kind = KindOf(obj)
		}
		m.nodes[obj.OSIndex] = &Node{
			Obj: obj, Model: nm, gen: &m.gen,
			label: fmt.Sprintf("%s#%d", KindOf(obj), obj.OSIndex),
		}
	}
	if m.model.FreqGHz == 0 {
		m.model.FreqGHz = 2.1
	}
	if m.model.Caches.LineSize == 0 {
		m.model.Caches = DefaultCaches()
	}
	return m, nil
}

// Topology returns the machine's topology.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Generation returns the machine's placement generation (see the field
// doc). It only ever grows.
func (m *Machine) Generation() uint64 { return m.gen.Load() }

// BumpGeneration invalidates any ranked-candidate cache built on this
// machine. The fault setters call it implicitly; callers that mutate
// placement inputs out-of-band (e.g. editing attribute values on a live
// registry) bump explicitly.
func (m *Machine) BumpGeneration() { m.gen.Add(1) }

// Model returns the machine model.
func (m *Machine) Model() MachineModel { return m.model }

// Node returns the runtime node for a topology NUMA object.
func (m *Machine) Node(obj *topology.Object) *Node { return m.nodes[obj.OSIndex] }

// NodeByOS returns the runtime node with the given OS index, or nil.
func (m *Machine) NodeByOS(os int) *Node { return m.nodes[os] }

// Nodes returns all runtime nodes ordered by OS index.
func (m *Machine) Nodes() []*Node {
	out := make([]*Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OSIndex() < out[j].OSIndex() })
	return out
}

// Alloc places size bytes on the given node, failing with
// ErrNoCapacity if it does not fit entirely.
func (m *Machine) Alloc(name string, size uint64, node *Node) (*Buffer, error) {
	if err := node.reserve(size); err != nil {
		return nil, err
	}
	return &Buffer{Name: name, Size: size, seg0: [1]Segment{{node, size}}}, nil
}

// AllocSplit places a buffer across several nodes with explicit byte
// counts per node (hybrid/partial allocation across two kinds of
// memory, as discussed in the paper's capacity section). All-or-nothing:
// on failure, partially reserved capacity is rolled back.
func (m *Machine) AllocSplit(name string, parts []Segment) (*Buffer, error) {
	var total uint64
	for i, p := range parts {
		if err := p.Node.reserve(p.Bytes); err != nil {
			for _, q := range parts[:i] {
				q.Node.release(q.Bytes)
			}
			return nil, err
		}
		total += p.Bytes
	}
	b := &Buffer{Name: name, Size: total}
	if len(parts) == 1 {
		b.seg0[0] = parts[0]
	} else {
		// Never nil, even for zero parts: such a buffer is live, not freed.
		split := make([]Segment, len(parts))
		copy(split, parts)
		b.split = &split
	}
	return b, nil
}

// AllocInterleave spreads size bytes round-robin across the given
// nodes (the OS "interleave" policy). All-or-nothing.
func (m *Machine) AllocInterleave(name string, size uint64, nodes []*Node) (*Buffer, error) {
	if len(nodes) == 0 {
		return nil, errors.New("memsim: interleave across zero nodes")
	}
	per := size / uint64(len(nodes))
	parts := make([]Segment, len(nodes))
	rem := size
	for i, n := range nodes {
		b := per
		if i == len(nodes)-1 {
			b = rem
		}
		parts[i] = Segment{n, b}
		rem -= b
	}
	return m.AllocSplit(name, parts)
}

// Free releases the buffer's memory and drops its placement.
func (m *Machine) Free(b *Buffer) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs := b.segs()
	if segs == nil {
		return ErrFreed
	}
	for _, seg := range segs {
		seg.Node.release(seg.Bytes)
	}
	b.seg0[0], b.split = Segment{}, nil
	return nil
}

// MigrationCost estimates the time Migrate would take, without moving
// anything: copy time bounded by the slower of source read and
// destination write bandwidth, plus per-page OS bookkeeping.
func (m *Machine) MigrationCost(b *Buffer, dst *Node) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return migrationCostLocked(b, dst)
}

func migrationCostLocked(b *Buffer, dst *Node) float64 {
	const pageSize = 4096
	const perPageOS = 1.2e-6
	var seconds float64
	for _, seg := range b.segs() {
		if seg.Node == dst {
			continue
		}
		srcF, _ := seg.Node.PerfFactors()
		dstF, _ := dst.PerfFactors()
		bw := seg.Node.Model.ReadBW * srcF
		if w := dst.Model.WriteBW * dstF; w < bw {
			bw = w
		}
		if bw <= 0 {
			bw = 1
		}
		seconds += float64(seg.Bytes)/(bw*float64(1<<30)) + perPageOS*float64(seg.Bytes/pageSize)
	}
	return seconds
}

// Migrate moves the whole buffer onto the destination node, failing
// with ErrNoCapacity if it does not fit. It returns the time the copy
// would take (bounded by the slower of the source read and destination
// write bandwidths, plus a per-page OS cost), which the caller's engine
// should add to its clock — the paper stresses that migration is
// expensive in operating systems.
func (m *Machine) Migrate(b *Buffer, dst *Node) (seconds float64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs := b.segs()
	if segs == nil {
		return 0, ErrFreed
	}
	already := uint64(0)
	for _, seg := range segs {
		if seg.Node == dst {
			already += seg.Bytes
		}
	}
	need := b.Size - already
	if err := dst.reserve(need); err != nil {
		return 0, fmt.Errorf("%w: migrating %q to %s#%d", ErrNoCapacity, b.Name, dst.Kind(), dst.OSIndex())
	}
	seconds = migrationCostLocked(b, dst)
	for _, seg := range segs {
		if seg.Node == dst {
			continue
		}
		seg.Node.release(seg.Bytes)
	}
	b.seg0[0], b.split = Segment{dst, b.Size}, nil
	return seconds, nil
}

// ResetCounters clears all node counters and those of the given
// buffers (allocation state is preserved). Like the engine that feeds
// them, this is not safe to run concurrently with Phase.
func (m *Machine) ResetCounters(bufs ...*Buffer) {
	for _, n := range m.nodes {
		n.BytesRead, n.BytesWritten, n.RandomReads = 0, 0, 0
	}
	for _, b := range bufs {
		if c := b.ctr.Load(); c != nil {
			c.llcMisses, c.randomMisses, c.loads, c.stores = 0, 0, 0, 0
			c.publish()
		}
	}
}
